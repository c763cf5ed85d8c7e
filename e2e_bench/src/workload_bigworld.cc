// bigworld_batch: the synthetic 1M-user x 100K-item world (dim 64, fp16,
// mmap layout) frozen by freeze_model --bigworld and served by
// serve_model. One client thread keeps a fixed window of batch-class
// requests for the world's groups outstanding on one connection (closed
// loop). Every request scores all 100K items, so the SP GEMM, the
// softmax reduce and top-k carry the work.
#include <algorithm>

#include "data/synthetic/bigworld.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr uint64_t kWorldSeed = 7;  // freeze_model's default world
constexpr size_t kBatch = 16;       // serve_model's max_batch
constexpr size_t kWindow = 2 * kBatch;
constexpr size_t kTopK = 10;
constexpr int kExcludes = 3;
constexpr size_t kReloads = 30;  // refresh_s: reloads after the window

}  // namespace

Report RunBigWorldBatch(const Options& opt) {
  using kgag::serve::TopKRequest;
  Report report;
  const std::string artifact = opt.work_dir + "/bigworld.srv2";

  // Set-up: freeze, start the server, first answer.
  const Clock::time_point freeze_t0 = Clock::now();
  if (RunTool({opt.tools_dir + "/freeze_model", "--out=" + artifact,
               "--layout=mmap", "--bigworld", "--precision=fp16",
               "--seed=" + std::to_string(kWorldSeed)}) != 0) {
    report.fatal = true;
    return report;
  }
  const double freeze_s = Since(freeze_t0);
  kgag::synthetic::BigWorldSpec spec;
  spec.seed = kWorldSeed;
  const kgag::synthetic::BigWorldGen gen(spec);
  auto make = [&](size_t i) {
    TopKRequest r;
    r.members = gen.GroupMembers(Mix(opt.seed, 1, i) % spec.num_groups);
    r.k = kTopK;
    r.priority = kgag::serve::RequestClass::kBatch;
    for (int e = 0; e < kExcludes; ++e) {
      r.exclude_seen.push_back(static_cast<kgag::ItemId>(
          Mix(opt.seed, 2, i * kExcludes + e) % spec.num_items));
    }
    return r;
  };
  WireConn first_conn;
  Serving serving = StartServing(opt, artifact, make(SIZE_MAX), &first_conn, &report);
  if (report.fatal || serving.model == nullptr) return report;
  Server* server = serving.server.get();
  const RefModel& model = *serving.model;

  // Timed window.
  bool ok = false;
  const std::map<std::string, double> before = server->Metrics(&ok);
  const uint64_t faults_before = server->MinorFaults();
  const double seconds = opt.trace ? std::min(opt.seconds, 6.0) : opt.seconds;
  std::vector<TopKRequest> reqs;
  const std::vector<Outcome> outcomes =
      RunClosedLoop(server->data_port(), kWindow, seconds, make, &reqs);
  const std::map<std::string, double> after = server->Metrics(&ok);
  const uint64_t faults = server->MinorFaults() - faults_before;
  const LoadStats stats = Summarize(outcomes);
  // Completions per 2 s show how steady the server was within the run.
  std::vector<double> done;
  for (const Outcome& o : outcomes) {
    if (o.ok()) done.push_back(o.done_s);
  }
  std::sort(done.begin(), done.end());
  std::printf("bigworld_batch: completions per 2 s:");
  for (double t = 0; t < seconds; t += 2) {
    std::printf(" %zu", static_cast<size_t>(
        std::lower_bound(done.begin(), done.end(), t + 2) -
        std::lower_bound(done.begin(), done.end(), t)));
  }
  std::printf("\n");
  std::printf(
      "bigworld_batch: %zu requests (%zu ok) in a closed loop of %zu: "
      "%.2f req/s over the window; p50 %.1f ms, p99 %.1f ms (%zu beyond)\n",
      stats.sent, stats.ok, kWindow, stats.achieved_rps, stats.p50_ms,
      stats.p99_ms, stats.beyond_p99);

  // Read before the reloads, which map the artifact afresh.
  const double rss_mb = server->PeakRssMb();
  Report layers;
  double refresh_s = 0;
  if (opt.trace) {
    AddServerDeltas(before, after, faults, &layers);
    std::vector<TopKRequest> probe(reqs.begin(),
                                   reqs.begin() + std::min<size_t>(16, reqs.size()));
    MeasureReloads(*server, probe, 2, &layers);
  } else {
    std::vector<TopKRequest> probes;
    for (size_t i = 0; i < kReloads; ++i) probes.push_back(make(SIZE_MAX - 1 - i));
    // The fp64 reference over 100K items takes about 0.3 s per answer, so
    // every 10th probe is checked against it.
    refresh_s = ReloadToAnswer(*server, &first_conn, model, probes, 10, &report);
    std::printf("bigworld_batch: reload to first answer, median of %zu: %.2f ms\n",
                kReloads, refresh_s * 1e3);
  }
  server->Stop();
  CountOutcomes(outcomes, &report);
  CheckOutcomes(model, reqs, outcomes, std::max<size_t>(1, outcomes.size() / 8),
                &report);

  if (!opt.trace) {
    report.Add("setup_s", serving.setup_s, "s");
    report.Add("requests_per_s", stats.achieved_rps, "req/s");
    report.Add("latency_p50_ms", stats.p50_ms, "ms");
    report.Add("refresh_s", refresh_s, "s");
    report.Add("server_peak_rss_mb", rss_mb, "MB");
    return report;
  }
  std::vector<std::vector<TopKRequest>> batches(4);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (size_t j = 0; j < kBatch; ++j) batches[b].push_back(make(b * kBatch + j));
  }
  Spans spans;
  FinishTrace(opt, artifact, batches, stats.p50_ms, freeze_s, serving.ttfq_ms,
              nullptr, &spans, &layers, &report);
  return report;
}

}  // namespace e2e
