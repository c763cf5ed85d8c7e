// net_interactive: an int8 artifact that freeze_model freezes from a
// model it trains on the paper's synthetic MovieLens-Rand corpus (250
// items), served by serve_model. Open-loop Poisson arrivals at a fixed
// rate over two pipelined connections: most requests come from a hot
// set of the dataset's groups (rep-cache hits, in-batch coalescing), the
// rest are ad-hoc member sets (cache misses), and some carry exclusion
// lists. A request's GEMM costs microseconds, so the wire codec, socket threads, queue
// wait, batching window and rep build set the latency.
#include <cmath>

#include "data/synthetic/standard_datasets.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr uint64_t kWorldSeed = 7;
constexpr double kScale = 0.5;
constexpr int kEpochs = 1;
constexpr int kConns = 2;
constexpr size_t kHotGroups = 32;
constexpr double kHotShare = 0.75;
constexpr double kExcludeShare = 0.3;
constexpr size_t kTopK = 10;
// The fixed offered rate: about 0.4 x the saturation rate a ladder of
// offered rates measured for this workload on the reference host
// (README): loaded enough that queueing and batching show, well short
// of saturation.
constexpr double kFixedRate = 10000;
// p99 is taken per run of this many requests, median across runs.
constexpr size_t kP99Chunk = 1000;
constexpr size_t kReloads = 300;  // refresh_s: reloads after the window

}  // namespace

Report RunNetInteractive(const Options& opt) {
  using kgag::serve::TopKRequest;
  Report report;
  const std::string artifact = opt.work_dir + "/net.srv2";

  const Clock::time_point freeze_t0 = Clock::now();
  if (RunTool({opt.tools_dir + "/freeze_model", "--out=" + artifact,
               "--layout=mmap", "--precision=int8",
               "--scale=" + std::to_string(kScale),
               "--epochs=" + std::to_string(kEpochs),
               "--seed=" + std::to_string(kWorldSeed)}) != 0) {
    report.fatal = true;
    return report;
  }
  const double freeze_s = Since(freeze_t0);
  TopKRequest first_req;
  first_req.members = {0, 1, 2};
  first_req.k = kTopK;
  WireConn first_conn;
  Serving serving = StartServing(opt, artifact, first_req, &first_conn, &report);
  if (report.fatal || serving.model == nullptr) return report;
  Server* server = serving.server.get();
  const RefModel& model = *serving.model;

  // The request mix, from the run seed.
  const kgag::GroupRecDataset ds = kgag::MakeMovieLensRandDataset(kWorldSeed, kScale);
  std::vector<kgag::GroupId> hot;
  for (size_t h = 0; h < kHotGroups; ++h) {
    hot.push_back(static_cast<kgag::GroupId>(
        Mix(opt.seed, 10, h) % static_cast<uint64_t>(ds.groups.num_groups())));
  }
  auto make = [&](size_t i) {
    TopKRequest r;
    r.k = kTopK;
    const bool exclude = Unit(opt.seed, 13, i) < kExcludeShare;
    if (Unit(opt.seed, 11, i) < kHotShare) {
      const kgag::GroupId g = hot[Mix(opt.seed, 12, i) % hot.size()];
      const auto members = ds.groups.MembersOf(g);
      r.members.assign(members.begin(), members.end());
      if (exclude) {
        const auto seen = ds.group_item.ItemsOf(g);
        r.exclude_seen.assign(seen.begin(),
                              seen.begin() + std::min<size_t>(20, seen.size()));
      }
    } else {
      const size_t size = 2 + Mix(opt.seed, 14, i) % 5;
      for (size_t m = 0; m < size; ++m) {
        r.members.push_back(static_cast<kgag::UserId>(
            Mix(opt.seed, 15, i * 8 + m) % model.num_users()));
      }
      for (size_t e = 0; exclude && e < 5; ++e) {
        r.exclude_seen.push_back(static_cast<kgag::ItemId>(
            Mix(opt.seed, 16, i * 8 + e) % model.num_items()));
      }
    }
    return r;
  };

  // The timed window: the fixed rate for --seconds (a shorter phase in
  // the traced run, whose replays take the rest of the time).
  const double fixed_s = opt.seconds * (opt.trace ? 0.3 : 1.0);
  const size_t fixed_n = static_cast<size_t>(std::llround(kFixedRate * fixed_s));
  std::vector<TopKRequest> reqs;
  for (size_t i = 0; i < fixed_n; ++i) reqs.push_back(make(i));
  bool ok = false;
  const std::map<std::string, double> before = server->Metrics(&ok);
  const uint64_t faults_before = server->MinorFaults();
  const std::vector<Outcome> outcomes = RunOpenLoop(
      server->data_port(), kConns, reqs,
      PoissonSchedule(opt.seed, 17, kFixedRate, fixed_n), Clock::now());
  const std::map<std::string, double> after = server->Metrics(&ok);
  const uint64_t faults = server->MinorFaults() - faults_before;
  const LoadStats stats = Summarize(outcomes);
  const double p99 = ChunkedP99(outcomes, kP99Chunk);
  std::printf(
      "net_interactive: %zu requests at %.0f req/s offered (%zu ok): "
      "achieved %.1f req/s, p50 %.3f ms, p99 %.3f ms (median of per-%zu "
      "p99s; whole-phase p99 %.3f ms, %zu beyond), generator lateness p99 "
      "%.3f ms\n",
      stats.sent, kFixedRate, stats.ok, stats.achieved_rps, stats.p50_ms, p99,
      kP99Chunk, stats.p99_ms, stats.beyond_p99, stats.lateness_p99_ms);
  CountOutcomes(outcomes, &report);
  CheckOutcomes(model, reqs, outcomes, 500, &report);
  const double rss_mb = server->PeakRssMb();

  if (opt.trace) {
    Report layers;
    AddServerDeltas(before, after, faults, &layers);
    std::vector<TopKRequest> probe;
    for (kgag::GroupId g : hot) {
      TopKRequest r;
      const auto members = ds.groups.MembersOf(g);
      r.members.assign(members.begin(), members.end());
      probe.push_back(r);
    }
    MeasureReloads(*server, probe, 3, &layers);
    server->Stop();
    double mean_batch = 1;
    for (const Metric& m : layers.metrics) {
      if (m.name == "serve.batch_size_mean") mean_batch = std::max(1.0, m.value);
    }
    const size_t per_batch = static_cast<size_t>(std::lround(mean_batch));
    std::vector<std::vector<TopKRequest>> batches;
    for (size_t b = 0; b < 200 && (b + 1) * per_batch <= reqs.size(); ++b) {
      batches.emplace_back(reqs.begin() + b * per_batch,
                           reqs.begin() + (b + 1) * per_batch);
    }
    Spans spans;
    FinishTrace(opt, artifact, batches, stats.p50_ms, freeze_s, serving.ttfq_ms,
                nullptr, &spans, &layers, &report);
    return report;
  }

  std::vector<TopKRequest> probes;
  for (size_t i = 0; i < kReloads; ++i) probes.push_back(make(fixed_n + i));
  const double refresh_s =
      ReloadToAnswer(*server, &first_conn, model, probes, 1, &report);
  std::printf("net_interactive: reload to first answer, median of %zu: %.3f ms\n",
              kReloads, refresh_s * 1e3);
  server->Stop();
  report.Add("setup_s", serving.setup_s, "s");
  report.Add("requests_per_s", stats.achieved_rps, "req/s");
  report.Add("latency_p50_ms", stats.p50_ms, "ms");
  report.Add("refresh_s", refresh_s, "s");
  report.Add("server_peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace e2e
