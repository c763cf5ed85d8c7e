// online_refresh: the online world (MakeOnlineWorld with 16 reserved cold
// users), warm-started from a checkpoint written during set-up. Each run
// processes a fixed number of fixed-size event windows; each window goes
// through OnlineTrainer::ApplyEvents, OnlineTrainer::Refresh (compaction,
// fine-tune micro-epochs at the default thread count, checkpoint, freeze,
// atomic publish) and GET /reload on serve_model. Meanwhile an open-loop
// read stream at a fixed rate hits the same server, including ad-hoc
// groups that contain cold users. Event counts drive the refreshes,
// never the clock.
#include <thread>

#include "obs/metrics.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr size_t kWindowsPerSecond = 6;  // windows = seconds x this
constexpr double kReadRate = 200;         // req/s
constexpr double kAdhocShare = 0.3;
constexpr double kExcludeShare = 0.25;
constexpr size_t kTopK = 10;

// For a failed check: which published version, if any, the answer
// matches exactly (" [answer of version N]"), so a stale answer shows
// as one.
std::string MatchesVersion(
    const std::vector<std::shared_ptr<const RefModel>>& versions,
    const kgag::serve::TopKRequest& req,
    const kgag::serve::WireResponse& resp) {
  for (size_t v = versions.size(); v-- > 0;) {
    if (CheckAgainstReference(*versions[v], req, resp).empty()) {
      return " [answer of version " + std::to_string(v) + "]";
    }
  }
  return "";
}

uint64_t TrainExamples() {
  const kgag::obs::Counter* c =
      kgag::obs::MetricsRegistry::Global().FindCounter("train.examples");
  return c == nullptr ? 0 : c->Value();
}

}  // namespace

Report RunOnlineRefresh(const Options& opt) {
  using kgag::serve::TopKRequest;
  Report report;
  std::unique_ptr<OnlineWorld> ow =
      BuildOnlineWorld(opt.work_dir + "/online", opt.seed);
  if (ow == nullptr) {
    report.fatal = true;
    return report;
  }
  const kgag::GroupRecDataset& world = ow->world;
  auto make = [&](uint64_t stream, size_t i) {
    TopKRequest r;
    r.k = kTopK;
    const bool exclude = Unit(opt.seed, stream + 1, i) < kExcludeShare;
    if (Unit(opt.seed, stream + 2, i) < kAdhocShare) {
      // An occasional group: one cold user with two or three warm ones.
      r.members.push_back(ow->cold_begin + static_cast<kgag::UserId>(
          Mix(opt.seed, stream + 3, i) % (world.num_users - ow->cold_begin)));
      for (size_t m = 0; m < 2 + Mix(opt.seed, stream + 4, i) % 2; ++m) {
        r.members.push_back(static_cast<kgag::UserId>(
            Mix(opt.seed, stream + 5, i * 4 + m) % ow->cold_begin));
      }
    } else {
      const kgag::GroupId g = static_cast<kgag::GroupId>(
          Mix(opt.seed, stream + 6, i) % world.groups.num_groups());
      const auto members = world.groups.MembersOf(g);
      r.members.assign(members.begin(), members.end());
    }
    for (size_t e = 0; exclude && e < 5; ++e) {
      r.exclude_seen.push_back(static_cast<kgag::ItemId>(
          Mix(opt.seed, stream + 7, i * 8 + e) % world.num_items));
    }
    return r;
  };
  WireConn probe;
  Serving serving = StartServing(opt, ow->artifact, make(100, 0), &probe, &report);
  if (report.fatal || serving.model == nullptr) return report;
  Server* server = serving.server.get();
  std::string error;
  std::vector<std::shared_ptr<const RefModel>> versions = {serving.model};

  // Read stream: open loop on its own connection, running until the
  // refresh loop ends.
  const size_t windows =
      std::max<size_t>(3, static_cast<size_t>(opt.seconds) * kWindowsPerSecond);
  const size_t horizon = static_cast<size_t>(kReadRate * (20 + 4 * opt.seconds));
  std::vector<TopKRequest> reads;
  for (size_t i = 0; i < horizon; ++i) reads.push_back(make(0, i));
  const std::vector<double> due = PoissonSchedule(opt.seed, 20, kReadRate, horizon);
  std::atomic<bool> stop{false};
  std::vector<Outcome> outcomes;
  bool ok = false;
  const std::map<std::string, double> before = server->Metrics(&ok);
  const uint64_t faults_before = server->MinorFaults();
  const Clock::time_point t0 = Clock::now();
  SendGate gate;
  std::thread reader([&] {
    outcomes = RunOpenLoop(server->data_port(), 1, reads, due, t0, &stop, &gate);
  });

  Spans spans;
  Report layers;
  std::vector<double> refresh_s, train_rate, reload_start, reload_end;
  for (size_t w = 0; w < windows; ++w) {
    kgag::online::OnlineTrainer& trainer = *ow->trainer;
    const uint64_t expected = ow->CountNewPairs(ow->window);
    const TopKRequest probe_req = make(200, w);
    const Clock::time_point start = Clock::now();
    size_t accepted;
    {
      Spans::Scope s(&spans, "online.apply_events", w);
      accepted = trainer.ApplyEvents(ow->window);
    }
    const uint64_t examples_before = TrainExamples();
    kgag::Result<kgag::online::RefreshReport> r = [&] {
      Spans::Scope s(&spans, "online.refresh", w);
      return trainer.Refresh();
    }();
    const uint64_t examples = TrainExamples() - examples_before;
    // The engine binds a batch to the model it captured at the batch's
    // start, and late-admits requests that arrive while the batch runs.
    // A read sent just after a swap can so be scored by the previous
    // artifact (CHANGES.md, FOUND). Reads are therefore paused from
    // before the reload until it has returned, with none in flight at
    // the swap: every answer must come from the version live from its
    // send to its answer.
    const bool drained = gate.CloseAndDrain(10);
    reload_start.push_back(Since(t0));
    bool reloaded;
    {
      Spans::Scope s(&spans, "serve.reload", w);
      reloaded = r.ok() && drained && server->Reload();
    }
    reload_end.push_back(Since(t0));
    gate.Open();
    kgag::serve::WireResponse answer;
    const bool answered = reloaded && RoundTrip(&probe, probe_req, &answer);
    const double done_s = Since(start);
    std::shared_ptr<const RefModel> next =
        answered ? RefModel::Load(ow->artifact, &error) : nullptr;
    refresh_s.push_back(done_s);
    ++report.attempted;
    if (!answered || next == nullptr) {
      ++report.failed;
      report.Fail("refresh " + std::to_string(w) + " did not reach the server" +
                  (r.ok() ? "" : ": " + r.status().ToString()) +
                  (drained ? "" : ": reads did not drain") + error);
      break;
    }
    train_rate.push_back(examples / (r->train_micros / 1e6));

    // Checks, outside the timed refresh: the edge count, the swap count,
    // and answers against the artifact just published.
    if (accepted != expected) {
      report.Fail("window " + std::to_string(w) + ": ApplyEvents accepted " +
                  std::to_string(accepted) + ", stream holds " +
                  std::to_string(expected) + " new pairs");
    }
    const std::string edges = CheckNewEdges(r->new_edges, expected);
    if (!edges.empty()) report.Fail("window " + std::to_string(w) + ": " + edges);
    const std::string statusz = server->Statusz(&ok);
    const double reloads = JsonNumber(statusz, "reload", "count");
    const double swaps = JsonNumber(statusz, "model", "swaps");
    if (!ok || reloads != static_cast<double>(w + 1) ||
        swaps != static_cast<double>(w + 1)) {
      report.Fail("after reload " + std::to_string(w + 1) + " /statusz shows " +
                  std::to_string(reloads) + " reloads, " + std::to_string(swaps) +
                  " swaps");
    }
    versions.push_back(next);
    std::string why = CheckAgainstReference(*next, probe_req, answer);
    if (!why.empty()) why += MatchesVersion(versions, probe_req, answer);
    for (size_t j = 0; why.empty() && j < 2; ++j) {
      const TopKRequest sample = make(300, w * 2 + j);
      kgag::serve::WireResponse resp;
      if (!RoundTrip(&probe, sample, &resp)) {
        why = "sample request failed";
        break;
      }
      why = CheckAgainstReference(*next, sample, resp);
      if (!why.empty()) why += MatchesVersion(versions, sample, resp);
    }
    if (why.empty()) continue;
    report.Fail("version " + std::to_string(w + 1) + ": " + why);
  }
  stop = true;
  reader.join();
  const std::map<std::string, double> after = server->Metrics(&ok);
  const uint64_t faults = server->MinorFaults() - faults_before;
  const LoadStats stats = Summarize(outcomes);
  CountOutcomes(outcomes, &report);

  // Each read must match the fp64 reference of an artifact version that
  // was live at some point between its send and its answer.
  size_t checked = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok()) continue;
    size_t lo = 0, hi = 0;
    for (size_t k = 0; k < reload_end.size(); ++k) {
      if (reload_end[k] < o.sent_s) lo = k + 1;
      if (reload_start[k] < o.done_s) hi = k + 1;
    }
    const TopKRequest& req = reads[o.index];
    std::string why = "no version";
    for (size_t v = lo; v <= hi && v < versions.size() && !why.empty(); ++v) {
      why = CheckInvariants(*versions[v], req, o.response);
      if (why.empty()) why = CheckAgainstReference(*versions[v], req, o.response);
    }
    ++checked;
    if (why.empty()) continue;
    char when[160];
    std::snprintf(when, sizeof(when),
                  " (sent %.6f s, answered %.6f s; live versions %zu..%zu; "
                  "reload %zu ended %.6f s)",
                  o.sent_s, o.done_s, lo, hi, lo,
                  lo > 0 ? reload_end[lo - 1] : 0.0);
    report.Fail("read " + std::to_string(o.index) + ": " + why + when +
                MatchesVersion(versions, req, o.response));
  }
  std::printf("checks: %zu reads checked against the fp64 reference of the "
              "live artifact version; %zu reads fell due during a reload "
              "and were skipped\n", checked, gate.skipped());
  // The p99 and the training rate are printed, not reported: across
  // runs they follow the host more than the program (README).
  std::printf(
      "online_refresh: %zu refreshes of %zu events; refresh p50 %.3f s; "
      "fine-tune %.0f examples/s; %zu reads at %.0f req/s offered: p50 "
      "%.3f ms, p99 %.3f ms (%zu beyond), generator lateness p99 %.3f ms\n",
      refresh_s.size(), ow->window, Median(refresh_s), Median(train_rate),
      stats.sent, kReadRate, stats.p50_ms, stats.p99_ms, stats.beyond_p99,
      stats.lateness_p99_ms);

  if (!opt.trace) {
    report.Add("setup_s", serving.setup_s, "s");
    report.Add("requests_per_s", stats.achieved_rps, "req/s");
    report.Add("latency_p50_ms", stats.p50_ms, "ms");
    report.Add("refresh_s", Median(refresh_s), "s");
    report.Add("server_peak_rss_mb", server->PeakRssMb(), "MB");
    server->Stop();
    return report;
  }
  AddServerDeltas(before, after, faults, &layers);
  std::vector<TopKRequest> probes;
  for (size_t i = 0; i < 16; ++i) probes.push_back(make(0, i));
  MeasureReloads(*server, probes, 3, &layers);
  server->Stop();
  std::vector<std::vector<TopKRequest>> batches;
  for (size_t b = 0; b < 100; ++b) batches.push_back({reads[b]});
  FinishTrace(opt, ow->artifact, batches, stats.p50_ms, ow->freeze_s,
              serving.ttfq_ms, ow.get(), &spans, &layers, &report);
  return report;
}

}  // namespace e2e
