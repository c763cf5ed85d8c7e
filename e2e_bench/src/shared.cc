// Pieces every workload shares: outcome checks and the online world.
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "models/kgag_model.h"
#include "online/stream.h"
#include "serve/frozen_model.h"
#include "workloads.h"

namespace e2e {

void CountOutcomes(const std::vector<Outcome>& outcomes, Report* report) {
  for (const Outcome& o : outcomes) {
    ++report->attempted;
    if (!o.ok()) ++report->failed;
  }
}

void CheckOutcomes(const RefModel& model,
                   const std::vector<kgag::serve::TopKRequest>& reqs,
                   const std::vector<Outcome>& outcomes, size_t sample_every,
                   Report* report) {
  size_t checked = 0;
  size_t sampled = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok()) continue;
    std::string why = CheckInvariants(model, reqs[o.index], o.response);
    if (why.empty() && i % sample_every == 0) {
      why = CheckAgainstReference(model, reqs[o.index], o.response);
      ++sampled;
    }
    ++checked;
    if (!why.empty()) report->Fail("request " + std::to_string(o.index) + ": " + why);
  }
  std::printf("checks: %zu responses checked, %zu against the fp64 reference\n",
              checked, sampled);
}

Serving StartServing(const Options& opt, const std::string& artifact,
                     const kgag::serve::TopKRequest& first, WireConn* conn,
                     Report* report) {
  Serving s;
  const Clock::time_point server_t0 = Clock::now();
  s.server = Server::Start(opt, artifact);
  kgag::serve::WireResponse answer;
  if (s.server == nullptr || !conn->Connect(s.server->data_port()) ||
      !RoundTrip(conn, first, &answer)) {
    report->fatal = true;
    return s;
  }
  s.setup_s = Since(opt.process_start);
  s.ttfq_ms = Since(server_t0) * 1e3;
  std::string error;
  s.model = RefModel::Load(artifact, &error);
  if (s.model == nullptr) {
    report->Fail(error);
    return s;
  }
  const std::string why = CheckAgainstReference(*s.model, first, answer);
  if (!why.empty()) report->Fail("first answer: " + why);
  return s;
}

double ReloadToAnswer(const Server& server, WireConn* conn,
                      const RefModel& model,
                      const std::vector<kgag::serve::TopKRequest>& probes,
                      size_t sample_every, Report* report) {
  bool ok = false;
  const double swaps_before = JsonNumber(server.Statusz(&ok), "model", "swaps");
  std::vector<double> times;
  for (size_t i = 0; i < probes.size(); ++i) {
    ++report->attempted;
    kgag::serve::WireResponse answer;
    const Clock::time_point t0 = Clock::now();
    if (!server.Reload() || !RoundTrip(conn, probes[i], &answer)) {
      ++report->failed;
      report->Fail("reload " + std::to_string(i) + " was not answered");
      continue;
    }
    times.push_back(Since(t0));
    std::string why = CheckInvariants(model, probes[i], answer);
    if (why.empty() && i % sample_every == 0) {
      why = CheckAgainstReference(model, probes[i], answer);
    }
    if (!why.empty()) report->Fail("after reload " + std::to_string(i) + ": " + why);
  }
  const double swaps = JsonNumber(server.Statusz(&ok), "model", "swaps");
  if (!ok || swaps != swaps_before + static_cast<double>(probes.size())) {
    report->Fail("/statusz shows " + std::to_string(swaps - swaps_before) +
                 " swaps after " + std::to_string(probes.size()) + " reloads");
  }
  return Median(times);
}

void FinishTrace(const Options& opt, const std::string& artifact,
                 const std::vector<std::vector<kgag::serve::TopKRequest>>& batches,
                 double e2e_p50_ms, double freeze_s, double ttfq_ms,
                 OnlineWorld* online, Spans* spans, Report* layers,
                 Report* report) {
  double peak = 0, stream = 0;
  HostProbes(layers, &peak, &stream);
  const double batch_us =
      ReplayServing(artifact, batches, peak, stream, spans, layers);
  AddUnattributed(e2e_p50_ms, batch_us, layers);
  layers->Add("serve.freeze_s", freeze_s, "s");
  layers->Add("serve.artifact_bytes",
              static_cast<double>(std::filesystem::file_size(artifact)), "bytes");
  layers->Add("serve.ttfq_ms", ttfq_ms, "ms");
  std::unique_ptr<OnlineWorld> own;
  if (online == nullptr) {
    own = BuildOnlineWorld(opt.work_dir + "/online_replay", opt.seed);
    online = own.get();
  }
  if (online == nullptr) {
    layers->Fail("online replay world");
  } else {
    ReplayOnline(online, 3, spans, layers);
    ReplayTraining(*online, opt.seed, spans, layers);
  }
  spans->PrintSummary();
  spans->Write(opt.out_dir + "/trace-" + opt.workload + "-" +
               std::to_string(opt.seed) + ".json");
  report->metrics = layers->metrics;
  for (const std::string& f : layers->check_failures) report->Fail(f);
}

namespace {

// The online world (the workload's fixed config; only the event stream
// follows the run seed).
constexpr uint64_t kOnlineWorldSeed = 777;
constexpr double kOnlineScale = 0.25;
constexpr int32_t kColdUsers = 16;
constexpr size_t kWindowEvents = 64;
constexpr int kMicroEpochs = 2;

uint64_t PairKey(int32_t user, int32_t item) {
  return static_cast<uint64_t>(static_cast<uint32_t>(user)) << 32 |
         static_cast<uint32_t>(item);
}

}  // namespace

uint64_t OnlineWorld::CountNewPairs(size_t n) {
  uint64_t fresh = 0;
  const uint64_t first = trainer->next_event();
  for (uint64_t i = first; i < first + n; ++i) {
    const kgag::online::StreamEvent ev = trainer->stream().Event(i);
    fresh += known.insert(PairKey(ev.user, ev.item)).second ? 1 : 0;
  }
  return fresh;
}

std::unique_ptr<OnlineWorld> BuildOnlineWorld(const std::string& dir,
                                             uint64_t seed) {
  using namespace kgag;
  auto ow = std::make_unique<OnlineWorld>();
  ow->world = online::MakeOnlineWorld(kOnlineWorldSeed, kOnlineScale, kColdUsers);
  ow->cold_begin = ow->world.num_users - kColdUsers;
  ow->window = kWindowEvents;
  KgagConfig& cfg = ow->config;
  cfg.propagation.dim = 16;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 4;
  cfg.propagation.final_tanh = false;
  cfg.pairs_per_epoch = 96;
  cfg.batch_size = 8;
  cfg.eval_tree_samples = 1;
  cfg.select_by_validation = false;
  cfg.seed = 31;
  std::filesystem::create_directories(dir);
  ow->ckpt_dir = dir + "/ckpt";
  ow->artifact = dir + "/online.srv2";

  // Offline phase: warm the model, checkpoint it, publish version 0.
  {
    Result<std::unique_ptr<KgagModel>> model = KgagModel::Create(&ow->world, cfg);
    if (!model.ok()) {
      std::fprintf(stderr, "online model: %s\n", model.status().ToString().c_str());
      return nullptr;
    }
    (*model)->FineTuneEpoch();
    (*model)->FineTuneEpoch();
    ckpt::CheckpointManager mgr({.dir = ow->ckpt_dir});
    Status st = mgr.Save((*model)->CaptureTrainingState(2, false, 0, 0.0, nullptr));
    const Clock::time_point t0 = Clock::now();
    Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
    if (st.ok()) st = frozen.status();
    if (st.ok()) st = serve::SaveFrozenModelV2(*frozen, ow->artifact);
    ow->freeze_s = Since(t0);
    if (!st.ok()) {
      std::fprintf(stderr, "online set-up: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  const online::InteractionStream stream(
      online::StreamForWorld(ow->world, Mix(seed, 90, 0), kColdUsers));
  online::OnlineTrainer::Options topt;
  topt.config = cfg;
  topt.checkpoint_dir = ow->ckpt_dir;
  topt.artifact_path = ow->artifact;
  topt.micro_epochs = kMicroEpochs;
  topt.mmap_layout = true;
  Result<std::unique_ptr<online::OnlineTrainer>> trainer =
      online::OnlineTrainer::Create(ow->world, stream, topt);
  if (!trainer.ok() || !(*trainer)->resumed_from_checkpoint()) {
    std::fprintf(stderr, "online trainer did not resume from its checkpoint\n");
    return nullptr;
  }
  ow->trainer = std::move(*trainer);
  for (const Interaction& it : ow->world.user_item.ToPairs()) {
    ow->known.insert(PairKey(it.row, it.item));
  }
  return ow;
}

}  // namespace e2e
