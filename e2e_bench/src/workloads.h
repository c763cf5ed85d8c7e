// The three workloads and the traced-run layer replays they share.
#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "harness.h"
#include "models/config.h"
#include "online/online_trainer.h"
#include "reference.h"
#include "spans.h"

namespace e2e {

Report RunBigWorldBatch(const Options& opt);
Report RunNetInteractive(const Options& opt);
Report RunOnlineRefresh(const Options& opt);

// -- Checks shared by the workloads ------------------------------------------

/// Runs CheckInvariants on every outcome (failed requests are counted,
/// not checked) and CheckAgainstReference on every `sample_every`-th one.
void CheckOutcomes(const RefModel& model,
                   const std::vector<kgag::serve::TopKRequest>& reqs,
                   const std::vector<Outcome>& outcomes, size_t sample_every,
                   Report* report);

/// Counts failed requests of a load phase into `report`.
void CountOutcomes(const std::vector<Outcome>& outcomes, Report* report);

/// \brief A started serve_model with the benchmark's own view of its
/// artifact and the set-up figures.
struct Serving {
  std::unique_ptr<Server> server;
  std::shared_ptr<const RefModel> model;  ///< null if unreadable
  double setup_s = 0;  ///< process start to the first answer
  double ttfq_ms = 0;  ///< server spawn to the first answer
};

/// Starts serve_model on `artifact` and sends `first` on `conn`; its
/// answer ends set-up. Then parses the artifact and checks that answer
/// against the reference. Sets report->fatal when nothing is served.
Serving StartServing(const Options& opt, const std::string& artifact,
                     const kgag::serve::TopKRequest& first, WireConn* conn,
                     Report* report);

/// refresh_s on the workloads that do not train: `probes.size()` times,
/// GET /reload (the server reloads its artifact from disk and swaps it
/// in) and then send one probe; the time runs from the reload request to
/// the probe's answer. Counts each as an attempted operation, checks
/// every answer's invariants, every `sample_every`-th one against the
/// fp64 reference of `model`, and the /statusz swap count. Returns the
/// median in seconds.
double ReloadToAnswer(const Server& server, WireConn* conn,
                      const RefModel& model,
                      const std::vector<kgag::serve::TopKRequest>& probes,
                      size_t sample_every, Report* report);

// -- The online world ---------------------------------------------------------

/// \brief The online world at the workload's fixed config: world,
/// warm-start checkpoint, initial artifact, and an OnlineTrainer resumed
/// from the checkpoint whose event stream derives from the run seed.
struct OnlineWorld {
  kgag::GroupRecDataset world;
  kgag::KgagConfig config;
  std::string ckpt_dir;
  std::string artifact;
  std::unique_ptr<kgag::online::OnlineTrainer> trainer;
  int32_t cold_begin = 0;  ///< first reserved cold user id
  /// (user << 32 | item) pairs the trainer's current graph holds, for
  /// the benchmark's own new-edge count.
  std::unordered_set<uint64_t> known;
  /// Events per refresh window.
  size_t window = 0;
  /// Time to freeze and save the initial artifact.
  double freeze_s = 0;

  /// New distinct pairs among the next `n` stream events (and records
  /// them as known).
  uint64_t CountNewPairs(size_t n);
};

/// Builds the world under `dir`: initial training, checkpoint, initial
/// artifact, trainer. Null on failure (reason on stderr).
std::unique_ptr<OnlineWorld> BuildOnlineWorld(const std::string& dir,
                                             uint64_t seed);

// -- Traced-run layer replays (layers.cc) ---------------------------------

/// Same-host peaks: fp64 kernels::Gemm GFLOP/s and a stream-copy GB/s.
void HostProbes(Report* report, double* gemm_gflops, double* stream_gbs);

/// Replays request batches in-process through the serving layers on
/// the artifact at `path` (LoadFrozenModelMmap, BuildGroupRep,
/// MemberStack::SpLogitsAllItems, ReduceScores, TopKIndicesWhere and the
/// wire codec), recording spans, and adds the tensor.*, serve.* and
/// eval.* replay metrics. Returns the replay's median time per batch in
/// us (its own end-to-end figure: every request waits for its batch).
double ReplayServing(const std::string& path,
                     const std::vector<std::vector<kgag::serve::TopKRequest>>&
                         batches,
                     double gemm_peak_gflops, double stream_gbs, Spans* spans,
                     Report* report);

/// Reads the server-side batching, cache and queue-wait figures as
/// deltas between two /metrics scrapes, and the server's minor page
/// faults per batch over the same window.
void AddServerDeltas(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     uint64_t minor_faults, Report* report);

/// GET /reload `times` times, re-sending `probe` after each swap;
/// adds serve.reload_ms and serve.cache_epoch_evictions.
void MeasureReloads(const Server& server,
                    const std::vector<kgag::serve::TopKRequest>& probe,
                    int times, Report* report);

/// Refresh-path replay on an online world: `windows` windows with spans
/// around ApplyEvents, DeltaKg::Compact, Refresh, FreezeKgagModel, the
/// atomic artifact save and CheckpointManager::Save; adds online.* and
/// ckpt.save_ms.
void ReplayOnline(OnlineWorld* world, int windows, Spans* spans,
                  Report* report);

/// Training-layer replay on the online world's examples, plus the
/// TrainEpoch thread speedup; adds kg.*, models.*, tensor.backward_us,
/// tensor.grad_reduce_us, tensor.optimizer_step_us and
/// train.threads_speedup.
void ReplayTraining(const OnlineWorld& world, uint64_t seed, Spans* spans,
                    Report* report);

/// Prints the untraced load phase's median latency next to the traced
/// layers' sum (server queue wait + replayed batch) and adds the
/// difference as serve.unattributed_us.
void AddUnattributed(double e2e_p50_ms, double replay_batch_us,
                     Report* report);

/// The traced-run tail every workload shares: host probes, the serving
/// replay of `batches` on `artifact`, serve.unattributed_us, the set-up
/// layers, the online and training replays (on `online`, or on a world
/// of their own when it is null), the span summary and trace file. Then
/// moves the layer metrics and failures into `report`.
void FinishTrace(const Options& opt, const std::string& artifact,
                 const std::vector<std::vector<kgag::serve::TopKRequest>>& batches,
                 double e2e_p50_ms, double freeze_s, double ttfq_ms,
                 OnlineWorld* online, Spans* spans, Report* layers,
                 Report* report);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
