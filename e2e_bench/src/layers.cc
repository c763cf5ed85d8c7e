// Traced-run replays: the benchmark calls each layer's public functions
// itself, from its own files, with a span around every call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "kg/collaborative_kg.h"
#include "models/attention.h"
#include "models/kgag_model.h"
#include "models/losses.h"
#include "models/propagation.h"
#include "obs/metrics.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "serve/net_protocol.h"
#include "tensor/grad_buffer.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"
#include "workloads.h"

namespace e2e {

namespace {

using kgag::serve::TopKRequest;

double MetricValue(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double Get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

uint64_t CounterValue(const char* name) {
  const kgag::obs::Counter* c =
      kgag::obs::MetricsRegistry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

}  // namespace

void HostProbes(Report* report, double* gemm_gflops, double* stream_gbs) {
  // Peak compute: fp64 kernels::Gemm on one core (the serving GEMM also
  // runs on one core), best of 200 calls on a cache-resident 512x64x64
  // shape, the largest rate the kernel reaches on this host.
  const size_t m = 512, k = 64, n = 64;
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (size_t i = 0; i < a.size(); ++i) a[i] = Unit(1, 1, i) - 0.5;
  for (size_t i = 0; i < b.size(); ++i) b[i] = Unit(1, 2, i) - 0.5;
  double best = 0;
  for (int rep = 0; rep < 200; ++rep) {
    std::fill(c.begin(), c.end(), 0.0);
    const Clock::time_point t0 = Clock::now();
    kgag::kernels::Gemm(false, false, m, n, k, a.data(), k, b.data(), n,
                        c.data(), n);
    best = std::max(best, 2.0 * m * n * k / Since(t0) / 1e9);
  }
  *gemm_gflops = best;
  // Memory bandwidth: a 64 MiB stream copy (bytes read + written).
  const size_t words = size_t{8} << 20;
  std::vector<double> src(words, 1.0), dst(words, 0.0);
  double best_bw = 0;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<size_t>(rep)] += 1.0;
    const Clock::time_point t0 = Clock::now();
    std::copy(src.begin(), src.end(), dst.begin());
    best_bw = std::max(best_bw, 2.0 * words * sizeof(double) / Since(t0) / 1e9);
  }
  if (dst[0] < 0) std::printf("unreachable\n");
  *stream_gbs = best_bw;
  report->Add("host.gemm_peak_gflops", *gemm_gflops, "GFLOP/s");
  report->Add("host.stream_gbs", *stream_gbs, "GB/s");
}

double ReplayServing(const std::string& path,
                     const std::vector<std::vector<TopKRequest>>& batches,
                     double gemm_peak_gflops, double stream_gbs, Spans* spans,
                     Report* report) {
  using namespace kgag::serve;
  std::vector<double> map_ms;
  kgag::Result<FrozenModel> loaded = kgag::Status::Internal("not loaded");
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    loaded = LoadFrozenModelMmap(path);
    map_ms.push_back(Since(t0) * 1e3);
    if (!loaded.ok()) {
      report->Fail("replay: " + loaded.status().ToString());
      return 0;
    }
  }
  const FrozenModel& model = *loaded;
  const size_t items = static_cast<size_t>(model.num_items);
  const size_t dim = static_cast<size_t>(model.dim);
  const double elem = static_cast<double>(RepBytesPerEntity(model)) / dim;

  std::vector<double> gemm_us, gflops, gbs, reduce_us, batch_us;
  std::vector<double> rep_us, topk_us, dec_us, enc_us, wire_bytes;
  std::vector<double> intensity;  // flops per computed byte
  uint64_t req_id = 0;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const std::vector<TopKRequest>& batch = batches[bi];
    const Clock::time_point batch_t0 = Clock::now();
    Spans::Scope batch_span(spans, "serve.batch", bi);
    // Wire decode of every frame of the batch.
    std::vector<TopKRequest> decoded;
    for (const TopKRequest& r : batch) {
      const std::vector<uint8_t> frame = EncodeTopKRequest(r);
      const Clock::time_point t0 = Clock::now();
      Spans::Scope s(spans, "serve.wire_decode", req_id + decoded.size());
      kgag::Result<TopKRequest> d = DecodeTopKRequest(frame.data(), frame.size());
      dec_us.push_back(Since(t0) * 1e6);
      decoded.push_back(d.ok() ? *d : r);
      wire_bytes.push_back(4.0 + frame.size());
    }
    // One rep per distinct canonical group (the server's in-batch
    // coalescing); the replay has no cache, so every group is a miss.
    std::map<std::vector<kgag::UserId>, size_t> group_of;
    std::vector<GroupRep> reps;
    std::vector<size_t> req_group;
    for (const TopKRequest& r : decoded) {
      std::vector<kgag::UserId> key = r.members;
      std::sort(key.begin(), key.end());
      key.erase(std::unique(key.begin(), key.end()), key.end());
      auto [it, fresh] = group_of.emplace(key, reps.size());
      if (fresh) {
        const Clock::time_point t0 = Clock::now();
        Spans::Scope s(spans, "serve.rep_build", req_id + req_group.size());
        kgag::Result<GroupRep> rep = BuildGroupRep(model, key);
        rep_us.push_back(Since(t0) * 1e6);
        if (!rep.ok()) {
          report->Fail("replay rep: " + rep.status().ToString());
          return 0;
        }
        reps.push_back(std::move(*rep));
      }
      req_group.push_back(it->second);
    }
    MemberStack stack(model);
    std::vector<size_t> start;
    for (const GroupRep& rep : reps) start.push_back(stack.Append(rep));
    std::vector<double> logits(stack.rows() * items);
    {
      const Clock::time_point t0 = Clock::now();
      Spans::Scope s(spans, "tensor.sp_gemm", bi);
      stack.SpLogitsAllItems(logits.data());
      const double secs = Since(t0);
      const double flops = 2.0 * stack.rows() * dim * items;
      // Computed, not measured: item codes read once, member codes read,
      // logits written.
      const double bytes = items * dim * elem + stack.rows() * dim * elem +
                           stack.rows() * items * 8.0;
      gemm_us.push_back(secs * 1e6);
      gflops.push_back(flops / secs / 1e9);
      gbs.push_back(bytes / secs / 1e9);
      intensity.push_back(flops / bytes);
    }
    std::vector<std::vector<double>> scores(reps.size(), std::vector<double>(items));
    {
      const Clock::time_point t0 = Clock::now();
      for (size_t g = 0; g < reps.size(); ++g) {
        Spans::Scope s(spans, "serve.softmax_reduce", bi);
        ReduceScores(model, reps[g], logits.data() + start[g] * items, items,
                     items, scores[g].data());
      }
      reduce_us.push_back(Since(t0) * 1e6);
    }
    for (size_t j = 0; j < decoded.size(); ++j) {
      const TopKRequest& r = decoded[j];
      TopKResult result;
      {
        const Clock::time_point t0 = Clock::now();
        Spans::Scope s(spans, "eval.topk", req_id + j);
        // The engine's rank-time filter: a sorted exclusion list.
        std::vector<kgag::ItemId> ex = r.exclude_seen;
        std::sort(ex.begin(), ex.end());
        const std::vector<size_t> top = kgag::TopKIndicesWhere(
            std::span<const double>(scores[req_group[j]]), r.k, [&](size_t i) {
              return !std::binary_search(ex.begin(), ex.end(),
                                         static_cast<kgag::ItemId>(i));
            });
        for (size_t i : top) {
          result.items.push_back(static_cast<kgag::ItemId>(i));
          result.scores.push_back(scores[req_group[j]][i]);
        }
        topk_us.push_back(Since(t0) * 1e6);
      }
      const Clock::time_point t0 = Clock::now();
      Spans::Scope s(spans, "serve.wire_encode", req_id + j);
      const std::vector<uint8_t> frame = EncodeTopKResponse(result);
      enc_us.push_back(Since(t0) * 1e6);
      wire_bytes[wire_bytes.size() - decoded.size() + j] += 4.0 + frame.size();
    }
    req_id += decoded.size();
    batch_us.push_back(Since(batch_t0) * 1e6);
  }
  report->Add("tensor.sp_gemm_us", Median(gemm_us), "us");
  report->Add("tensor.sp_gemm_gflops", Median(gflops), "GFLOP/s");
  report->Add("tensor.sp_gemm_gbs", Median(gbs), "GB/s");
  const double roof =
      std::min(gemm_peak_gflops, stream_gbs * Median(intensity));
  report->Add("tensor.sp_gemm_roofline_frac", Median(gflops) / roof, "ratio");
  report->Add("serve.softmax_reduce_us", Median(reduce_us), "us");
  report->Add("eval.topk_us", Median(topk_us), "us");
  report->Add("serve.rep_build_us", Median(rep_us), "us");
  report->Add("serve.wire_decode_us", Median(dec_us), "us");
  report->Add("serve.wire_encode_us", Median(enc_us), "us");
  report->Add("serve.wire_bytes", Median(wire_bytes), "bytes");
  report->Add("serve.artifact_map_ms", Median(map_ms), "ms");
  return Median(batch_us);
}

void AddServerDeltas(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     uint64_t minor_faults, Report* report) {
  auto delta = [&](const std::string& k) { return Get(after, k) - Get(before, k); };
  const double batches = delta("kgag_serve_batch_size_count");
  const double requests = delta("kgag_serve_requests");
  const double hits = delta("kgag_serve_cache_hits");
  const double misses = delta("kgag_serve_cache_misses");
  report->Add("serve.batch_size_mean",
              batches > 0 ? delta("kgag_serve_batch_size_sum") / batches : 0,
              "requests");
  report->Add("serve.coalesced_ratio",
              requests > 0 ? delta("kgag_serve_coalesced_requests") / requests : 0,
              "ratio");
  report->Add("serve.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Add("serve.minor_faults_per_batch",
              batches > 0 ? static_cast<double>(minor_faults) / batches : 0,
              "faults");
  // The server exports its queue-wait HDR histogram as a summary of
  // process-lifetime quantiles; the traced load phase holds all but the
  // few set-up requests of that lifetime (count delta printed).
  std::printf("trace: queue-wait summary covers %.0f of %.0f requests\n",
              delta("kgag_serve_queue_wait_us_count"),
              Get(after, "kgag_serve_queue_wait_us_count"));
  report->Add("serve.queue_wait_p50_us",
              Get(after, "kgag_serve_queue_wait_us{quantile=\"0.5\"}"), "us");
  report->Add("serve.queue_wait_p99_us",
              Get(after, "kgag_serve_queue_wait_us{quantile=\"0.99\"}"), "us");
}

void MeasureReloads(const Server& server, const std::vector<TopKRequest>& probe,
                    int times, Report* report) {
  WireConn conn;
  std::vector<double> reload_ms, evictions;
  if (!conn.Connect(server.data_port())) {
    report->Fail("reload probe: connect failed");
    return;
  }
  for (int i = 0; i < times; ++i) {
    bool ok1 = false, ok2 = false;
    const double before =
        server.Metrics(&ok1)["kgag_serve_cache_epoch_evictions"];
    const Clock::time_point t0 = Clock::now();
    if (!server.Reload()) report->Fail("reload failed");
    reload_ms.push_back(Since(t0) * 1e3);
    for (const TopKRequest& r : probe) conn.Send(r);
    for (size_t j = 0; j < probe.size(); ++j) {
      kgag::serve::WireResponse resp;
      if (!conn.Recv(&resp)) report->Fail("reload probe: no answer");
    }
    evictions.push_back(
        server.Metrics(&ok2)["kgag_serve_cache_epoch_evictions"] - before);
  }
  report->Add("serve.reload_ms", Median(reload_ms), "ms");
  report->Add("serve.cache_epoch_evictions", Median(evictions), "entries");
}

void ReplayOnline(OnlineWorld* ow, int windows, Spans* spans,
                  Report* report) {
  namespace fs = std::filesystem;
  kgag::online::OnlineTrainer& trainer = *ow->trainer;
  const std::string scratch = ow->ckpt_dir + "_replay";
  fs::create_directories(scratch);
  std::vector<double> apply_us, compact_ms, finetune_ms, freeze_ms,
      publish_ms, save_ms, refresh_ms;
  for (int w = 0; w < windows; ++w) {
    Spans::Scope window(spans, "online.window", static_cast<uint64_t>(w));
    const uint64_t expected = ow->CountNewPairs(ow->window);
    Clock::time_point t0 = Clock::now();
    {
      Spans::Scope s(spans, "online.apply_events", static_cast<uint64_t>(w));
      if (trainer.ApplyEvents(ow->window) != expected) {
        report->Fail("ApplyEvents accepted count differs from the stream");
      }
    }
    apply_us.push_back(Since(t0) * 1e6);
    {
      const kgag::GroupRecDataset& ds = trainer.dataset();
      std::vector<std::pair<int32_t, int32_t>> base;
      for (const kgag::Interaction& it : ds.user_item.ToPairs()) {
        base.emplace_back(it.row, it.item);
      }
      t0 = Clock::now();
      Spans::Scope s(spans, "online.compact", static_cast<uint64_t>(w));
      kgag::Result<kgag::CollaborativeKg> ckg = trainer.delta().Compact(
          ds.kg_triples, ds.num_entities, ds.num_relations, base);
      compact_ms.push_back(Since(t0) * 1e3);
      if (!ckg.ok()) report->Fail("compact: " + ckg.status().ToString());
    }
    t0 = Clock::now();
    kgag::Result<kgag::online::RefreshReport> r = [&] {
      Spans::Scope s(spans, "online.refresh", static_cast<uint64_t>(w));
      return trainer.Refresh();
    }();
    refresh_ms.push_back(Since(t0) * 1e3);
    if (!r.ok()) {
      report->Fail("refresh: " + r.status().ToString());
      return;
    }
    finetune_ms.push_back(r->train_micros / 1e3);
    if (!CheckNewEdges(r->new_edges, expected).empty()) {
      report->Fail(CheckNewEdges(r->new_edges, expected));
    }
    // The refresh's freeze, publish and checkpoint steps, replayed one
    // by one on the refreshed model.
    t0 = Clock::now();
    kgag::Result<kgag::serve::FrozenModel> frozen = [&] {
      Spans::Scope s(spans, "online.freeze", static_cast<uint64_t>(w));
      return kgag::serve::FreezeKgagModel(trainer.mutable_model());
    }();
    freeze_ms.push_back(Since(t0) * 1e3);
    if (!frozen.ok()) {
      report->Fail("freeze: " + frozen.status().ToString());
      return;
    }
    t0 = Clock::now();
    {
      Spans::Scope s(spans, "online.publish", static_cast<uint64_t>(w));
      const kgag::Status st =
          kgag::serve::SaveFrozenModelV2(*frozen, scratch + "/artifact.srv2");
      if (!st.ok()) report->Fail("publish: " + st.ToString());
    }
    publish_ms.push_back(Since(t0) * 1e3);
    t0 = Clock::now();
    {
      Spans::Scope s(spans, "ckpt.save", static_cast<uint64_t>(w));
      kgag::ckpt::CheckpointManager mgr({.dir = scratch + "/ckpt"});
      const kgag::Status st = mgr.Save(trainer.model().CaptureTrainingState(
          trainer.model().epoch_losses().size(), false, 0, 0.0, nullptr));
      if (!st.ok()) report->Fail("ckpt save: " + st.ToString());
    }
    save_ms.push_back(Since(t0) * 1e3);
  }
  report->Add("online.apply_events_us", Median(apply_us), "us");
  report->Add("online.compact_ms", Median(compact_ms), "ms");
  report->Add("online.finetune_ms", Median(finetune_ms), "ms");
  report->Add("online.freeze_ms", Median(freeze_ms), "ms");
  report->Add("online.publish_ms", Median(publish_ms), "ms");
  report->Add("ckpt.save_ms", Median(save_ms), "ms");
  std::printf("trace: online refresh (whole Refresh call) median %.2f ms\n",
              Median(refresh_ms));
}

void ReplayTraining(const OnlineWorld& ow, uint64_t seed, Spans* spans,
                    Report* report) {
  using namespace kgag;
  const GroupRecDataset& ds = ow.trainer->dataset();
  const KgagConfig& cfg = ow.config;
  std::vector<std::pair<int32_t, int32_t>> pairs;
  for (const Interaction& it : ds.user_item.ToPairs()) pairs.emplace_back(it.row, it.item);
  Result<CollaborativeKg> ckg =
      BuildCollaborativeKg(ds.kg_triples, ds.num_entities, ds.num_relations,
                           ds.num_users, ds.item_to_entity, pairs);
  if (!ckg.ok()) {
    report->Fail("training replay: " + ckg.status().ToString());
    return;
  }
  const int d = cfg.propagation.dim;
  Rng init(cfg.seed);
  ParameterStore store;
  Parameter* entity = store.Create("entity_emb", ckg->graph.num_entities(), d,
                                   Init::kNormal01, &init);
  PropagationEngine prop(&ckg->graph, entity, &store, cfg.propagation, &init);
  PreferenceAggregator agg(d, ds.group_size, cfg.use_sp, cfg.use_pi, &store, &init);
  Adam optimizer(cfg.learning_rate);
  Tape tape(cfg.tape_arena);
  GradBuffer grads(&store);
  tape.set_grad_sink(&grads);

  // A group-item score on the tape, as KgagModel's training path builds
  // it: members propagated with the item as query, the item with the
  // mean member embedding, then the preference aggregator.
  auto score = [&](GroupId g, ItemId v, Rng* rng, uint64_t id) {
    const auto members = ds.groups.MembersOf(g);
    const EntityId item_entity = ckg->ItemEntity(v);
    Var query = tape.Gather(entity, {static_cast<size_t>(item_entity)});
    std::vector<size_t> nodes;
    std::vector<Var> rows;
    for (UserId u : members) {
      nodes.push_back(static_cast<size_t>(ckg->UserNode(u)));
      SampledTree tree = [&] {
        Spans::Scope s(spans, "kg.sample_tree", id);
        return prop.SampleTree(static_cast<EntityId>(nodes.back()), rng);
      }();
      Spans::Scope s(spans, "models.propagate", id);
      rows.push_back(prop.PropagateOnTape(&tape, tree, query));
    }
    SampledTree item_tree = [&] {
      Spans::Scope s(spans, "kg.sample_tree", id);
      return prop.SampleTree(item_entity, rng);
    }();
    Var item_rep;
    {
      Spans::Scope s(spans, "models.propagate", id);
      Var member_reps = tape.ConcatRows(rows);
      Var item_query = tape.MeanRows(tape.Gather(entity, nodes));
      item_rep = prop.PropagateOnTape(&tape, item_tree, item_query);
      rows.assign(1, member_reps);
    }
    Spans::Scope s(spans, "models.attention", id);
    Var group = agg.AggregateOnTape(&tape, rows[0], item_rep);
    return tape.DotAll(group, item_rep);
  };

  const size_t kExamples = 256;
  const size_t batch = cfg.batch_size;
  std::vector<double> reduce_us, step_us;
  for (size_t e = 0; e < kExamples; ++e) {
    const GroupId g = static_cast<GroupId>(
        Mix(seed, 40, e) % static_cast<uint64_t>(ds.groups.num_groups()));
    const auto seen = ds.group_item.ItemsOf(g);
    const ItemId pos = seen.empty()
                           ? static_cast<ItemId>(Mix(seed, 41, e) % ds.num_items)
                           : seen[Mix(seed, 41, e) % seen.size()];
    ItemId neg = static_cast<ItemId>(Mix(seed, 42, e) % ds.num_items);
    while (std::find(seen.begin(), seen.end(), neg) != seen.end()) {
      neg = (neg + 1) % ds.num_items;
    }
    Rng rng(Mix(seed, 43, e));
    {
      Spans::Scope ex(spans, "train.example", e);
      tape.Clear();
      Var p = score(g, pos, &rng, e);
      Var n = score(g, neg, &rng, e);
      Var loss;
      {
        Spans::Scope s(spans, "models.loss", e);
        loss = tape.ScalarMul(MarginPairLoss(&tape, p, n, cfg.margin),
                              cfg.beta / static_cast<double>(batch));
      }
      Spans::Scope s(spans, "tensor.backward", e);
      tape.Backward(loss);
    }
    if ((e + 1) % batch == 0) {
      Clock::time_point t0 = Clock::now();
      {
        Spans::Scope s(spans, "tensor.grad_reduce", e / batch);
        grads.FlushInto();
        grads.Reset();
      }
      reduce_us.push_back(Since(t0) * 1e6);
      t0 = Clock::now();
      {
        Spans::Scope s(spans, "tensor.optimizer_step", e / batch);
        optimizer.Step(&store, cfg.l2);
      }
      step_us.push_back(Since(t0) * 1e6);
    }
  }
  auto per_example = [&](const char* name) {
    return Median(spans->SumsByReq(name));
  };
  report->Add("kg.sample_tree_us", per_example("kg.sample_tree"), "us");
  report->Add("models.propagate_us", per_example("models.propagate"), "us");
  report->Add("models.attention_us", per_example("models.attention"), "us");
  report->Add("models.loss_us", per_example("models.loss"), "us");
  report->Add("tensor.backward_us", per_example("tensor.backward"), "us");
  report->Add("tensor.grad_reduce_us", Median(reduce_us), "us");
  report->Add("tensor.optimizer_step_us", Median(step_us), "us");
  const double replay_example_us = Median(spans->Durations("train.example"));

  // TrainEpoch throughput at 1 and nproc threads on the same world.
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  double rate[2] = {0, 0};
  for (int side = 0; side < 2; ++side) {
    KgagConfig c = cfg;
    c.pairs_per_epoch = 256;
    c.train_threads = side == 0 ? 1 : nproc;
    Result<std::unique_ptr<KgagModel>> model = KgagModel::Create(&ds, c);
    if (!model.ok()) {
      report->Fail("speedup model: " + model.status().ToString());
      return;
    }
    Rng rng(c.seed);
    (*model)->TrainEpoch(&rng);  // warm-up: pools, arenas, eval caches
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t before = CounterValue("train.examples");
      const Clock::time_point t0 = Clock::now();
      (*model)->TrainEpoch(&rng);
      rates.push_back((CounterValue("train.examples") - before) / Since(t0));
    }
    rate[side] = Median(rates);
  }
  report->Add("train.threads_speedup", rate[0] > 0 ? rate[1] / rate[0] : 0, "x");
  std::printf(
      "trace: TrainEpoch %.0f examples/s at 1 thread (%.1f us/example), "
      "%.0f at %d threads; replayed example (group triplet) %.1f us\n",
      rate[0], rate[0] > 0 ? 1e6 / rate[0] : 0, rate[1], nproc,
      replay_example_us);
}

void AddUnattributed(double e2e_p50_ms, double replay_batch_us,
                     Report* report) {
  const double queue_us = MetricValue(*report, "serve.queue_wait_p50_us");
  const double traced_us = queue_us + replay_batch_us;
  std::printf(
      "trace: end-to-end median %.1f us (untraced load phase) vs queue wait "
      "%.1f us + replayed batch %.1f us (traced) = %.1f us\n",
      e2e_p50_ms * 1e3, queue_us, replay_batch_us, traced_us);
  report->Add("serve.unattributed_us", e2e_p50_ms * 1e3 - traced_us, "us");
}

}  // namespace e2e
