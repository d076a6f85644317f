#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/model_factory.h"
#include "api/router.h"
#include "common/rng.h"
#include "core/controller.h"
#include "core/detector_zoo.h"
#include "core/policies.h"
#include "exec/estimator_engine.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/pool.h"
#include "serving/cluster.h"
#include "span.h"
#include "storage/sampling.h"
#include "storage/stats.h"

namespace ledger {

using ddup::api::Engine;
using ddup::api::EstimateRequest;
using ddup::core::InsertionReport;
using ddup::workload::Query;
using ddup::workload::QueryBatch;

namespace {

// Repetitions of each timed call; enough that every per-call mean averages
// hundreds of calls.
constexpr int kEstimateReps = 8;
constexpr int kGemmReps = 40;
constexpr int kUpdateReps = 2;
constexpr double kScalingSeconds = 1.0;

double MeanUs(const TraceSummary& t, const char* name) {
  auto it = t.by_name.find(name);
  return it == t.by_name.end() ? 0.0 : it->second.MeanSeconds() * 1e6;
}
double MedianUs(const TraceSummary& t, const char* name) {
  auto it = t.by_name.find(name);
  return it == t.by_name.end() ? 0.0 : it->second.MedianSeconds() * 1e6;
}
int64_t Count(const TraceSummary& t, const char* name) {
  auto it = t.by_name.find(name);
  return it == t.by_name.end() ? 0 : it->second.count;
}

EstimateRequest Single(EstimateRequest::Kind kind, const std::string& table,
                       std::vector<Query> queries) {
  EstimateRequest r;
  r.kind = kind;
  r.table = table;
  r.queries = QueryBatch(std::move(queries));
  return r;
}

double StageSeconds(const InsertionReport& r) {
  return r.detect_seconds + r.update_seconds + r.offline_refresh_seconds;
}

}  // namespace

void RunLayerWalk(RunContext* ctx, const WalkInputs& in) {
  Report* report = ctx->report;
  const Inputs& inputs = ctx->inputs;
  const double walk_start = NowSeconds();
  // A fresh engine in the set-up state: every layer below sees the same
  // models whatever the workload did to its own engine.
  auto loaded = Engine::Load(ctx->setup_checkpoint, ctx->config);
  report->CountOps("load", 1, loaded.ok() ? 0 : 1);
  if (!loaded.ok()) {
    report->Check(false, "layer walk: Load: " + loaded.status().ToString());
    return;
  }
  Engine& engine = *loaded.value();
  const auto* darn = dynamic_cast<const ddup::core::CardinalityEstimator*>(
      engine.model("ce"));
  const auto* mdn =
      dynamic_cast<const ddup::core::AqpEstimator*>(engine.model("aqp"));
  if (darn == nullptr || mdn == nullptr) {
    report->Check(false, "layer walk: served models lack estimators");
    return;
  }
  const storage::Table& census = inputs.Find("aqp").base;
  const std::vector<Query>& ce_q = inputs.ce_queries;
  const std::vector<Query>& aqp_q = inputs.aqp_queries.at("aqp");
  const auto* vectorized = ddup::exec::FindEstimatorEngine("vectorized");
  const auto* reference = ddup::exec::FindEstimatorEngine("reference");

  // Per-call spans: nn -> models -> exec -> api, same queries throughout.
  // Spans are reduced after the walk; the workload's own spans (Estimate,
  // Ingest, ...) from the measured phase are in the same trace.
  {
    ddup::nn::Matrix a(256, 256), b(256, 256), c(256, 256);
    ddup::Rng rng(inputs.seed);
    for (int i = 0; i < 256; ++i) {
      for (int j = 0; j < 256; ++j) {
        a(i, j) = rng.Uniform(-1, 1);
        b(i, j) = rng.Uniform(-1, 1);
      }
    }
    ddup::nn::GemmInto(a, b, false, &c);  // warm
    for (int r = 0; r < kGemmReps; ++r) {
      Span span("nn.GemmInto.256");
      ddup::nn::GemmInto(a, b, false, &c);
    }
  }
  std::vector<double> sink;
  for (int rep = 0; rep < kEstimateReps; ++rep) {
    for (const Query& q : ce_q) {
      {
        Span span("models.darn.TryEstimateCardinality");
        sink.push_back(darn->TryEstimateCardinality(q).value());
      }
      {
        Span span("exec.vectorized.darn_b1");
        vectorized->EstimateCardinalityBatch(*darn, QueryBatch({q}), &sink);
      }
      {
        Span span("api.Engine::Estimate.ce_b1");
        engine.Estimate(Single(EstimateRequest::Kind::kCardinality, "ce", {q}));
      }
    }
    for (const Query& q : aqp_q) {
      {
        Span span("models.mdn.TryEstimateAqp");
        sink.push_back(mdn->TryEstimateAqp(q, census).value());
      }
      {
        Span span("exec.vectorized.mdn_b1");
        vectorized->EstimateAqpBatch(*mdn, census, QueryBatch({q}), &sink);
      }
      {
        Span span("api.Engine::Estimate.aqp_b1");
        engine.Estimate(Single(EstimateRequest::Kind::kAqp, "aqp", {q}));
      }
    }
    for (size_t b = 0; b + 32 <= ce_q.size(); b += 32) {
      QueryBatch batch(std::vector<Query>(
          ce_q.begin() + static_cast<std::ptrdiff_t>(b),
          ce_q.begin() + static_cast<std::ptrdiff_t>(b + 32)));
      {
        Span span("exec.vectorized.darn_b32");
        vectorized->EstimateCardinalityBatch(*darn, batch, &sink);
      }
      {
        Span span("exec.reference.darn_b32");
        reference->EstimateCardinalityBatch(*darn, batch, &sink);
      }
    }
    {
      QueryBatch batch(std::vector<Query>(aqp_q.begin(), aqp_q.begin() + 32));
      Span span("exec.vectorized.mdn_b32");
      vectorized->EstimateAqpBatch(*mdn, census, batch, &sink);
    }
  }

  // Matrix-pool heap allocations per 1000 estimates on a warm thread.
  double allocs_per_1k = 0.0;
  {
    ddup::nn::MatrixPool::ResetAggregateCounters();
    int64_t estimates = 0;
    for (const Query& q : ce_q) {
      engine.Estimate(Single(EstimateRequest::Kind::kCardinality, "ce", {q}));
      estimates += 1;
    }
    for (const std::string& t : inputs.aqp_tables) {
      for (const Query& q : inputs.aqp_queries.at(t)) {
        engine.Estimate(Single(EstimateRequest::Kind::kAqp, t, {q}));
        estimates += 1;
      }
    }
    const auto counters = ddup::nn::MatrixPool::AggregateCounters();
    allocs_per_1k = static_cast<double>(counters.heap_allocs) * 1000.0 /
                    static_cast<double>(estimates);
  }

  // Router: each join request against its planned per-table subqueries.
  {
    ddup::api::QueryRouter router(&engine);
    for (int rep = 0; rep < kEstimateReps; ++rep) {
      for (const auto& jq : inputs.joins.queries) {
        auto plan = router.Plan(jq);
        if (!plan.ok()) {
          report->Check(false, "layer walk: join plan failed");
          break;
        }
        {
          Span span("api.Engine::Estimate.join");
          EstimateRequest r;
          r.joins.Add(jq);
          engine.Estimate(r);
        }
        Span span("api.join_subqueries");
        for (const auto& sub : plan.value().subqueries) {
          engine.Estimate(Single(EstimateRequest::Kind::kCardinality,
                                 sub.table, {sub.query}));
        }
      }
    }
  }

  // Cluster at one shard against the Engine it fronts, on one MDN table.
  {
    ddup::serving::ClusterConfig cc;
    cc.shards = 1;
    cc.engine = ctx->config;
    ddup::serving::Cluster cluster(cc);
    const FixtureTable& t = inputs.Find("aqp");
    bool ok = cluster.CreateTable(t.name, t.base).ok() &&
              cluster.AttachModel(t.name, t.spec).ok();
    report->Check(ok, "layer walk: cluster set-up");
    for (int rep = 0; ok && rep < kEstimateReps; ++rep) {
      for (const Query& q : aqp_q) {
        EstimateRequest r = Single(EstimateRequest::Kind::kAqp, t.name, {q});
        {
          Span span("serving.Cluster::Estimate");
          cluster.Estimate(r);
        }
        Span span("api.Engine::Estimate.shard");
        cluster.shard(0)->Estimate(r);
      }
    }
  }

  // Scaling of the read mix: nproc clients against one.
  double scaling = 0.0;
  {
    ReadExpectations expect = ScalarExpectations(&engine, inputs, report);
    double wall1 = 0.0, walln = 0.0;
    ReadSamples one =
        RunReadMix(engine, inputs, expect, 1, kScalingSeconds, &wall1);
    const int n = std::max(1, ctx->options.nproc);
    ReadSamples many =
        RunReadMix(engine, inputs, expect, n, kScalingSeconds, &walln);
    report->Check(one.wrong == 0 && many.wrong == 0,
                  "layer walk: read-mix answers");
    const double qps1 = static_cast<double>(one.answers) / wall1;
    const double qpsn = static_cast<double>(many.answers) / walln;
    scaling = qpsn / (n * qps1);
  }

  // Update path: models, core, api, storage, io — on clones of the set-up
  // models, fed the workload's drift stream.
  const Stream& stream = *in.stream;
  const auto& policy = ctx->config.controller.policy;
  int64_t ood_batches = 0;
  std::map<std::string, std::vector<bool>> replay_ood;
  for (const std::string& table : {std::string("ce"), std::string("aqp")}) {
    const FixtureTable& t = inputs.Find(table);
    const ddup::core::UpdatableModel& live = *engine.model(table);
    // api::CloneModel — the snapshot publish.
    for (int rep = 0; rep < kUpdateReps; ++rep) {
      Span span("api.CloneModel");
      auto copy = ddup::api::CloneModel(t.spec.kind, live);
      report->Check(copy.ok(), "layer walk: CloneModel");
    }
    // models: DistillUpdate on a drifted batch, FineTune on a clean one.
    ddup::Rng rng(inputs.seed + 7);
    for (int rep = 0; rep < kUpdateReps; ++rep) {
      auto model = ddup::api::CloneModel(t.spec.kind, live).value();
      const storage::Table& clean = stream.batches[static_cast<size_t>(rep)];
      const storage::Table& drifted =
          stream.batches[static_cast<size_t>(kCleanBatches + rep)];
      storage::Table transfer =
          ddup::storage::SampleFraction(t.base, rng, policy.transfer_fraction);
      ddup::core::DistillConfig distill = policy.distill;
      distill.alpha = ddup::core::ResolveAlpha(distill, t.base.num_rows(),
                                               drifted.num_rows());
      {
        Span span(table == "ce" ? "models.darn.DistillUpdate"
                                : "models.mdn.DistillUpdate");
        model->DistillUpdate(transfer, drifted, distill);
      }
      Span span(table == "ce" ? "models.darn.FineTune" : "models.mdn.FineTune");
      model->FineTune(clean,
                      ddup::core::ScaledFineTuneLr(policy, t.base.num_rows(),
                                                   clean.num_rows()),
                      policy.finetune_epochs);
    }
    // core: the detector alone, then the whole loop replayed.
    {
      auto detector = ddup::core::MakeDriftDetector(ctx->config.controller.detector);
      auto model = ddup::api::CloneModel(t.spec.kind, live).value();
      for (int rep = 0; rep < 2 * kUpdateReps; ++rep) {
        Span span("core.DriftDetector::Fit");
        detector.value()->Fit(*model, t.base);
      }
      for (const storage::Table& batch : stream.batches) {
        Span span("core.DriftDetector::Test");
        detector.value()->Test(*model, batch);
      }
    }
    {
      auto model = ddup::api::CloneModel(t.spec.kind, live).value();
      ddup::core::ControllerConfig cc = ctx->config.controller;
      ddup::core::DdupController controller(model.get(), t.base, cc);
      for (const storage::Table& batch : stream.batches) {
        Span span("core.DdupController::HandleInsertion");
        auto r = controller.HandleInsertion(batch);
        if (!r.ok()) {
          report->Check(false, "layer walk: HandleInsertion failed");
          break;
        }
        const bool ood = r.value().action == ddup::core::UpdateAction::kDistill;
        span.Rename(ood ? "core.HandleInsertion.ood" : "core.HandleInsertion.ind");
        ood_batches += ood ? 1 : 0;
        replay_ood[table].push_back(r.value().test.is_ood);
      }
    }
    // storage: the join-stats fold per micro-batch.
    {
      ddup::storage::TableStatsBuilder builder(t.base);
      for (const storage::Table& batch : stream.batches) {
        Span span("storage.TableStatsBuilder::Absorb");
        builder.Absorb(batch);
      }
    }
  }
  // The engine ran the same decisions: DDUp is deterministic per seed, so
  // the engine's first pass over the stream must match the core replay
  // batch by batch (over the prefix both saw).
  for (const auto& [table, decisions] : replay_ood) {
    auto it = in.first_pass->find(table);
    const size_t n = it == in.first_pass->end()
                         ? 0
                         : std::min(decisions.size(), it->second.size());
    bool same = n > 0;
    for (size_t i = 0; same && i < n; ++i) {
      same = it->second[i].test.is_ood == decisions[i];
    }
    report->Check(same, "layer walk: engine drift decisions on " + table +
                            " differ from the core replay");
  }

  // io: the same set-up state under the raw codec.
  int64_t raw_bytes = 0;
  {
    ddup::api::EngineConfig raw = ctx->config;
    raw.checkpoint.codec = "raw";
    auto raw_engine = Engine::Load(ctx->setup_checkpoint, raw);
    const std::string path = ctx->options.work_dir + "/setup-raw.ckpt";
    if (raw_engine.ok() && raw_engine.value()->Save(path).ok()) {
      raw_bytes = FileBytes(path);
    }
    report->Check(raw_bytes > 0, "layer walk: raw-codec checkpoint");
  }

  // models.train_s: ModelFactory::Create for every fixture model.
  {
    for (const FixtureTable& t : inputs.tables) {
      if (!t.has_model) continue;
      Span span("models.ModelFactory::Create");
      auto model =
          ddup::api::ModelFactory::Global().Create(t.spec.kind, t.base, t.spec.options);
      report->Check(model.ok(), "layer walk: ModelFactory::Create");
    }
  }
  report->Set("ledger.walk_seconds", "s", NowSeconds() - walk_start, 1);

  // ---- Reduce ---------------------------------------------------------------
  TraceSummary trace = ReduceTrace();
  WriteTraceSummary(trace, ctx->options.work_dir + "/trace-" +
                               ctx->options.workload + ".json");
  auto set_us = [&](const char* metric, const char* span, double scale = 1.0) {
    report->Set(metric, "us", MeanUs(trace, span) * scale, Count(trace, span));
  };
  auto set_ms = [&](const char* metric, const char* span) {
    report->Set(metric, "ms", MeanUs(trace, span) / 1e3, Count(trace, span));
  };
  {
    const double s = MeanUs(trace, "nn.GemmInto.256") / 1e6;
    report->Set("nn.gemm256_gflops", "GFLOP/s",
                s > 0 ? 2.0 * 256 * 256 * 256 / s / 1e9 : 0.0,
                Count(trace, "nn.GemmInto.256"));
  }
  report->Set("nn.pool_heap_allocs_per_1k_estimates", "count", allocs_per_1k,
              1);
  set_us("models.darn.estimate_us", "models.darn.TryEstimateCardinality");
  set_us("models.mdn.estimate_us", "models.mdn.TryEstimateAqp");
  set_ms("models.darn.distill_ms", "models.darn.DistillUpdate");
  set_ms("models.mdn.distill_ms", "models.mdn.DistillUpdate");
  set_ms("models.darn.finetune_ms", "models.darn.FineTune");
  set_ms("models.mdn.finetune_ms", "models.mdn.FineTune");
  {
    auto it = trace.by_name.find("models.ModelFactory::Create");
    report->Set("models.train_s", "s",
                it == trace.by_name.end() ? 0.0 : it->second.total_seconds,
                Count(trace, "models.ModelFactory::Create"));
  }
  set_us("exec.vectorized.darn_b32_us_per_query", "exec.vectorized.darn_b32",
         1.0 / 32);
  set_us("exec.vectorized.mdn_b32_us_per_query", "exec.vectorized.mdn_b32",
         1.0 / 32);
  set_us("exec.reference.darn_b32_us_per_query", "exec.reference.darn_b32",
         1.0 / 32);
  set_us("exec.vectorized.darn_b1_us", "exec.vectorized.darn_b1");
  set_us("exec.vectorized.mdn_b1_us", "exec.vectorized.mdn_b1");
  set_ms("core.detect_ms", "core.DriftDetector::Test");
  set_ms("core.bootstrap_refresh_ms", "core.DriftDetector::Fit");
  set_ms("core.handle_insertion_ood_ms", "core.HandleInsertion.ood");
  set_ms("core.handle_insertion_ind_ms", "core.HandleInsertion.ind");
  report->Set("core.ood_batches", "count", static_cast<double>(ood_batches),
              static_cast<int64_t>(stream.batches.size()) * 2);
  report->Set("api.engine_estimate_overhead_us", "us",
              MeanUs(trace, "api.Engine::Estimate.aqp_b1") -
                  MeanUs(trace, "exec.vectorized.mdn_b1"),
              Count(trace, "api.Engine::Estimate.aqp_b1"));
  report->Set("api.engine_estimate_overhead_ce_us", "us",
              MeanUs(trace, "api.Engine::Estimate.ce_b1") -
                  MeanUs(trace, "exec.vectorized.darn_b1"),
              Count(trace, "api.Engine::Estimate.ce_b1"));
  report->Set("api.estimate_scaling_4c", "ratio", scaling, 2);
  report->Set("api.router_join_overhead_us", "us",
              MeanUs(trace, "api.Engine::Estimate.join") -
                  MeanUs(trace, "api.join_subqueries"),
              Count(trace, "api.Engine::Estimate.join"));
  set_ms("api.clone_model_ms", "api.CloneModel");
  report->Set("serving.cluster_estimate_overhead_us", "us",
              MeanUs(trace, "serving.Cluster::Estimate") -
                  MeanUs(trace, "api.Engine::Estimate.shard"),
              Count(trace, "serving.Cluster::Estimate"));
  set_us("storage.stats_absorb_us", "storage.TableStatsBuilder::Absorb");
  report->Set("io.checkpoint_raw_bytes", "bytes", static_cast<double>(raw_bytes),
              1);
  report->Set("io.checkpoint_setup_bytes", "bytes",
              static_cast<double>(FileBytes(ctx->setup_checkpoint)), 1);

  // Read ledger (batch-1, one thread, set-up models): model + exec + api
  // add up to the walk's Engine::Estimate by construction; the residual is
  // the workload's end-to-end p50 against that sum — queueing, contention
  // and the client's own loop.
  {
    const double ce_walk = MedianUs(trace, "api.Engine::Estimate.ce_b1");
    const double aqp_walk = MedianUs(trace, "api.Engine::Estimate.aqp_b1");
    const double ce_e2e = report->Get("ce_estimate_p50_us");
    const double aqp_e2e = report->Get("aqp_estimate_p50_us");
    report->Set("ledger.ce_read_residual_pct", "%",
                ce_e2e > 0 ? (ce_e2e - ce_walk) / ce_e2e * 100.0 : 0.0, 1);
    report->Set("ledger.aqp_read_residual_pct", "%",
                aqp_e2e > 0 ? (aqp_e2e - aqp_walk) / aqp_e2e * 100.0 : 0.0, 1);
  }
  // Update ledger (per micro-batch on the streamed census tables, engine
  // side): staleness = queue wait + detect + update + refresh + publish
  // (CloneModel) + residual (watcher poll granularity, locks, wake-ups).
  {
    double stage_s = 0.0, queue_s = 0.0;
    int64_t batches = 0;
    for (const std::string& table : {std::string("ce"), std::string("aqp")}) {
      auto it = in.reports->find(table);
      if (it == in.reports->end()) continue;
      for (const InsertionReport& r : it->second) {
        stage_s += StageSeconds(r);
        queue_s += r.queue_seconds;
        batches += 1;
      }
    }
    const double stages_ms = batches > 0 ? stage_s / batches * 1e3 : 0.0;
    // Same tables as the stage sums above.
    double stale_sum = 0.0;
    int64_t stale_n = 0;
    for (const std::string& table : {std::string("ce"), std::string("aqp")}) {
      auto it = in.staleness_ms.find(table);
      if (it == in.staleness_ms.end()) continue;
      for (double v : it->second) stale_sum += v;
      stale_n += static_cast<int64_t>(it->second.size());
    }
    const double stale_mean = stale_n > 0 ? stale_sum / stale_n : 0.0;
    const double queue_ms = batches > 0 ? queue_s / batches * 1e3 : 0.0;
    const double accounted =
        queue_ms + stages_ms + report->Get("api.clone_model_ms");
    report->Set("ledger.update_queue_ms", "ms", queue_ms, batches);
    report->Set("ledger.update_stages_ms", "ms", stages_ms, batches);
    report->Set("ledger.staleness_mean_ms", "ms", stale_mean, stale_n);
    report->Set("ledger.update_residual_pct", "%",
                stale_mean > 0 ? (stale_mean - accounted) / stale_mean * 100.0
                               : 0.0,
                batches);
    // Cross-check: the core replay's HandleInsertion spans against the
    // engine's own InsertionReport timers for the same batches — the
    // replay streams cycle 0, which is what the engine's first round
    // streamed (the decisions were compared batch by batch above).
    double first_stage_s = 0.0;
    int64_t first_batches = 0;
    for (const std::string& table : {std::string("ce"), std::string("aqp")}) {
      auto it = in.first_pass->find(table);
      if (it == in.first_pass->end()) continue;
      for (const InsertionReport& r : it->second) {
        first_stage_s += StageSeconds(r);
        first_batches += 1;
      }
    }
    const double first_stages_ms =
        first_batches > 0 ? first_stage_s / first_batches * 1e3 : 0.0;
    const double replay_ms =
        (MeanUs(trace, "core.HandleInsertion.ood") *
             Count(trace, "core.HandleInsertion.ood") +
         MeanUs(trace, "core.HandleInsertion.ind") *
             Count(trace, "core.HandleInsertion.ind")) /
        1e3 /
        std::max<int64_t>(1, Count(trace, "core.HandleInsertion.ood") +
                                 Count(trace, "core.HandleInsertion.ind"));
    report->Set("ledger.update_span_vs_engine_ratio", "ratio",
                first_stages_ms > 0 ? replay_ms / first_stages_ms : 0.0,
                first_batches);
  }
  report->Set("trace.spans", "count", static_cast<double>(trace.spans),
              trace.spans);
  report->Set("trace.dropped", "count", static_cast<double>(trace.dropped),
              trace.dropped);
}

}  // namespace ledger
