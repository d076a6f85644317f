// Concurrency coverage for the async Engine (DESIGN.md §11): the stress
// test drives K client threads of Ingest/Estimate/Flush against 4 tables
// and pins the linearization contract — a single-threaded replay of the
// same per-table row stream yields byte-identical final model state — and
// the determinism test pins the synchronous engine to the raw
// DdupController loop (the pre-concurrency baseline semantics).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "common/rng.h"
#include "estimate_helpers.h"
#include "gtest/gtest.h"
#include "io/serializer.h"
#include "workload/query.h"

namespace ddup::api {
namespace {

// Small conditional table (categorical x, numeric y); swapping the
// conditional means creates honest OOD batches.
storage::Table MakeConditional(double m0, double m1, int64_t n,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    codes.push_back(static_cast<int32_t>(k));
    y.push_back(std::clamp(rng.Normal(k == 0 ? m0 : m1, 3.0), 0.0, 100.0));
  }
  storage::Table t("cond");
  t.AddColumn(storage::Column::Categorical("x", codes, {"k0", "k1"}));
  t.AddColumn(storage::Column::Numeric("y", y));
  return t;
}

// MDN only: its estimate path is pure (no sampler RNG), so estimates
// hammering the published snapshots cannot perturb replay identity.
ModelSpec FastMdnSpec() {
  return {"mdn",
          {{"num_components", "4"},
           {"hidden_width", "16"},
           {"epochs", "2"},
           {"seed", "3"}}};
}

ModelSpec FastDarnSpec() {
  return {"darn",
          {{"hidden_width", "24"},
           {"max_bins", "12"},
           {"epochs", "2"},
           {"seed", "5"}}};
}

ModelSpec FastSpnSpec() {
  return {"spn",
          {{"min_instances_slice", "64"}, {"max_bins", "16"}, {"seed", "7"}}};
}

EngineConfig FastEngineConfig(int64_t micro_batch, int update_workers) {
  EngineConfig config;
  config.micro_batch_rows = micro_batch;
  config.update_workers = update_workers;
  config.controller.detector.bootstrap_iterations = 16;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  return config;
}

workload::Query AqpRangeQuery(double lo, double hi) {
  workload::Query q;
  workload::Predicate eq;
  eq.column = 0;
  eq.op = workload::CompareOp::kEq;
  eq.value = 0.0;
  workload::Predicate ge;
  ge.column = 1;
  ge.op = workload::CompareOp::kGe;
  ge.value = lo;
  workload::Predicate le;
  le.column = 1;
  le.op = workload::CompareOp::kLe;
  le.value = hi;
  q.predicates = {eq, ge, le};
  return q;
}

// The number of InsertionReports a FlushAll sweep handed back.
int64_t ReportCount(const FlushReport& sweep) {
  int64_t n = 0;
  for (const auto& [table, reports] : sweep.reports) {
    n += static_cast<int64_t>(reports.size());
  }
  return n;
}

std::string ModelStateBytes(Engine* engine, const std::string& table) {
  core::UpdatableModel* model = engine->model(table);
  EXPECT_NE(model, nullptr);
  if (model == nullptr) return "";
  io::Serializer out;
  Status st = model->SaveState(&out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.Take();
}

// The deterministic per-table op stream the stress test and its replay
// share: chunk sizes in arrival order, with a Flush after the marked
// chunks. 460 rows against a 120-row micro-batch => full batches flush in
// the background, remainders at the flush points.
constexpr int64_t kChunkSizes[] = {37, 64, 101, 23, 55, 48, 72, 60};
constexpr size_t kNumChunks = sizeof(kChunkSizes) / sizeof(kChunkSizes[0]);
constexpr size_t kFlushAfter[] = {3, 7};  // chunk indices

bool FlushAfterChunk(size_t chunk) {
  for (size_t f : kFlushAfter) {
    if (f == chunk) return true;
  }
  return false;
}

// Runs one table's full op stream against `engine`. The chunk contents are
// derived only from (table_index, chunk_index), so any two runs see the
// same rows in the same order. Alternates means so some batches are OOD.
void RunStream(Engine* engine, const std::string& table, int table_index) {
  for (size_t c = 0; c < kNumChunks; ++c) {
    double m0 = c % 2 == 0 ? 25.0 : 70.0;
    double m1 = c % 2 == 0 ? 75.0 : 30.0;
    uint64_t seed = 1000 + static_cast<uint64_t>(table_index) * 100 + c;
    auto result = engine->Ingest(
        table, MakeConditional(m0, m1, kChunkSizes[c], seed));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (FlushAfterChunk(c)) {
      auto flushed = engine->Flush(table);
      ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    }
  }
}

TEST(EngineConcurrencyTest, StressedAsyncEngineMatchesSyncReplay) {
  constexpr int kTables = 4;
  std::vector<std::string> names;
  for (int t = 0; t < kTables; ++t) names.push_back("t" + std::to_string(t));

  // --- Concurrent run: 4 ingest threads + 2 estimate hammers ------------
  Engine async_engine(FastEngineConfig(120, /*update_workers=*/2));
  for (int t = 0; t < kTables; ++t) {
    storage::Table base =
        MakeConditional(25, 75, 240, 10 + static_cast<uint64_t>(t));
    ASSERT_TRUE(async_engine.CreateTable(names[t], base).ok());
    ASSERT_TRUE(async_engine.AttachModel(names[t], FastMdnSpec()).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> estimates_served{0};
  std::atomic<bool> estimate_failed{false};
  auto hammer = [&](int offset) {
    int i = offset;
    while (!done.load(std::memory_order_acquire)) {
      const std::string& table = names[static_cast<size_t>(i) % kTables];
      const workload::Query q =
          AqpRangeQuery(10.0 + (i % 5) * 8, 60.0 + (i % 4) * 10);
      auto est = async_engine.Estimate(Request(kAqp, table, {q}));
      if (!est.ok() || !std::isfinite(est.value().answers[0])) {
        estimate_failed.store(true);
      } else {
        estimates_served.fetch_add(1);
      }
      // Reports must always be coherent mid-update: a torn read would show
      // an impossible counter mix or an out-of-enum state.
      auto report = async_engine.Report(table);
      if (!report.ok() ||
          report.value().insertions != report.value().ood_updates +
                                           report.value().finetunes +
                                           report.value().kept_stale) {
        estimate_failed.store(true);
      }
      ++i;
      // Yield a little: on small hosts a hot estimate loop would starve
      // the update workers the test is waiting on.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kTables; ++t) {
    threads.emplace_back(
        [&, t] { RunStream(&async_engine, names[t], t); });
  }
  threads.emplace_back(hammer, 0);
  threads.emplace_back(hammer, 1);
  for (int t = 0; t < kTables; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  threads[kTables].join();
  threads[kTables + 1].join();

  auto sweep = async_engine.FlushAll();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(ReportCount(sweep.value()), sweep.value().updates_triggered);
  EXPECT_FALSE(estimate_failed.load());
  EXPECT_GT(estimates_served.load(), 0);

  // --- Single-threaded replay of the same per-table streams -------------
  Engine sync_engine(FastEngineConfig(120, /*update_workers=*/0));
  for (int t = 0; t < kTables; ++t) {
    storage::Table base =
        MakeConditional(25, 75, 240, 10 + static_cast<uint64_t>(t));
    ASSERT_TRUE(sync_engine.CreateTable(names[t], base).ok());
    ASSERT_TRUE(sync_engine.AttachModel(names[t], FastMdnSpec()).ok());
    RunStream(&sync_engine, names[t], t);
  }
  auto sync_sweep = sync_engine.FlushAll();
  ASSERT_TRUE(sync_sweep.ok());
  EXPECT_EQ(ReportCount(sync_sweep.value()),
            sync_sweep.value().updates_triggered);

  // --- Identical final state on every axis ------------------------------
  for (int t = 0; t < kTables; ++t) {
    SCOPED_TRACE(names[t]);
    // Model weights, metadata and RNG stream, byte for byte.
    EXPECT_EQ(ModelStateBytes(&async_engine, names[t]),
              ModelStateBytes(&sync_engine, names[t]));

    auto a = async_engine.Report(names[t]);
    auto b = sync_engine.Report(names[t]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().rows, b.value().rows);
    EXPECT_EQ(a.value().buffered_rows, 0);
    EXPECT_EQ(a.value().insertions, b.value().insertions);
    EXPECT_EQ(a.value().ood_updates, b.value().ood_updates);
    EXPECT_EQ(a.value().finetunes, b.value().finetunes);
    EXPECT_EQ(a.value().kept_stale, b.value().kept_stale);
    EXPECT_EQ(a.value().bootstrap_mean, b.value().bootstrap_mean);
    EXPECT_EQ(a.value().bootstrap_std, b.value().bootstrap_std);
    EXPECT_GT(a.value().async_batches, 0);
    EXPECT_GE(a.value().queue_seconds, 0.0);
    EXPECT_GT(a.value().snapshot_publishes, 0);

    for (int i = 0; i < 6; ++i) {
      workload::Query q = AqpRangeQuery(5.0 + i * 7, 55.0 + i * 6);
      auto ea = async_engine.Estimate(Request(kAqp, names[t], {q}));
      auto eb = sync_engine.Estimate(Request(kAqp, names[t], {q}));
      ASSERT_TRUE(ea.ok() && eb.ok());
      EXPECT_EQ(ea.value().answers, eb.value().answers);
    }

    // Both quiesced engines make the same *future* detect decision with
    // the same statistic — the detector and controller RNG streams stayed
    // in lockstep too. 110 rows < micro-batch, so on both engines the
    // probe buffers at Ingest and surfaces as exactly one Flush report.
    storage::Table probe =
        MakeConditional(70, 30, 110, 9000 + static_cast<uint64_t>(t));
    ASSERT_TRUE(async_engine.Ingest(names[t], probe).ok());
    ASSERT_TRUE(sync_engine.Ingest(names[t], probe).ok());
    auto fa = async_engine.Flush(names[t]);
    auto fb = sync_engine.Flush(names[t]);
    ASSERT_TRUE(fa.ok() && fb.ok());
    ASSERT_EQ(fa.value().reports.size(), 1u);
    ASSERT_EQ(fb.value().reports.size(), 1u);
    EXPECT_EQ(fa.value().reports[0].test.statistic,
              fb.value().reports[0].test.statistic);
    EXPECT_EQ(fa.value().reports[0].test.is_ood,
              fb.value().reports[0].test.is_ood);
    EXPECT_EQ(fa.value().reports[0].action, fb.value().reports[0].action);
  }
}

// Pins the synchronous engine (update_workers = 0, the default) to the raw
// DdupController loop — the pre-concurrency engine semantics. DDUP_THREADS=1
// keeps the whole process serial; under that pin this test demonstrates the
// refactor left the single-threaded path byte-identical.
TEST(EngineConcurrencyTest, SyncEngineMatchesRawControllerLoop) {
  constexpr int64_t kMicroBatch = 100;
  storage::Table base = MakeConditional(25, 75, 300, 77);

  EngineConfig config = FastEngineConfig(kMicroBatch, /*update_workers=*/0);
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  StatusOr<std::unique_ptr<core::UpdatableModel>> raw_model =
      ModelFactory::Global().Create(FastMdnSpec().kind, base,
                                    FastMdnSpec().options);
  ASSERT_TRUE(raw_model.ok());
  core::DdupController controller(raw_model.value().get(), base,
                                  config.controller);

  // 330 rows in odd chunks through the engine; the raw loop sees the same
  // rows re-sliced at the micro-batch boundaries the engine must produce.
  storage::Table stream = MakeConditional(70, 30, 330, 78);
  for (int64_t at = 0; at < 330; at += 110) {
    std::vector<int64_t> rows;
    for (int64_t r = at; r < at + 110; ++r) rows.push_back(r);
    ASSERT_TRUE(engine.Ingest("t", stream.TakeRows(rows)).ok());
  }
  ASSERT_TRUE(engine.Flush("t").ok());
  for (int64_t at = 0; at < 330; at += kMicroBatch) {
    std::vector<int64_t> rows;
    for (int64_t r = at; r < std::min<int64_t>(330, at + kMicroBatch); ++r) {
      rows.push_back(r);
    }
    ASSERT_TRUE(controller.HandleInsertion(stream.TakeRows(rows)).ok());
  }

  io::Serializer raw_bytes;
  ASSERT_TRUE(raw_model.value()->SaveState(&raw_bytes).ok());
  io::Serializer engine_bytes;
  ASSERT_TRUE(engine.model("t")->SaveState(&engine_bytes).ok());
  EXPECT_EQ(engine_bytes.Take(), raw_bytes.Take());

  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, controller.data().num_rows());
  EXPECT_EQ(report.value().bootstrap_mean,
            controller.detector().bootstrap_mean());
  EXPECT_EQ(report.value().bootstrap_std,
            controller.detector().bootstrap_std());
}

TEST(EngineConcurrencyTest, AsyncLifecycleStateMachineAndFlushSemantics) {
  Engine engine(FastEngineConfig(120, /*update_workers=*/1));
  storage::Table base = MakeConditional(25, 75, 240, 5);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  // AttachModel published the initial serving snapshot.
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().snapshot_publishes, 1);
  EXPECT_EQ(report.value().state, TableServingState::kServing);
  EXPECT_STREQ(ToString(TableServingState::kServing), "SERVING");
  EXPECT_STREQ(ToString(TableServingState::kUpdating), "UPDATING");
  EXPECT_STREQ(ToString(TableServingState::kDraining), "DRAINING");

  // Sub-threshold trickle: buffered, nothing enqueued.
  auto trickle = engine.Ingest("t", MakeConditional(25, 75, 50, 6));
  ASSERT_TRUE(trickle.ok());
  EXPECT_EQ(trickle.value().rows_buffered, 50);
  EXPECT_EQ(trickle.value().rows_enqueued, 0);
  EXPECT_TRUE(trickle.value().reports.empty());

  // Over-threshold ingest: batches hand off to the worker, the call
  // returns without reports (they have not run yet).
  auto big = engine.Ingest("t", MakeConditional(25, 75, 250, 7));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().rows_enqueued, 240);  // two 120-row micro-batches
  EXPECT_EQ(big.value().rows_buffered, 60);
  EXPECT_EQ(big.value().rows_flushed, 0);
  EXPECT_TRUE(big.value().reports.empty());

  // Flush drains the strand and returns every completed report: the two
  // enqueued micro-batches plus the 60-row remainder.
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().rows_flushed, 300);
  EXPECT_EQ(flushed.value().rows_buffered, 0);
  ASSERT_EQ(flushed.value().reports.size(), 3u);
  EXPECT_EQ(flushed.value().reports[0].new_rows, 120);
  EXPECT_EQ(flushed.value().reports[1].new_rows, 120);
  EXPECT_EQ(flushed.value().reports[2].new_rows, 60);
  // Async loop accounting: every batch ran on the worker, each republished
  // the serving snapshot, and the queue-wait aggregate is sane.
  report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().async_batches, 3);
  EXPECT_EQ(report.value().snapshot_publishes, 4);  // initial + 3 batches
  EXPECT_GE(report.value().queue_seconds, 0.0);
  EXPECT_EQ(report.value().backlog_batches, 0);
  EXPECT_EQ(report.value().state, TableServingState::kServing);
  EXPECT_EQ(report.value().rows, 540);

  // Empty flush short-circuits: no rows, no reports, no update-path work.
  auto empty = engine.Flush("t");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().rows_flushed, 0);
  EXPECT_TRUE(empty.value().reports.empty());

  // Hostile values are refused at the call, before anything is buffered or
  // enqueued (250 rows would have queued two micro-batches).
  for (bool numeric : {true, false}) {
    storage::Table hostile = MakeConditional(25, 75, 250, 8);
    if (numeric) {
      (*hostile.mutable_column(1)->mutable_numeric_values())[7] = std::nan("");
    } else {
      (*hostile.mutable_column(0)->mutable_codes())[7] = 5;
    }
    auto refused = engine.Ingest("t", hostile);
    ASSERT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("row 7"), std::string::npos);
    auto after = engine.Report("t");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().buffered_rows, 0);
    EXPECT_EQ(after.value().backlog_batches, 0);
    EXPECT_EQ(after.value().rows, 540);
  }

  // Hostile predicate values are refused before any snapshot is read, on
  // every model kind and in a join.
  for (const auto& [name, spec] :
       {std::pair{"darn", FastDarnSpec()}, std::pair{"spn", FastSpnSpec()}}) {
    ASSERT_TRUE(engine.CreateTable(name, MakeConditional(25, 75, 300, 4)).ok());
    ASSERT_TRUE(engine.AttachModel(name, spec).ok()) << name;
  }
  ExpectHostileQueriesRefused(engine, kAqp, "t", AqpRangeQuery(0, 100));
  ExpectHostileQueriesRefused(engine, kCard, "darn", AqpRangeQuery(0, 100));
  ExpectHostileQueriesRefused(engine, kCard, "spn", AqpRangeQuery(0, 100));
  ExpectHostileJoinRefused(engine, "darn", "spn");

  // FlushAll returns the reports it collected: two batches that ran in the
  // background plus the flushed remainder, keyed by table.
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 250, 9)).ok());
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep.value().updates_triggered, 3);
  EXPECT_EQ(ReportCount(sweep.value()), 3);
  ASSERT_EQ(sweep.value().reports.at("t").size(), 3u);
  EXPECT_EQ(sweep.value().reports.at("t")[2].new_rows, 10);
  auto served =
      engine.Estimate(Request(kAqp, "t", {AqpRangeQuery(10.0, 70.0)}));
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // An async engine checkpoint restores into a sync engine bit-identically
  // (Save quiesced, so there is nothing in flight to lose).
  const char* tmpdir = std::getenv("TMPDIR");
  std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                     "/engine_concurrency_test.ckpt";
  ASSERT_TRUE(engine.Save(path).ok());
  auto loaded =
      Engine::Load(path, FastEngineConfig(120, /*update_workers=*/0));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int i = 0; i < 4; ++i) {
    workload::Query q = AqpRangeQuery(10.0 + i * 9, 70.0 + i * 3);
    auto a = engine.Estimate(Request(kAqp, "t", {q}));
    auto b = loaded.value()->Estimate(Request(kAqp, "t", {q}));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddup::api
