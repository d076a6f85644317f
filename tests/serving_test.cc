// The sharded serving layer (DESIGN.md §15): consistent-hash placement
// (deterministic, platform-stable, monotone under growth), engine-side
// admission control pinned per policy — block stalls the producer, shed
// returns the typed [admission:shed] Status without buffering, coalesce
// merges the pile into one group task with byte-identical models — the
// update-priority scheduler, cross-shard joins bit-identical to a single
// engine, the quiesce-then-save cluster checkpoint, and a TSan-able stress
// of concurrent cross-shard joins against saturated ingest.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "api/router.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "estimate_helpers.h"
#include "gtest/gtest.h"
#include "io/serializer.h"
#include "serving/admission.h"
#include "serving/cluster.h"
#include "serving/shard_map.h"
#include "storage/column.h"
#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ddup::serving {
namespace {

using api::Engine;
using api::EngineConfig;
using api::ExpectHostileJoinRefused;
using api::ExpectHostileQueriesRefused;
using api::kAqp;
using api::kCard;
using api::ModelSpec;
using api::Request;
using api::TableOptions;

// --- Shared fixtures (the engine_concurrency_test idiom) -------------------

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

std::string ModelStateBytes(core::UpdatableModel* model) {
  EXPECT_NE(model, nullptr);
  if (model == nullptr) return "";
  io::Serializer out;
  Status st = model->SaveState(&out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.Take();
}

storage::Table Dim(const std::string& name, const std::string& key,
                   int64_t n) {
  std::vector<double> keys, payload;
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<double>(i));
    payload.push_back(static_cast<double>(i % 7));
  }
  storage::Table t(name);
  t.AddColumn(storage::Column::Numeric(key, keys));
  t.AddColumn(storage::Column::Numeric("payload", payload));
  return t;
}

storage::Table Fact(int64_t rows, int64_t keys_a, int64_t keys_b) {
  std::vector<double> fk_a, fk_b, measure;
  for (int64_t i = 0; i < rows; ++i) {
    fk_a.push_back(static_cast<double>(i % keys_a));
    fk_b.push_back(static_cast<double>((i / 3) % keys_b));
    measure.push_back(static_cast<double>(i % 10));
  }
  storage::Table t("fact");
  t.AddColumn(storage::Column::Numeric("fk_a", fk_a));
  t.AddColumn(storage::Column::Numeric("fk_b", fk_b));
  t.AddColumn(storage::Column::Numeric("measure", measure));
  return t;
}

workload::JoinEdge Edge(const std::string& lt, const std::string& lc,
                        const std::string& rt, const std::string& rc) {
  workload::JoinEdge e;
  e.left_table = lt;
  e.left_column = lc;
  e.right_table = rt;
  e.right_column = rc;
  return e;
}

workload::BoundPredicate Pred(const std::string& table, int column,
                              workload::CompareOp op, double value) {
  workload::BoundPredicate p;
  p.table = table;
  p.predicate.column = column;
  p.predicate.op = op;
  p.predicate.value = value;
  return p;
}

// The star join used by the cross-shard tests: fact ⋈ dim_a ⋈ dim_b with a
// predicate on the fact table.
workload::JoinQuery StarQuery(double measure_le) {
  workload::JoinQuery q;
  q.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
             Edge("fact", "fk_b", "dim_b", "id_b")};
  q.predicates = {Pred("fact", 2, workload::CompareOp::kLe, measure_le)};
  return q;
}

std::string TempPath(const std::string& leaf) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + leaf;
}

// --- Shard map -------------------------------------------------------------

TEST(ShardMapTest, HashIsPlatformStableFnv1a) {
  // Reference values (FNV-1a 64 + fmix64 finalizer): placement must never
  // silently change — a cluster checkpoint routes tables by these bits.
  EXPECT_EQ(ShardHash(""), 17280346270528514342ull);
  EXPECT_EQ(ShardHash("a"), 9413272369427828315ull);
}

TEST(ShardMapTest, PlacementIsDeterministicInRangeAndBalanced) {
  ShardMap map(4);
  ShardMap again(4);
  std::vector<int64_t> per_shard(4, 0);
  for (int i = 0; i < 400; ++i) {
    const std::string table = "table_" + std::to_string(i);
    const int shard = map.ShardOf(table);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, again.ShardOf(table));  // order/instance independent
    per_shard[static_cast<size_t>(shard)] += 1;
  }
  // Virtual nodes keep the split far from degenerate: every shard owns a
  // real share of 400 names.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(per_shard[static_cast<size_t>(s)], 40) << "shard " << s;
  }
}

TEST(ShardMapTest, GrowthOnlyMovesTablesOntoTheNewShard) {
  ShardMap four(4);
  ShardMap five(5);
  int moved = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string table = "t" + std::to_string(i);
    const int before = four.ShardOf(table);
    const int after = five.ShardOf(table);
    if (before != after) {
      // The consistent-hashing contract: a grown ring never moves a table
      // between two pre-existing shards.
      EXPECT_EQ(after, 4) << table << " moved " << before << "->" << after;
      ++moved;
    }
  }
  // ...and the new shard does take real ownership (≈1/5 in expectation).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 150);
}

// --- Update-priority scheduling (thread-pool layer) ------------------------

TEST(PrioritySchedulerTest, HigherPriorityStrandsRunFirst) {
  // Pause a 1-worker executor, queue strands at priorities 0/5/2, resume:
  // the worker must drain them in strict priority order.
  TaskExecutor executor(1);
  executor.Pause();
  std::vector<std::string> order;
  std::mutex order_mu;
  auto record = [&](const std::string& who) {
    return [&, who]() {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(who);
    };
  };
  executor.Submit("cold", 0, record("cold"));
  executor.Submit("hot", 5, record("hot"));
  executor.Submit("warm", 2, record("warm"));
  executor.Resume();
  executor.Drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "hot");
  EXPECT_EQ(order[1], "warm");
  EXPECT_EQ(order[2], "cold");
}

// --- Admission policies ----------------------------------------------------

TEST(AdmissionTest, RegistryAndTypedShedStatus) {
  EXPECT_EQ(RegisteredAdmissionPolicies(),
            (std::vector<std::string>{"block", "coalesce", "shed"}));
  for (const std::string& name : RegisteredAdmissionPolicies()) {
    const AdmissionPolicy* policy = FindAdmissionPolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_EQ(FindAdmissionPolicy("nope"), nullptr);
  EXPECT_EQ(std::string(kDefaultAdmissionPolicy), "block");

  Status shed = MakeShedError("t", 4, 4);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("[admission:shed]"), std::string::npos);
  EXPECT_TRUE(IsAdmissionShed(shed));
  EXPECT_FALSE(IsAdmissionShed(Status::ResourceExhausted("no tag")));
  EXPECT_FALSE(IsAdmissionShed(Status::InvalidArgument("[admission:shed]")));
  EXPECT_FALSE(IsAdmissionShed(Status::OK()));
}

TEST(AdmissionTest, UnknownPolicySurfacesOnFirstBoundedIngest) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "definitely-not-a-policy";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 1)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  auto result = engine.Ingest("t", MakeConditional(25, 75, 10, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("block, coalesce, shed"),
            std::string::npos);
}

TEST(AdmissionTest, BlockPolicyStallsTheProducerUntilAWorkerDrains) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "block";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 11)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  // Freeze the worker so saturation is deterministic, then fill the bound.
  engine.PauseUpdates();
  auto first = engine.Ingest("t", MakeConditional(25, 75, 100, 12));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().rows_enqueued, 100);
  EXPECT_EQ(first.value().backlog_batches, 1);

  // The second full batch finds the backlog at the bound: the block policy
  // stalls the CALLER (engine-side), not the caller's poll loop.
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    auto second = engine.Ingest("t", MakeConditional(25, 75, 100, 13));
    EXPECT_TRUE(second.ok()) << second.status().ToString();
    unblocked.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load(std::memory_order_acquire));
  // The stall holds the admission wait point, NOT the table mutex: reads
  // stay responsive while the producer is blocked.
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().backlog_batches, 1);
  EXPECT_EQ(report.value().sheds, 0);

  engine.ResumeUpdates();
  producer.join();
  EXPECT_TRUE(unblocked.load());
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().async_batches, 2);
  EXPECT_EQ(report.value().rows, 400);
}

TEST(AdmissionTest, ShedPolicyRefusesWithTypedStatusAndBuffersNothing) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "shed";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 21)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  engine.PauseUpdates();
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 100, 22)).ok());

  // Saturated: the call is refused whole, before any row is buffered.
  storage::Table retry_batch = MakeConditional(25, 75, 100, 23);
  auto shed = engine.Ingest("t", retry_batch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsAdmissionShed(shed.status())) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("table 't'"), std::string::npos);
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sheds, 1);
  EXPECT_EQ(report.value().buffered_rows, 0);  // nothing half-ingested

  // A shed is a refusal, not a failure: nothing goes sticky, and the same
  // batch retries cleanly once the workers drain.
  engine.ResumeUpdates();
  ASSERT_TRUE(engine.Flush("t").ok());
  auto retried = engine.Ingest("t", retry_batch);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(engine.Flush("t").ok());
  report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, 400);
  EXPECT_EQ(report.value().async_batches, 2);
  EXPECT_EQ(report.value().sheds, 1);
}

TEST(AdmissionTest, CoalesceGroupsAreByteIdenticalToUnbatchedIngest) {
  // Coalesce: one Ingest worth 4 micro-batches becomes ONE group task (one
  // queue entry, one snapshot publish) that still runs the DDUp loop once
  // per micro-batch — so the final model is byte-identical to the
  // synchronous engine eating the same stream.
  EngineConfig coalesce_config = FastEngineConfig(100, /*update_workers=*/1);
  coalesce_config.max_backlog_batches = 1;
  coalesce_config.admission_policy = "coalesce";
  Engine coalesced(coalesce_config);
  Engine unbatched(FastEngineConfig(100, /*update_workers=*/0));
  for (Engine* engine : {&coalesced, &unbatched}) {
    ASSERT_TRUE(
        engine->CreateTable("t", MakeConditional(25, 75, 200, 31)).ok());
    ASSERT_TRUE(engine->AttachModel("t", FastMdnSpec()).ok());
  }

  storage::Table stream = MakeConditional(70, 30, 400, 32);
  auto grouped = coalesced.Ingest("t", stream);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().rows_enqueued, 400);
  ASSERT_TRUE(coalesced.Flush("t").ok());
  ASSERT_TRUE(unbatched.Ingest("t", stream).ok());
  ASSERT_TRUE(unbatched.Flush("t").ok());

  auto report = coalesced.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().async_batches, 4);
  EXPECT_EQ(report.value().coalesced_groups, 1);
  // One publish for the attach, ONE for the whole group (not four).
  EXPECT_EQ(report.value().snapshot_publishes, 2);

  EXPECT_EQ(ModelStateBytes(coalesced.model("t")),
            ModelStateBytes(unbatched.model("t")));
  for (int i = 0; i < 4; ++i) {
    workload::Query q = AqpRangeQuery(5.0 + i * 9, 60.0 + i * 8);
    auto a = coalesced.Estimate(Request(kAqp, "t", {q}));
    auto b = unbatched.Estimate(Request(kAqp, "t", {q}));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
  }
}

// --- Cluster ---------------------------------------------------------------

TEST(ClusterTest, SingleShardSyncClusterIsByteIdenticalToPlainEngine) {
  // The acceptance pin: shards=1, update_workers=0, policy=block behaves
  // byte-for-byte like a bare api::Engine — the serving layer adds routing,
  // never semantics.
  ClusterConfig config;
  config.shards = 1;
  config.engine = FastEngineConfig(120, /*update_workers=*/0);
  Cluster cluster(config);
  Engine plain(FastEngineConfig(120, /*update_workers=*/0));

  storage::Table base = MakeConditional(25, 75, 240, 41);
  ASSERT_TRUE(cluster.CreateTable("t", base).ok());
  ASSERT_TRUE(plain.CreateTable("t", base).ok());
  ASSERT_TRUE(cluster.AttachModel("t", FastMdnSpec()).ok());
  ASSERT_TRUE(plain.AttachModel("t", FastMdnSpec()).ok());
  for (int c = 0; c < 4; ++c) {
    storage::Table chunk = MakeConditional(c % 2 == 0 ? 25 : 70,
                                           c % 2 == 0 ? 75 : 30, 110,
                                           50 + static_cast<uint64_t>(c));
    ASSERT_TRUE(cluster.Ingest("t", chunk).ok());
    ASSERT_TRUE(plain.Ingest("t", chunk).ok());
  }
  ASSERT_TRUE(cluster.FlushAll().ok());
  ASSERT_TRUE(plain.FlushAll().ok());

  EXPECT_EQ(cluster.num_shards(), 1);
  EXPECT_EQ(cluster.ShardOf("t"), 0);
  EXPECT_EQ(ModelStateBytes(cluster.shard(0)->model("t")),
            ModelStateBytes(plain.model("t")));
  auto a = cluster.Report("t");
  auto b = plain.Report("t");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().rows, b.value().rows);
  EXPECT_EQ(a.value().insertions, b.value().insertions);
  EXPECT_EQ(a.value().ood_updates, b.value().ood_updates);
  for (int i = 0; i < 4; ++i) {
    api::EstimateRequest request;
    request.kind = api::EstimateRequest::Kind::kAqp;
    request.table = "t";
    request.queries.Add(AqpRangeQuery(10.0 + i * 7, 65.0 + i * 5));
    auto ca = cluster.Estimate(request);
    auto cb = plain.Estimate(request);
    ASSERT_TRUE(ca.ok() && cb.ok());
    EXPECT_EQ(ca.value().answers, cb.value().answers);
  }
}

TEST(ClusterTest, CrossShardJoinsMatchTheSingleEngineAnswer) {
  ClusterConfig config;
  config.shards = 3;
  config.engine = FastEngineConfig(128, /*update_workers=*/0);
  Cluster cluster(config);
  Engine single(FastEngineConfig(128, /*update_workers=*/0));

  ASSERT_TRUE(cluster.CreateTable("fact", Fact(120, 8, 5)).ok());
  ASSERT_TRUE(cluster.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(cluster.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(cluster.AttachModel("fact", FastSpnSpec()).ok());
  ASSERT_TRUE(single.CreateTable("fact", Fact(120, 8, 5)).ok());
  ASSERT_TRUE(single.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(single.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(single.AttachModel("fact", FastSpnSpec()).ok());

  // The join must actually span shards for this test to mean anything.
  std::set<int> owners{cluster.ShardOf("fact"), cluster.ShardOf("dim_a"),
                       cluster.ShardOf("dim_b")};
  EXPECT_GE(owners.size(), 2u) << "star schema landed on one shard";

  api::EstimateRequest request;
  request.joins.Add(StarQuery(5.0));
  request.joins.Add(StarQuery(8.0));
  for (const char* combiner : {"join-uniformity", "fanout-scaling"}) {
    request.combiner = combiner;
    auto sharded = cluster.Estimate(request);
    auto merged = single.Estimate(request);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(sharded.value().answers, merged.value().answers) << combiner;
  }

  // Typed plan errors survive the shard fan-out.
  api::EstimateRequest bad;
  workload::JoinQuery unknown;
  unknown.joins = {Edge("fact", "fk_a", "nope", "id")};
  bad.joins.Add(unknown);
  auto err = cluster.Estimate(bad);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(api::PlanErrorFromStatus(err.status()),
            api::PlanError::kUnknownTable);

  // Malformed request shapes fail with the engine's exact Status: both
  // shapes set, and AQP over joins.
  api::EstimateRequest both = request;
  both.table = "fact";
  api::EstimateRequest aqp_join = request;
  aqp_join.kind = api::EstimateRequest::Kind::kAqp;
  for (const api::EstimateRequest& malformed : {both, aqp_join}) {
    auto from_cluster = cluster.Estimate(malformed);
    auto from_engine = single.Estimate(malformed);
    ASSERT_FALSE(from_cluster.ok());
    ASSERT_FALSE(from_engine.ok());
    EXPECT_EQ(from_cluster.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(from_cluster.status().code(), from_engine.status().code());
    EXPECT_EQ(from_cluster.status().message(),
              from_engine.status().message());
  }
}

TEST(ClusterTest, SurfaceRoutesAndAggregatesAcrossShards) {
  ClusterConfig config;
  config.shards = 3;
  config.engine = FastEngineConfig(100, /*update_workers=*/1);
  config.engine.max_backlog_batches = 2;
  config.engine.admission_policy = "coalesce";
  Cluster cluster(config);

  std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < names.size(); ++i) {
    TableOptions options;
    options.update_priority = static_cast<int>(i);
    ASSERT_TRUE(cluster
                    .CreateTable(names[i],
                                 MakeConditional(25, 75, 200, 60 + i),
                                 options)
                    .ok());
    ASSERT_TRUE(cluster.AttachModel(names[i], FastMdnSpec()).ok());
    EXPECT_TRUE(cluster.HasTable(names[i]));
  }
  EXPECT_FALSE(cluster.HasTable("epsilon"));
  EXPECT_EQ(cluster.TableNames(),
            (std::vector<std::string>{"alpha", "beta", "delta", "gamma"}));

  // Hostile values are refused by the owning shard before anything is
  // buffered: the table's report does not move.
  for (const std::string& name : names) {
    storage::Table inf_value = MakeConditional(25, 75, 150, 5);
    (*inf_value.mutable_column(1)->mutable_numeric_values())[3] = HUGE_VAL;
    storage::Table bad_code = MakeConditional(25, 75, 150, 5);
    (*bad_code.mutable_column(0)->mutable_codes())[3] = 2;
    for (const storage::Table& hostile : {inf_value, bad_code}) {
      auto refused = cluster.Ingest(name, hostile);
      ASSERT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(refused.status().message().find("row 3"), std::string::npos);
      auto report = cluster.Report(name);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report.value().rows, 200);
      EXPECT_EQ(report.value().buffered_rows, 0);
      EXPECT_EQ(report.value().backlog_batches, 0);
    }
    ExpectHostileQueriesRefused(cluster, kAqp, name, AqpRangeQuery(0, 100));
  }
  // So are hostile predicate values on the other model kinds, and in a
  // join the cross-shard planner refuses them as a typed plan error.
  const storage::Table card_base = MakeConditional(25, 75, 300, 4);
  for (const auto& [name, spec] :
       {std::pair{"darn", FastDarnSpec()}, std::pair{"spn", FastSpnSpec()}}) {
    ASSERT_TRUE(cluster.CreateTable(name, card_base).ok());
    ASSERT_TRUE(cluster.AttachModel(name, spec).ok()) << name;
  }
  ExpectHostileQueriesRefused(cluster, kCard, "darn", AqpRangeQuery(0, 100));
  ExpectHostileQueriesRefused(cluster, kCard, "spn", AqpRangeQuery(0, 100));
  ExpectHostileJoinRefused(cluster, "darn", "spn");

  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(
        cluster.Ingest(names[i], MakeConditional(70, 30, 150, 70 + i)).ok());
  }
  cluster.Quiesce();  // barrier only: remainders stay buffered
  auto sweep = cluster.FlushAll();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().tables_flushed, 4);
  EXPECT_EQ(sweep.value().rows_flushed, 4 * 150);
  // Every shard's reports merge into one map keyed by table.
  ASSERT_EQ(sweep.value().reports.size(), names.size());
  int64_t collected = 0;
  for (const auto& [table, reports] : sweep.value().reports) {
    collected += static_cast<int64_t>(reports.size());
  }
  EXPECT_EQ(collected, sweep.value().updates_triggered);
  for (size_t i = 0; i < names.size(); ++i) {
    auto report = cluster.Report(names[i]);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().rows, 350);
    EXPECT_EQ(report.value().update_priority, static_cast<int>(i));
    api::EstimateRequest request;
    request.kind = api::EstimateRequest::Kind::kAqp;
    request.table = names[i];
    request.queries.queries = {AqpRangeQuery(20.0, 80.0)};
    auto served = cluster.Estimate(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
}

TEST(ClusterTest, SaveQuiescesAllShardsAndRoundTrips) {
  const std::string path = TempPath("serving_test_cluster.ckpt");
  ClusterConfig config;
  config.shards = 3;
  config.engine = FastEngineConfig(100, /*update_workers=*/1);
  std::vector<std::string> names = {"orders", "customers", "parts"};
  {
    Cluster cluster(config);
    for (size_t i = 0; i < names.size(); ++i) {
      TableOptions options;
      options.update_priority = static_cast<int>(i) + 1;
      ASSERT_TRUE(cluster
                      .CreateTable(names[i],
                                   MakeConditional(25, 75, 200, 80 + i),
                                   options)
                      .ok());
      ASSERT_TRUE(cluster.AttachModel(names[i], FastMdnSpec()).ok());
      // Save with updates still queued: the cluster-level quiesce must land
      // every one of them in the checkpoint.
      ASSERT_TRUE(
          cluster.Ingest(names[i], MakeConditional(70, 30, 100, 90 + i))
              .ok());
    }
    ASSERT_TRUE(cluster.Save(path).ok());

    ClusterConfig load_config;
    load_config.engine = config.engine;
    auto loaded = Cluster::Load(path, load_config);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Cluster& restored = *loaded.value();
    EXPECT_EQ(restored.num_shards(), 3);
    EXPECT_EQ(restored.TableNames(), cluster.TableNames());
    for (const std::string& name : names) {
      // Placement (manifest ring parameters) and per-table priority
      // (engine manifest v3) both survive the round trip.
      EXPECT_EQ(restored.ShardOf(name), cluster.ShardOf(name));
      auto a = restored.Report(name);
      auto b = cluster.Report(name);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().rows, b.value().rows);
      EXPECT_EQ(a.value().update_priority, b.value().update_priority);
      for (int i = 0; i < 3; ++i) {
        api::EstimateRequest request;
        request.kind = api::EstimateRequest::Kind::kAqp;
        request.table = name;
        request.queries.Add(AqpRangeQuery(15.0 + i * 6, 70.0 + i * 4));
        auto ea = restored.Estimate(request);
        auto eb = cluster.Estimate(request);
        ASSERT_TRUE(ea.ok() && eb.ok());
        EXPECT_EQ(ea.value().answers, eb.value().answers);
      }
    }
  }
  std::remove(path.c_str());
  for (int s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// --- Stress (the TSan leg runs this under instrumentation) -----------------

TEST(ServingStressTest, ConcurrentCrossShardJoinsAgainstSaturatedIngest) {
  ClusterConfig config;
  config.shards = 2;
  config.engine = FastEngineConfig(120, /*update_workers=*/1);
  config.engine.max_backlog_batches = 1;  // saturates constantly
  config.engine.admission_policy = "shed";
  Cluster cluster(config);

  ASSERT_TRUE(cluster.CreateTable("fact", Fact(240, 8, 5)).ok());
  ASSERT_TRUE(cluster.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(cluster.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(cluster.AttachModel("fact", FastSpnSpec()).ok());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> sheds{0};
  std::atomic<int64_t> joins_served{0};

  // Producer: hammers the fact table's bounded backlog; typed sheds are
  // expected and retried, anything else is a real failure.
  std::thread producer([&] {
    for (int i = 0; i < 24; ++i) {
      auto result = cluster.Ingest("fact", Fact(120, 8, 5));
      if (!result.ok()) {
        if (IsAdmissionShed(result.status())) {
          sheds.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    }
    done.store(true, std::memory_order_release);
  });
  // Readers: cross-shard joins and reports against the saturated ingest.
  // Each runs a floor of 20 iterations (so joins always overlap SOME
  // engine state churn even if the producer finishes first) and then keeps
  // going until the producer is done.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      api::EstimateRequest request;
      request.joins.Add(StarQuery(5.0 + r));
      for (int i = 0; i < 20 || !done.load(std::memory_order_acquire); ++i) {
        auto response = cluster.Estimate(request);
        if (!response.ok() || response.value().answers.size() != 1 ||
            !std::isfinite(response.value().answers[0])) {
          failed.store(true);
        } else {
          joins_served.fetch_add(1);
        }
        auto report = cluster.Report("fact");
        if (!report.ok()) failed.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  producer.join();
  for (auto& t : readers) t.join();

  ASSERT_TRUE(cluster.FlushAll().ok());
  EXPECT_FALSE(failed.load());
  EXPECT_GT(joins_served.load(), 0);
  auto report = cluster.Report("fact");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sheds, sheds.load());
  EXPECT_EQ(report.value().backlog_batches, 0);
}

}  // namespace
}  // namespace ddup::serving
