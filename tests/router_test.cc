#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/router.h"
#include "estimate_helpers.h"
#include "gtest/gtest.h"
#include "storage/column.h"
#include "storage/table.h"
#include "workload/executor.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ddup::api {
namespace {

using workload::AggFunc;
using workload::BoundPredicate;
using workload::CompareOp;
using workload::JoinEdge;
using workload::JoinQuery;
using workload::JoinQueryBatch;

// ---------------------------------------------------------------------------
// Deterministic schemas. Dimension tables carry a unique key 0..n-1 plus a
// payload; fact tables carry foreign keys cycling over a configurable key
// range plus a small-cardinality measure, so exact join counts and NDVs are
// all computable by hand.
// ---------------------------------------------------------------------------

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

// `rows` fact rows; fk_a cycles over [0, keys_a), fk_b over [0, keys_b),
// measure over [0, 10).
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

ModelSpec FastSpnSpec() {
  return {"spn",
          {{"min_instances_slice", "64"}, {"max_bins", "16"}, {"seed", "7"}}};
}

EngineConfig FastEngineConfig(int64_t micro_batch, int update_workers = 0) {
  EngineConfig config;
  config.micro_batch_rows = micro_batch;
  config.update_workers = update_workers;
  config.controller.detector.bootstrap_iterations = 16;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  return config;
}

JoinEdge Edge(const std::string& lt, const std::string& lc,
              const std::string& rt, const std::string& rc) {
  JoinEdge e;
  e.left_table = lt;
  e.left_column = lc;
  e.right_table = rt;
  e.right_column = rc;
  return e;
}

BoundPredicate Pred(const std::string& table, int column, CompareOp op,
                    double value) {
  BoundPredicate p;
  p.table = table;
  p.predicate.column = column;
  p.predicate.op = op;
  p.predicate.value = value;
  return p;
}

// Exact nested-loop count of a two-table equi-join with per-table filters.
int64_t ExactJoin2(const storage::Table& a, int ca, const workload::Query& qa,
                   const storage::Table& b, int cb,
                   const workload::Query& qb) {
  int64_t count = 0;
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    if (!workload::RowMatches(a, qa, i)) continue;
    for (int64_t j = 0; j < b.num_rows(); ++j) {
      if (!workload::RowMatches(b, qb, j)) continue;
      if (a.column(ca).AsDouble(i) == b.column(cb).AsDouble(j)) ++count;
    }
  }
  return count;
}

// Exact count of fact ⋈ dim_a ⋈ dim_b (star with unique dim keys).
int64_t ExactStar3(const storage::Table& fact, const workload::Query& qf,
                   const storage::Table& dim_a, const workload::Query& qa,
                   const storage::Table& dim_b, const workload::Query& qb) {
  int64_t count = 0;
  for (int64_t i = 0; i < fact.num_rows(); ++i) {
    if (!workload::RowMatches(fact, qf, i)) continue;
    for (int64_t j = 0; j < dim_a.num_rows(); ++j) {
      if (fact.column(0).AsDouble(i) != dim_a.column(0).AsDouble(j)) continue;
      if (!workload::RowMatches(dim_a, qa, j)) continue;
      for (int64_t k = 0; k < dim_b.num_rows(); ++k) {
        if (fact.column(1).AsDouble(i) != dim_b.column(0).AsDouble(k)) {
          continue;
        }
        if (!workload::RowMatches(dim_b, qb, k)) continue;
        ++count;
      }
    }
  }
  return count;
}

TEST(QueryRouterTest, PlanCanonicalizesAndOrientsFromTheRoot) {
  Engine engine(FastEngineConfig(128));
  ASSERT_TRUE(engine.CreateTable("fact", Fact(120, 8, 5)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  QueryRouter router(&engine);

  // Scrambled spelling: edges flipped and out of order, predicates out of
  // order. The plan must come out canonical regardless.
  JoinQuery query;
  query.joins = {Edge("dim_b", "id_b", "fact", "fk_b"),
                 Edge("fact", "fk_a", "dim_a", "id_a")};
  query.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0),
                      Pred("dim_a", 1, CompareOp::kEq, 3.0),
                      Pred("fact", 0, CompareOp::kGe, 1.0)};

  auto plan = router.Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().root, "dim_a");
  EXPECT_EQ(plan.value().tables,
            (std::vector<std::string>{"dim_a", "dim_b", "fact"}));
  // BFS from dim_a: dim_a -> fact, then fact -> dim_b.
  ASSERT_EQ(plan.value().edges.size(), 2u);
  EXPECT_EQ(plan.value().edges[0].parent_table, "dim_a");
  EXPECT_EQ(plan.value().edges[0].parent_column, "id_a");
  EXPECT_EQ(plan.value().edges[0].child_table, "fact");
  EXPECT_EQ(plan.value().edges[0].child_column, "fk_a");
  EXPECT_EQ(plan.value().edges[1].parent_table, "fact");
  EXPECT_EQ(plan.value().edges[1].child_table, "dim_b");
  // Subqueries: per predicated table, predicates in canonical order.
  ASSERT_EQ(plan.value().subqueries.size(), 2u);
  EXPECT_EQ(plan.value().subqueries[0].table, "dim_a");
  ASSERT_EQ(plan.value().subqueries[1].table, "fact");
  ASSERT_EQ(plan.value().subqueries[1].query.predicates.size(), 2u);
  EXPECT_EQ(plan.value().subqueries[1].query.predicates[0].column, 0);
  EXPECT_EQ(plan.value().subqueries[1].query.predicates[1].column, 2);

  // The canonical fingerprint is spelling-invariant; changing content isn't.
  JoinQuery clean;
  clean.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
                 Edge("fact", "fk_b", "dim_b", "id_b")};
  clean.predicates = {Pred("dim_a", 1, CompareOp::kEq, 3.0),
                      Pred("fact", 0, CompareOp::kGe, 1.0),
                      Pred("fact", 2, CompareOp::kLe, 4.0)};
  EXPECT_EQ(workload::JoinQueryFingerprint(query),
            workload::JoinQueryFingerprint(clean));
  JoinQuery changed = clean;
  changed.predicates[2].predicate.value = 5.0;
  EXPECT_NE(workload::JoinQueryFingerprint(query),
            workload::JoinQueryFingerprint(changed));
}

TEST(QueryRouterTest, EveryPlanErrorCodeIsTypedAndRecoverable) {
  Engine engine(FastEngineConfig(128));
  ASSERT_TRUE(engine.CreateTable("fact", Fact(60, 8, 5)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  QueryRouter router(&engine);

  auto expect_error = [&](const JoinQuery& q, PlanError want,
                          StatusCode code) {
    auto plan = router.Plan(q);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), code) << plan.status().ToString();
    auto got = PlanErrorFromStatus(plan.status());
    ASSERT_TRUE(got.has_value()) << plan.status().ToString();
    EXPECT_EQ(got.value(), want) << plan.status().ToString();
    // Estimation surfaces the same typed error behind the batch prefix.
    auto est = router.EstimateCardinalityBatch(JoinQueryBatch({q}));
    ASSERT_FALSE(est.ok());
    EXPECT_EQ(PlanErrorFromStatus(est.status()), got);
    EXPECT_EQ(est.status().message().rfind("join query 0: [plan:", 0), 0u)
        << est.status().ToString();
  };

  JoinQuery empty;
  expect_error(empty, PlanError::kEmptyQuery, StatusCode::kInvalidArgument);

  JoinQuery unknown_table;
  unknown_table.joins = {Edge("fact", "fk_a", "nope", "id")};
  expect_error(unknown_table, PlanError::kUnknownTable, StatusCode::kNotFound);

  JoinQuery unknown_pred_column;
  unknown_pred_column.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  unknown_pred_column.predicates = {Pred("fact", 99, CompareOp::kEq, 0.0)};
  expect_error(unknown_pred_column, PlanError::kUnknownColumn,
               StatusCode::kInvalidArgument);

  JoinQuery unknown_edge_column;
  unknown_edge_column.joins = {Edge("fact", "no_such", "dim_a", "id_a")};
  expect_error(unknown_edge_column, PlanError::kUnknownColumn,
               StatusCode::kInvalidArgument);

  // Joining a numeric fact column to a categorical one is a type error.
  storage::Table mixed("mixed");
  mixed.AddColumn(storage::Column::Categorical("tag", {0, 1, 0},
                                               {"red", "blue"}));
  ASSERT_TRUE(engine.CreateTable("mixed", mixed).ok());
  JoinQuery mismatch;
  mismatch.joins = {Edge("fact", "fk_a", "mixed", "tag")};
  expect_error(mismatch, PlanError::kJoinTypeMismatch,
               StatusCode::kInvalidArgument);

  JoinQuery disconnected;
  disconnected.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0),
                             Pred("dim_a", 1, CompareOp::kEq, 3.0)};
  expect_error(disconnected, PlanError::kDisconnectedJoinGraph,
               StatusCode::kInvalidArgument);

  JoinQuery self_join;
  self_join.joins = {Edge("fact", "fk_a", "fact", "fk_b")};
  expect_error(self_join, PlanError::kCyclicJoinGraph,
               StatusCode::kInvalidArgument);

  JoinQuery cycle;
  cycle.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
                 Edge("fact", "fk_b", "dim_b", "id_b"),
                 Edge("dim_a", "payload", "dim_b", "payload")};
  expect_error(cycle, PlanError::kCyclicJoinGraph,
               StatusCode::kInvalidArgument);

  JoinQuery sum;
  sum.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  sum.agg = AggFunc::kSum;
  sum.agg_table = "fact";
  sum.agg_column = 2;
  expect_error(sum, PlanError::kUnsupportedAggregate,
               StatusCode::kInvalidArgument);

  // Execution-time failures are typed Status errors too, not plan errors:
  // a predicated table with no model attached.
  JoinQuery needs_model;
  needs_model.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  needs_model.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0)};
  auto est = router.EstimateCardinalityBatch(JoinQueryBatch({needs_model}));
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(PlanErrorFromStatus(est.status()).has_value());

  // Unknown combiner names list the registered ones.
  JoinQuery fine;
  fine.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  auto bad_combiner =
      router.EstimateCardinalityBatch(JoinQueryBatch({fine}), "nope");
  ASSERT_FALSE(bad_combiner.ok());
  EXPECT_EQ(bad_combiner.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_combiner.status().message().find("join-uniformity"),
            std::string::npos);
}

TEST(QueryRouterTest, CleanForeignKeyJoinsAreExactWithoutModels) {
  // Every foreign key hits a unique dimension key, no predicates: the join
  // size is pure statistics and both combiners must return it exactly —
  // with no model attached to any table.
  Engine engine(FastEngineConfig(128));
  storage::Table fact = Fact(120, 8, 5);  // fk_a covers 0..7, fk_b 0..4
  storage::Table dim_a = Dim("dim_a", "id_a", 8);
  storage::Table dim_b = Dim("dim_b", "id_b", 5);
  ASSERT_TRUE(engine.CreateTable("fact", fact).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", dim_a).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", dim_b).ok());
  QueryRouter router(&engine);

  workload::Query none;
  JoinQuery two;
  two.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  const double exact2 = static_cast<double>(
      ExactJoin2(fact, 0, none, dim_a, 0, none));
  EXPECT_EQ(exact2, 120.0);
  for (const std::string& combiner : RegisteredJoinCombiners()) {
    auto est = router.EstimateCardinalityBatch(JoinQueryBatch({two}), combiner);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_DOUBLE_EQ(est.value()[0], exact2) << combiner;
  }

  JoinQuery three;
  three.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
                 Edge("fact", "fk_b", "dim_b", "id_b")};
  const double exact3 = static_cast<double>(
      ExactStar3(fact, none, dim_a, none, dim_b, none));
  EXPECT_EQ(exact3, 120.0);
  for (const std::string& combiner : RegisteredJoinCombiners()) {
    auto est =
        router.EstimateCardinalityBatch(JoinQueryBatch({three}), combiner);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_DOUBLE_EQ(est.value()[0], exact3) << combiner;
  }
}

TEST(QueryRouterTest, CombinersDivergeWhenReferentialIntegrityBreaks) {
  // The fact table's fk_a uses only 4 of dim_a's 8 keys. The plan roots at
  // "dim_a" (lexicographically smallest), so fanout-scaling divides by
  // ndv(fact.fk_a) = 4 — assuming every dim_a key finds matches — and
  // overestimates by exactly 2x, while join-uniformity's max() picks the
  // true key-space size 8 and stays exact. This is the §14 failure mode.
  Engine engine(FastEngineConfig(128));
  storage::Table fact = Fact(96, 4, 5);  // fk_a covers only 0..3
  storage::Table dim_a = Dim("dim_a", "id_a", 8);
  ASSERT_TRUE(engine.CreateTable("fact", fact).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", dim_a).ok());
  QueryRouter router(&engine);

  workload::Query none;
  const double exact = static_cast<double>(
      ExactJoin2(fact, 0, none, dim_a, 0, none));
  EXPECT_EQ(exact, 96.0);

  JoinQuery query;
  query.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  const JoinQueryBatch batch({query});
  auto uniformity = router.EstimateCardinalityBatch(batch, "join-uniformity");
  auto fanout = router.EstimateCardinalityBatch(batch, "fanout-scaling");
  ASSERT_TRUE(uniformity.ok()) << uniformity.status().ToString();
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();
  EXPECT_DOUBLE_EQ(uniformity.value()[0], exact);
  EXPECT_DOUBLE_EQ(fanout.value()[0], 2.0 * exact);
}

TEST(QueryRouterTest, PredicatedJoinsCombineModelSelectivities) {
  Engine engine(FastEngineConfig(128));
  storage::Table fact = Fact(240, 8, 5);
  storage::Table dim_a = Dim("dim_a", "id_a", 8);
  ASSERT_TRUE(engine.CreateTable("fact", fact).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", dim_a).ok());
  ASSERT_TRUE(engine.AttachModel("fact", FastSpnSpec()).ok());
  QueryRouter router(&engine);

  JoinQuery query;
  query.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  query.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0)};

  // The router must combine exactly: (model estimate / rows) x the
  // unpredicated clean-FK join size. Pin it against the single-table
  // estimate surface the join answer is built from.
  workload::Query fact_sub;
  fact_sub.predicates = {query.predicates[0].predicate};
  auto single = engine.Estimate(Request(kCard, "fact", {fact_sub}));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  const double sel =
      std::min(1.0, std::max(0.0, single.value().answers[0] / 240.0));

  for (const std::string& combiner : RegisteredJoinCombiners()) {
    auto answers =
        router.EstimateCardinalityBatch(JoinQueryBatch({query}), combiner);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    const double est = answers.value()[0];
    EXPECT_DOUBLE_EQ(est, 240.0 * sel) << combiner;

    // And the combined answer is close to the exact join count (the SPN
    // selectivity is near-exact on this deterministic measure column).
    workload::Query qf;
    qf.predicates = {query.predicates[0].predicate};
    workload::Query none;
    const double exact = static_cast<double>(
        ExactJoin2(fact, 0, qf, dim_a, 0, none));
    ASSERT_GT(exact, 0.0);
    const double q_error = est > exact ? est / exact : exact / est;
    EXPECT_LT(q_error, 2.0) << combiner;
  }
}

TEST(QueryRouterTest, BatchAnswersAreBitIdenticalToOneQueryBatches) {
  Engine engine(FastEngineConfig(128));
  storage::Table fact = Fact(240, 8, 5);
  ASSERT_TRUE(engine.CreateTable("fact", fact).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(engine.AttachModel("fact", FastSpnSpec()).ok());
  QueryRouter router(&engine);

  JoinQueryBatch batch;
  JoinQuery two;
  two.joins = {Edge("fact", "fk_a", "dim_a", "id_a")};
  two.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0)};
  batch.Add(two);
  JoinQuery three;
  three.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
                 Edge("fact", "fk_b", "dim_b", "id_b")};
  batch.Add(three);
  JoinQuery ranged;
  ranged.joins = {Edge("fact", "fk_b", "dim_b", "id_b")};
  ranged.predicates = {Pred("fact", 2, CompareOp::kGe, 2.0),
                       Pred("fact", 2, CompareOp::kLe, 7.0)};
  batch.Add(ranged);

  for (const std::string& combiner : RegisteredJoinCombiners()) {
    auto batched = router.EstimateCardinalityBatch(batch, combiner);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched.value().size(), 3u);
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      auto one = router.EstimateCardinalityBatch(
          JoinQueryBatch({batch.queries[i]}), combiner);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_EQ(batched.value()[i], one.value()[0]) << combiner << " #" << i;
    }
  }

  // The Engine::Estimate join shape is the same path.
  EstimateRequest request;
  request.joins = batch;
  auto via_engine = engine.Estimate(request);
  auto via_router = router.EstimateCardinalityBatch(batch);
  ASSERT_TRUE(via_engine.ok() && via_router.ok());
  EXPECT_EQ(via_engine.value().answers, via_router.value());

  // Batch failures name the offending query.
  JoinQueryBatch bad = batch;
  JoinQuery broken;
  broken.joins = {Edge("fact", "fk_a", "nope", "id")};
  bad.Add(broken);
  auto failed = router.EstimateCardinalityBatch(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message().rfind("join query 3: ", 0), 0u)
      << failed.status().ToString();

  // AQP over joins is refused, not crashed.
  request.kind = EstimateRequest::Kind::kAqp;
  auto aqp = engine.Estimate(request);
  ASSERT_FALSE(aqp.ok());
  EXPECT_EQ(aqp.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryRouterTest, ConcurrentEstimatesAgainstBackgroundUpdateWorkers) {
  // TSan stress leg: router estimates hammer the published snapshots while
  // background update workers retrain and republish the fact model. Every
  // call must stay well-formed (no torn views, no locks on the read path).
  Engine engine(FastEngineConfig(64, /*update_workers=*/2));
  ASSERT_TRUE(engine.CreateTable("fact", Fact(256, 8, 5)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(engine.AttachModel("fact", FastSpnSpec()).ok());

  JoinQuery query;
  query.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
                 Edge("fact", "fk_b", "dim_b", "id_b")};
  query.predicates = {Pred("fact", 2, CompareOp::kLe, 4.0)};

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&engine, &query, &done, r]() {
      QueryRouter router(&engine);
      const std::string combiner =
          r % 2 == 0 ? "join-uniformity" : "fanout-scaling";
      while (!done.load(std::memory_order_acquire)) {
        auto est =
            router.EstimateCardinalityBatch(JoinQueryBatch({query}), combiner);
        ASSERT_TRUE(est.ok()) << est.status().ToString();
        ASSERT_TRUE(std::isfinite(est.value()[0]));
        ASSERT_GE(est.value()[0], 0.0);
      }
    });
  }

  // Writer: stream fact batches through the background strand.
  for (int c = 0; c < 6; ++c) {
    auto ingest = engine.Ingest("fact", Fact(96, 8, 5));
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    if (c % 3 == 2) {
      auto flushed = engine.Flush("fact");
      ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    }
  }
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Quiesced: a batch and a one-query batch agree bitwise, and the stats
  // saw every flushed row (256 base + 6 x 96 ingested).
  QueryRouter router(&engine);
  JoinQueryBatch batch({query, query});
  auto one = router.EstimateCardinalityBatch(JoinQueryBatch({query}));
  auto batched = router.EstimateCardinalityBatch(batch);
  ASSERT_TRUE(one.ok() && batched.ok());
  EXPECT_EQ(batched.value()[0], one.value()[0]);
  EXPECT_EQ(batched.value()[1], one.value()[0]);
  auto report = engine.Report("fact");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, 256 + 6 * 96);
}

}  // namespace
}  // namespace ddup::api
