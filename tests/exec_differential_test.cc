// Differential harness for the batch-estimate execution engines (DESIGN.md
// §13, crex-style): the scalar estimator path is the spec, the "reference"
// engine executes it query by query, and every other registered engine must
// agree with the reference BYTE FOR BYTE — same doubles, same error codes,
// same error messages — across model kinds, batch sizes, seeds and query
// mixes. Any future engine picked up from the registry is covered here with
// no edits.
//
// Also pinned here: batch-size independence (the per-query RNG stream is
// derived from the query fingerprint, so an answer cannot depend on batch
// position or on what else shares the batch), the lock-free concurrent
// reader path (run under TSan in CI), and the vectorized DARN core's
// zero-heap-alloc steady state via MatrixPool counters.

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "common/rng.h"
#include "core/interfaces.h"
#include "exec/estimator_engine.h"
#include "estimate_helpers.h"
#include "gtest/gtest.h"
#include "models/registry.h"
#include "nn/pool.h"
#include "storage/table.h"
#include "workload/query.h"

namespace ddup::exec {
namespace {

using api::kAqp;
using api::kCard;
using api::Request;

// Bitwise equality: the harness contract is byte-identity, not tolerance.
testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

storage::Table MakeBase(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> x, z;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    x.push_back(static_cast<int32_t>(k));
    z.push_back(static_cast<int32_t>(rng.UniformInt(0, 3)));
    y.push_back(rng.Normal(k == 0 ? 30.0 : 70.0, 10.0));
  }
  storage::Table t("base");
  t.AddColumn(storage::Column::Categorical("x", x, {"k0", "k1"}));
  t.AddColumn(storage::Column::Categorical("z", z, {"a", "b", "c", "d"}));
  t.AddColumn(storage::Column::Numeric("y", y));
  return t;
}

// A mixed bag of cardinality queries: point/range/open-ended, duplicates
// (the same query twice must get the same answer — content-keyed streams),
// and an unsatisfiable range (served as 0 with no RNG draws).
std::vector<workload::Query> CardQueries() {
  auto q = [](std::vector<workload::Predicate> ps) {
    workload::Query query;
    query.predicates = std::move(ps);
    return query;
  };
  auto p = [](int col, workload::CompareOp op, double v) {
    workload::Predicate pred;
    pred.column = col;
    pred.op = op;
    pred.value = v;
    return pred;
  };
  using Op = workload::CompareOp;
  std::vector<workload::Query> queries = {
      q({p(0, Op::kEq, 0.0)}),
      q({p(0, Op::kEq, 1.0), p(2, Op::kGe, 40.0)}),
      q({p(2, Op::kGe, 20.0), p(2, Op::kLe, 60.0)}),
      q({p(1, Op::kEq, 2.0), p(2, Op::kLe, 50.0)}),
      q({p(0, Op::kEq, 0.0), p(1, Op::kEq, 3.0), p(2, Op::kGe, 25.0)}),
      q({p(2, Op::kGe, 80.0), p(2, Op::kLe, 20.0)}),  // unsatisfiable
      q({}),                                          // no predicates
      q({p(2, Op::kLe, 35.0)}),
  };
  queries.push_back(queries[1]);  // exact duplicate in one batch
  return queries;
}

// Tiles `base` queries out to `n` entries (cycling), so batch sizes larger
// than the distinct pool still exercise real work.
workload::QueryBatch TileBatch(const std::vector<workload::Query>& base,
                               size_t n) {
  workload::QueryBatch batch;
  for (size_t i = 0; i < n; ++i) batch.Add(base[i % base.size()]);
  return batch;
}

std::unique_ptr<core::UpdatableModel> MakeModel(
    const std::string& kind, const api::ModelOptions& options,
    const storage::Table& base) {
  auto model = api::ModelFactory::Global().Create(kind, base, options);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

// --- Registry ---------------------------------------------------------------

TEST(EstimatorEngineRegistryTest, ServesReferenceAndVectorized) {
  std::vector<std::string> names = RegisteredEstimatorEngines();
  ASSERT_GE(names.size(), 2u);
  for (const char* expected : {"reference", "vectorized"}) {
    const EstimatorEngine* engine = FindEstimatorEngine(expected);
    ASSERT_NE(engine, nullptr) << expected;
    EXPECT_EQ(engine->name(), expected);
  }
  EXPECT_EQ(FindEstimatorEngine("nope"), nullptr);
}

// --- Cardinality engines: DARN (stateful sampler) and SPN (stateless) ------

class CardinalityDifferentialTest
    : public testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(CardinalityDifferentialTest, EveryEngineMatchesReferenceBitForBit) {
  const auto& [kind, seed] = GetParam();
  storage::Table base = MakeBase(400, seed);
  api::ModelOptions options;
  if (kind == "darn") {
    // progressive_samples=6 is deliberately NOT a multiple of 4: the padded
    // path matrix (not the raw path count) must keep rows out of the GEMM
    // row tail for answers to stay batch-size-invariant.
    options = {{"hidden_width", "16"},
               {"max_bins", "8"},
               {"epochs", "1"},
               {"progressive_samples", "6"},
               {"seed", std::to_string(seed)}};
  } else {
    options = {{"min_instances_slice", "100"}, {"max_bins", "8"}};
  }
  auto model = MakeModel(kind, options, base);
  const auto* card = dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);

  const EstimatorEngine* reference = FindEstimatorEngine("reference");
  ASSERT_NE(reference, nullptr);
  std::vector<workload::Query> pool = CardQueries();

  for (size_t n : {size_t{1}, size_t{3}, size_t{16}, size_t{64}}) {
    workload::QueryBatch batch = TileBatch(pool, n);
    std::vector<double> expected;
    ASSERT_TRUE(
        reference->EstimateCardinalityBatch(*card, batch, &expected).ok());
    ASSERT_EQ(expected.size(), n);
    // The reference itself must reproduce the scalar spec...
    for (size_t i = 0; i < n; ++i) {
      StatusOr<double> scalar = card->TryEstimateCardinality(batch.queries[i]);
      ASSERT_TRUE(scalar.ok());
      EXPECT_TRUE(BitEqual(scalar.value(), expected[i]))
          << kind << " reference vs scalar, n=" << n << " i=" << i;
    }
    // ...and every registered engine must reproduce the reference.
    for (const std::string& name : RegisteredEstimatorEngines()) {
      const EstimatorEngine* engine = FindEstimatorEngine(name);
      std::vector<double> got;
      ASSERT_TRUE(engine->EstimateCardinalityBatch(*card, batch, &got).ok());
      ASSERT_EQ(got.size(), n) << name;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(BitEqual(expected[i], got[i]))
            << kind << " engine=" << name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(CardinalityDifferentialTest, AnswersAreBatchSizeIndependent) {
  const auto& [kind, seed] = GetParam();
  storage::Table base = MakeBase(300, seed + 17);
  api::ModelOptions options;
  if (kind == "darn") {
    options = {{"hidden_width", "16"},
               {"max_bins", "8"},
               {"epochs", "1"},
               {"seed", std::to_string(seed)}};
  } else {
    options = {{"min_instances_slice", "100"}, {"max_bins", "8"}};
  }
  auto model = MakeModel(kind, options, base);
  const auto* card = dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);

  std::vector<workload::Query> pool = CardQueries();
  workload::QueryBatch large = TileBatch(pool, 64);
  for (const std::string& name : RegisteredEstimatorEngines()) {
    const EstimatorEngine* engine = FindEstimatorEngine(name);
    std::vector<double> batched;
    ASSERT_TRUE(engine->EstimateCardinalityBatch(*card, large, &batched).ok());
    for (size_t i = 0; i < large.queries.size(); ++i) {
      workload::QueryBatch alone;
      alone.Add(large.queries[i]);
      std::vector<double> single;
      ASSERT_TRUE(engine->EstimateCardinalityBatch(*card, alone, &single).ok());
      EXPECT_TRUE(BitEqual(single[0], batched[i]))
          << kind << " engine=" << name << " i=" << i
          << ": N=1 vs N=64 disagree";
    }
  }
}

// At hidden_width 16 every non-empty MADE active set pads back to the full
// width, so the restricted-GEMM branch degenerates to full-width gathers.
// hidden_width 32 over the 3-column base leaves output block 1 with exactly
// 16 of 32 active units — a genuinely narrowed pair of GEMMs — and block 0
// on the bias-only broadcast row. Both must still reproduce the dense scalar
// spec bit for bit.
TEST(CardinalityDifferentialTest, ActiveSetRestrictedWidthMatchesScalar) {
  for (uint64_t seed : {5ull, 11ull}) {
    storage::Table base = MakeBase(400, seed);
    auto model = MakeModel("darn",
                           {{"hidden_width", "32"},
                            {"max_bins", "8"},
                            {"epochs", "1"},
                            {"progressive_samples", "6"},
                            {"seed", std::to_string(seed)}},
                           base);
    const auto* card =
        dynamic_cast<const core::CardinalityEstimator*>(model.get());
    ASSERT_NE(card, nullptr);
    workload::QueryBatch batch = TileBatch(CardQueries(), 24);
    const EstimatorEngine* vectorized = FindEstimatorEngine("vectorized");
    ASSERT_NE(vectorized, nullptr);
    std::vector<double> got;
    ASSERT_TRUE(vectorized->EstimateCardinalityBatch(*card, batch, &got).ok());
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      StatusOr<double> scalar = card->TryEstimateCardinality(batch.queries[i]);
      ASSERT_TRUE(scalar.ok());
      EXPECT_TRUE(BitEqual(scalar.value(), got[i]))
          << "seed=" << seed << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CardinalityDifferentialTest,
    testing::Combine(testing::Values(std::string("darn"), std::string("spn")),
                     testing::Values(uint64_t{5}, uint64_t{11})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- AQP engines: MDN -------------------------------------------------------

TEST(AqpDifferentialTest, EveryEngineMatchesReferenceBitForBit) {
  for (uint64_t seed : {3ull, 9ull}) {
    storage::Table base = MakeBase(400, seed);
    auto model = MakeModel("mdn",
                           {{"num_components", "4"},
                            {"hidden_width", "16"},
                            {"epochs", "2"},
                            {"seed", std::to_string(seed)},
                            {"categorical", "x"},
                            {"numeric", "y"}},
                           base);
    const auto* aqp = dynamic_cast<const core::AqpEstimator*>(model.get());
    ASSERT_NE(aqp, nullptr);

    auto aqp_query = [](int cat, double lo, double hi, workload::AggFunc agg) {
      workload::Query q;
      workload::Predicate eq;
      eq.column = 0;
      eq.op = workload::CompareOp::kEq;
      eq.value = static_cast<double>(cat);
      workload::Predicate ge;
      ge.column = 2;
      ge.op = workload::CompareOp::kGe;
      ge.value = lo;
      workload::Predicate le;
      le.column = 2;
      le.op = workload::CompareOp::kLe;
      le.value = hi;
      q.predicates = {eq, ge, le};
      q.agg = agg;
      q.agg_column = 2;
      return q;
    };
    std::vector<workload::Query> pool = {
        aqp_query(0, 10, 50, workload::AggFunc::kCount),
        aqp_query(1, 40, 90, workload::AggFunc::kSum),
        aqp_query(0, 20, 80, workload::AggFunc::kAvg),
        aqp_query(1, 0, 100, workload::AggFunc::kCount),
        aqp_query(0, 10, 50, workload::AggFunc::kCount),  // duplicate
    };
    const EstimatorEngine* reference = FindEstimatorEngine("reference");
    for (size_t n : {size_t{1}, size_t{3}, size_t{32}}) {
      workload::QueryBatch batch = TileBatch(pool, n);
      std::vector<double> expected;
      ASSERT_TRUE(
          reference->EstimateAqpBatch(*aqp, base, batch, &expected).ok());
      for (size_t i = 0; i < n; ++i) {
        StatusOr<double> scalar = aqp->TryEstimateAqp(batch.queries[i], base);
        ASSERT_TRUE(scalar.ok());
        EXPECT_TRUE(BitEqual(scalar.value(), expected[i]))
            << "mdn reference vs scalar, n=" << n << " i=" << i;
      }
      for (const std::string& name : RegisteredEstimatorEngines()) {
        const EstimatorEngine* engine = FindEstimatorEngine(name);
        std::vector<double> got;
        ASSERT_TRUE(engine->EstimateAqpBatch(*aqp, base, batch, &got).ok());
        ASSERT_EQ(got.size(), n) << name;
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(BitEqual(expected[i], got[i]))
              << "mdn engine=" << name << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// --- Error agreement --------------------------------------------------------

TEST(DifferentialErrorTest, EnginesAgreeOnInvalidQueries) {
  storage::Table base = MakeBase(200, 21);
  auto model = MakeModel(
      "darn", {{"hidden_width", "16"}, {"max_bins", "8"}, {"epochs", "1"}},
      base);
  const auto* card = dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);

  workload::QueryBatch batch = TileBatch(CardQueries(), 4);
  workload::Predicate bad;
  bad.column = 99;  // out of range
  batch.queries[2].predicates.push_back(bad);

  const EstimatorEngine* reference = FindEstimatorEngine("reference");
  std::vector<double> out;
  Status expected = reference->EstimateCardinalityBatch(*card, batch, &out);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(expected.message().find("query 2"), std::string::npos)
      << expected.message();

  for (const std::string& name : RegisteredEstimatorEngines()) {
    const EstimatorEngine* engine = FindEstimatorEngine(name);
    std::vector<double> got;
    Status st = engine->EstimateCardinalityBatch(*card, batch, &got);
    EXPECT_EQ(st.code(), expected.code()) << name;
    EXPECT_EQ(st.message(), expected.message()) << name;
  }
}

// --- Engine (api) batch surface ---------------------------------------------

TEST(EngineBatchApiTest, RequestsMatchTheReferenceEngineBitForBit) {
  storage::Table base = MakeBase(300, 31);
  workload::QueryBatch batch = TileBatch(CardQueries(), 16);
  api::EngineConfig config;
  api::Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine
                  .AttachModel("t", {"darn",
                                     {{"hidden_width", "16"},
                                      {"max_bins", "8"},
                                      {"epochs", "1"}}})
                  .ok());

  // The oracle: the reference exec engine run directly on the model the
  // (synchronous) engine serves.
  const auto* card =
      dynamic_cast<const core::CardinalityEstimator*>(engine.model("t"));
  ASSERT_NE(card, nullptr);
  const EstimatorEngine* reference = FindEstimatorEngine("reference");
  std::vector<double> want;
  ASSERT_TRUE(reference->EstimateCardinalityBatch(*card, batch, &want).ok());

  auto batched = engine.Estimate(Request(kCard, "t", batch.queries));
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().answers.size(), want.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    EXPECT_TRUE(BitEqual(want[i], batched.value().answers[i])) << i;
    auto one = engine.Estimate(Request(kCard, "t", {batch.queries[i]}));
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_TRUE(BitEqual(want[i], one.value().answers[0])) << i;
  }
}

TEST(EngineBatchApiTest, UnservedKindsAreStatuses) {
  // Kinds that serve neither estimate (gbdt, tvae) fail with
  // FailedPrecondition before any exec engine runs.
  storage::Table base = MakeBase(200, 41);
  api::EngineConfig config;
  api::Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("g", base).ok());
  const api::ModelSpec gbdt{"gbdt", {{"target", "x"}, {"num_rounds", "2"}}};
  ASSERT_TRUE(engine.AttachModel("g", gbdt).ok());
  EXPECT_EQ(engine.Estimate(Request(kCard, "g", {})).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Estimate(Request(kAqp, "g", {})).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- Lock-free concurrent readers (exercised under TSan in CI) --------------

TEST(ConcurrentEstimateTest, ManyReadersShareOneTableWithoutLocks) {
  storage::Table base = MakeBase(300, 51);
  api::EngineConfig config;
  config.update_workers = 2;
  config.micro_batch_rows = 64;
  config.controller.detector.bootstrap_iterations = 8;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  api::Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine
                  .AttachModel("t", {"darn",
                                     {{"hidden_width", "12"},
                                      {"max_bins", "6"},
                                      {"epochs", "1"},
                                      {"progressive_samples", "4"}}})
                  .ok());

  workload::QueryBatch batch = TileBatch(CardQueries(), 8);
  constexpr int kReaders = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> readers;
  std::vector<int> failures(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        // Mix scalar and batched reads; both ride the same serving view.
        auto one =
            engine.Estimate(Request(kCard, "t", {batch.queries[round % 8]}));
        if (!one.ok()) failures[r]++;
        auto many = engine.Estimate(Request(kCard, "t", batch.queries));
        if (!many.ok()) failures[r]++;
      }
    });
  }
  // Writer: concurrent ingests force snapshot publishes under the readers.
  std::thread writer([&] {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.Ingest("t", MakeBase(64, 60 + i)).ok());
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(failures[r], 0) << r;
  ASSERT_TRUE(engine.FlushAll().ok());

  // Quiesced again: answers are deterministic per query, scalar == batched.
  auto after = engine.Estimate(Request(kCard, "t", batch.queries));
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    auto scalar = engine.Estimate(Request(kCard, "t", {batch.queries[i]}));
    ASSERT_TRUE(scalar.ok());
    EXPECT_TRUE(BitEqual(scalar.value().answers[0],
                         after.value().answers[i]))
        << i;
  }
}

// --- Zero-alloc steady state ------------------------------------------------

TEST(VectorizedZeroAllocTest, WarmDarnBatchesDoNoMatrixHeapAllocs) {
  storage::Table base = MakeBase(300, 71);
  auto model = MakeModel(
      "darn", {{"hidden_width", "16"}, {"max_bins", "8"}, {"epochs", "1"}},
      base);
  const auto* card = dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);
  const EstimatorEngine* vectorized = FindEstimatorEngine("vectorized");
  ASSERT_NE(vectorized, nullptr);

  workload::QueryBatch batch = TileBatch(CardQueries(), 32);
  std::vector<double> warm1, warm2, out;
  // Two warm-up batches populate the thread's pool at every scratch shape.
  ASSERT_TRUE(vectorized->EstimateCardinalityBatch(*card, batch, &warm1).ok());
  ASSERT_TRUE(vectorized->EstimateCardinalityBatch(*card, batch, &warm2).ok());

  nn::MatrixPool::Counters before = nn::MatrixPool::Local().counters();
  constexpr int kBatches = 5;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(vectorized->EstimateCardinalityBatch(*card, batch, &out).ok());
  }
  nn::MatrixPool::Counters after = nn::MatrixPool::Local().counters();

  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0u)
      << "warm vectorized batches must serve all matrix scratch from the pool";
  EXPECT_GT(after.acquires - before.acquires, 0u);
  EXPECT_EQ(after.acquires - before.acquires, after.reuses - before.reuses);
  // Everything acquired went back: no pooled-buffer leak per batch.
  EXPECT_EQ(after.releases - before.releases, after.acquires - before.acquires);
}

}  // namespace
}  // namespace ddup::exec
