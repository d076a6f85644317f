#include <cmath>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "gtest/gtest.h"
#include "models/darn.h"
#include "storage/sampling.h"
#include "storage/transforms.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace ddup::models {
namespace {

// Small correlated 3-column table with tiny domains so the joint can be
// enumerated exactly. `c` is ANTI-correlated with `a`: sorting every column
// independently (the paper's OOD transform) then produces (a, c) pairs that
// are impossible in the base data, which is what real non-monotone
// dependencies give the detector to work with.
storage::Table TinyJoint(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> a, b;
  std::vector<double> c;
  for (int64_t i = 0; i < rows; ++i) {
    int av = static_cast<int>(rng.UniformInt(0, 2));
    int bv = rng.Bernoulli(0.8) ? av : static_cast<int>(rng.UniformInt(0, 2));
    double cv = static_cast<double>((2 - av) + (rng.Bernoulli(0.5) ? 0 : 1));
    a.push_back(static_cast<int32_t>(av));
    b.push_back(static_cast<int32_t>(bv));
    c.push_back(cv);
  }
  storage::Table t("tiny");
  t.AddColumn(storage::Column::Categorical("a", a, {"a0", "a1", "a2"}));
  t.AddColumn(storage::Column::Categorical("b", b, {"b0", "b1", "b2"}));
  t.AddColumn(storage::Column::Numeric("c", c));
  return t;
}

DarnConfig FastConfig() {
  DarnConfig c;
  c.hidden_width = 32;
  c.max_bins = 16;
  c.epochs = 15;
  c.batch_size = 128;
  c.learning_rate = 5e-3;
  c.progressive_samples = 24;
  c.seed = 5;
  return c;
}

class DarnFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new storage::Table(TinyJoint(3000, 1));
    model_ = new Darn(*base_, FastConfig());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete base_;
    model_ = nullptr;
    base_ = nullptr;
  }
  static storage::Table* base_;
  static Darn* model_;
};

storage::Table* DarnFixture::base_ = nullptr;
Darn* DarnFixture::model_ = nullptr;

TEST_F(DarnFixture, JointDistributionSumsToOne) {
  // MADE invariant: the learned joint must normalize regardless of training.
  const auto& enc = model_->encoder();
  double total = 0.0;
  for (int i = 0; i < enc.cardinality(0); ++i) {
    for (int j = 0; j < enc.cardinality(1); ++j) {
      for (int k = 0; k < enc.cardinality(2); ++k) {
        total += model_->JointProbability({i, j, k});
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(DarnFixture, JointMatchesEmpiricalFrequencies) {
  // Spot-check dominant cells: P(a=k, b=k) should be large (80% coupling).
  auto cell = [&](int i, int j) {
    double p = 0.0;
    for (int k = 0; k < model_->encoder().cardinality(2); ++k) {
      p += model_->JointProbability({i, j, k});
    }
    return p;
  };
  EXPECT_GT(cell(0, 0), cell(0, 2) * 2.0);
  EXPECT_GT(cell(2, 2), cell(2, 0) * 2.0);
}

TEST_F(DarnFixture, CardinalityEstimatesAreAccurate) {
  Rng rng(2);
  workload::NaruWorkloadConfig wconfig;
  wconfig.min_filters = 1;
  wconfig.max_filters = 3;
  auto queries = workload::GenerateNonEmptyNaruQueries(*base_, wconfig, 40, rng);
  std::vector<double> qerrs;
  for (const auto& q : queries) {
    double truth = workload::Execute(*base_, q).value;
    double est = model_->EstimateCardinality(q);
    qerrs.push_back(workload::QError(est, truth));
  }
  auto s = workload::Summarize(qerrs);
  EXPECT_LT(s.median, 1.5);
  EXPECT_LT(s.p95, 4.0);
}

TEST_F(DarnFixture, UnsatisfiablePredicateGivesZero) {
  workload::Query q;
  q.predicates = {{2, workload::CompareOp::kGe, 100.0}};  // beyond support
  EXPECT_DOUBLE_EQ(model_->EstimateCardinality(q), 0.0);
}

TEST_F(DarnFixture, SelectivityOfEmptyQueryIsOne) {
  workload::Query q;  // no predicates
  EXPECT_NEAR(model_->EstimateSelectivity(q), 1.0, 1e-9);
  EXPECT_NEAR(model_->EstimateCardinality(q),
              static_cast<double>(base_->num_rows()), 1e-6);
}

TEST_F(DarnFixture, LossSeparatesIndFromOod) {
  Rng rng(3);
  storage::Table ind = storage::InDistributionSample(*base_, rng, 0.2);
  storage::Table ood = storage::OutOfDistributionSample(*base_, rng, 0.2);
  EXPECT_LT(model_->AverageLoss(ind), model_->AverageLoss(ood));
}

TEST_F(DarnFixture, TotalRowsTracksMetadata) {
  EXPECT_EQ(model_->total_rows(), base_->num_rows());
}

TEST(DarnOnDatasetTest, CensusLikeCardinalityEstimation) {
  auto base = datagen::CensusLike(3000, 7);
  DarnConfig config = FastConfig();
  config.epochs = 8;
  Darn model(base, config);
  Rng rng(8);
  workload::NaruWorkloadConfig wconfig;
  wconfig.min_filters = 2;
  wconfig.max_filters = 4;
  auto queries = workload::GenerateNonEmptyNaruQueries(base, wconfig, 30, rng);
  std::vector<double> qerrs;
  for (const auto& q : queries) {
    qerrs.push_back(workload::QError(model.EstimateCardinality(q),
                                     workload::Execute(base, q).value));
  }
  EXPECT_LT(workload::Summarize(qerrs).median, 3.0);
}

TEST(DarnOnDatasetTest, MatchAllQueriesNeverExceedTheRowCount) {
  // Progressive sampling averages products of per-column masses; on a query
  // that matches every row each mass is 1 only up to rounding, so the
  // selectivity can land an ulp above 1 and the estimate above the row
  // count. Both estimate paths must stay within [0, num_rows] and still
  // agree bit for bit.
  for (uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
    SCOPED_TRACE(seed);
    storage::Table base = datagen::CensusLike(2000, seed);
    DarnConfig config = FastConfig();
    config.epochs = 2;
    config.seed = seed;
    Darn model(base, config);

    // The empty query, one whole-domain range per column, and all of those
    // ranges together.
    std::vector<workload::Query> queries(1);
    workload::Query every_column;
    for (int c = 0; c < base.num_columns(); ++c) {
      workload::Predicate p{c, workload::CompareOp::kGe,
                            base.column(c).MinAsDouble()};
      queries.push_back(workload::Query{});
      queries.back().predicates = {p};
      every_column.predicates.push_back(p);
    }
    queries.push_back(every_column);

    std::vector<double> batch;
    ASSERT_TRUE(model.TryEstimateCardinalityBatch(queries, &batch).ok());
    ASSERT_EQ(batch.size(), queries.size());
    const double rows = static_cast<double>(base.num_rows());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(workload::Execute(base, queries[i]).value, rows);
      core::EstimateContext ctx = model.MakeEstimateContext(queries[i]);
      StatusOr<double> scalar = model.TryEstimateCardinality(queries[i], &ctx);
      ASSERT_TRUE(scalar.ok());
      EXPECT_LE(scalar.value(), rows) << "query " << i;
      EXPECT_GE(scalar.value(), 0.0) << "query " << i;
      EXPECT_EQ(batch[i], scalar.value()) << "query " << i;
    }
  }
}

TEST(DarnUpdateTest, DistillationBeatsFineTuneOnOldData) {
  storage::Table base = TinyJoint(2500, 9);
  Rng rng(10);
  storage::Table new_data = storage::OutOfDistributionSample(base, rng, 0.2);
  storage::Table old_sample = storage::SampleRows(base, rng, 400);

  DarnConfig config = FastConfig();
  config.epochs = 10;
  Darn ddup_model(base, config);
  double stale_old = ddup_model.AverageLoss(old_sample);
  double stale_new = ddup_model.AverageLoss(new_data);
  EXPECT_GT(stale_new, stale_old);

  Darn baseline(base, config);
  baseline.FineTune(new_data, 5e-3, 10);
  double baseline_old = baseline.AverageLoss(old_sample);

  core::DistillConfig dc;
  dc.epochs = 10;
  dc.learning_rate = 2e-3;
  storage::Table transfer = storage::SampleRows(base, rng, 300);
  ddup_model.DistillUpdate(transfer, new_data, dc);
  double ddup_old = ddup_model.AverageLoss(old_sample);
  double ddup_new = ddup_model.AverageLoss(new_data);

  EXPECT_LT(ddup_old, baseline_old);   // less forgetting than fine-tune
  EXPECT_LT(ddup_new, stale_new);      // still learned the new data
}

TEST(DarnUpdateTest, AbsorbMetadataScalesEstimates) {
  storage::Table base = TinyJoint(1000, 12);
  DarnConfig config = FastConfig();
  config.epochs = 4;
  Darn model(base, config);
  workload::Query all;  // empty predicate = whole table
  double before = model.EstimateCardinality(all);
  model.AbsorbMetadata(base.Head(500));
  double after = model.EstimateCardinality(all);
  EXPECT_NEAR(after - before, 500.0, 1.0);
}

TEST(DarnMaskTest, AutoregressivePropertyHolds) {
  // Changing a later column must not change the probability of an earlier
  // one: P(a) computed with different (b, c) values must agree.
  storage::Table base = TinyJoint(500, 13);
  DarnConfig config = FastConfig();
  config.epochs = 2;
  Darn model(base, config);
  double p1 = model.JointProbability({1, 0, 0});
  double p2 = model.JointProbability({1, 2, 1});
  (void)p1;
  (void)p2;
  // Extract P(a=1) from both paths by summing over the later columns.
  const auto& enc = model.encoder();
  auto marginal_a = [&](int fixed_b_unused) {
    (void)fixed_b_unused;
    double total = 0.0;
    for (int j = 0; j < enc.cardinality(1); ++j) {
      for (int k = 0; k < enc.cardinality(2); ++k) {
        total += model.JointProbability({1, j, k});
      }
    }
    return total;
  };
  // The decomposition is consistent: joint/marginal ratios stay in [0, 1].
  double pa = marginal_a(0);
  EXPECT_GT(pa, 0.0);
  EXPECT_LT(pa, 1.0);
  EXPECT_LE(p1, pa + 1e-12);
  EXPECT_LE(p2, pa + 1e-12);
}

}  // namespace
}  // namespace ddup::models
