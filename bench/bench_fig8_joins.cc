// Reproduces paper Figure 8 on the engine-level join path: DDUp on 3-table
// joins (JOB-like and TPCH-like star schemas), inserting the fact table's 5
// time-ordered partitions through api::Engine (detect -> update per step)
// and answering multi-table COUNT queries through the api::QueryRouter —
// per-table model estimates combined under both registered join combiners
// ("join-uniformity" and "fanout-scaling", api/router.h) and scored against
// exact join counts. Expected shape: IMDB drifts (later partitions OOD), so
// the served model tracks the stream; the combiner columns isolate how much
// error the independence/containment assumptions add on top of the
// single-table estimates. Emits BENCH_fig8_joins.json.
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/router.h"
#include "bench/harness.h"
#include "models/darn.h"
#include "storage/sampling.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/join_query.h"
#include "workload/metrics.h"

namespace ddup::bench {
namespace {

struct JoinSetup {
  std::string name;
  datagen::StarDataset star;
  std::vector<storage::Table> fact_parts;  // 5 time-ordered partitions
  // Engine table names: fact_parts stream into "fact"; dims are static.
  std::vector<std::string> dim_names;
  std::vector<workload::JoinEdge> edges;
};

JoinSetup MakeJoinSetup(const std::string& name, const BenchParams& params) {
  JoinSetup s;
  s.name = name;
  s.star = name == "imdb" ? datagen::ImdbLike(params.rows, params.seed + 101)
                          : datagen::TpchLike(params.rows, params.seed + 103);
  s.fact_parts = storage::SplitIntoBatches(s.star.fact, 5);
  // Translate the chain's join steps into router edges: step i joins some
  // already-joined table's `first` column with dims[i]'s `second` column.
  for (size_t i = 0; i < s.star.dims.size(); ++i) {
    s.dim_names.push_back("dim" + std::to_string(i));
  }
  for (size_t i = 0; i < s.star.join_keys.size(); ++i) {
    const auto& [left_col, right_col] = s.star.join_keys[i];
    workload::JoinEdge edge;
    edge.left_table = "fact";
    for (size_t d = 0; d < i; ++d) {
      if (s.star.dims[d].ColumnIndex(left_col) >= 0) {
        edge.left_table = s.dim_names[d];
      }
    }
    edge.left_column = left_col;
    edge.right_table = s.dim_names[i];
    edge.right_column = right_col;
    s.edges.push_back(edge);
  }
  return s;
}

// The fact-table DARN, sized like DarnConfigFor but spelled as registry
// options so the engine's ModelFactory builds (and snapshots) it.
api::ModelSpec DarnSpecFor(const BenchParams& params) {
  models::DarnConfig config = DarnConfigFor(params);
  return {"darn",
          {{"hidden_width", std::to_string(config.hidden_width)},
           {"max_bins", std::to_string(config.max_bins)},
           {"epochs", std::to_string(config.epochs)},
           {"batch_size", std::to_string(config.batch_size)},
           {"progressive_samples", std::to_string(config.progressive_samples)},
           {"seed", std::to_string(config.seed)}}};
}

// Lifts single-table fact queries into join queries over the full chain.
workload::JoinQueryBatch LiftToJoins(const std::vector<workload::Query>& qs,
                                     const JoinSetup& setup) {
  workload::JoinQueryBatch batch;
  for (const workload::Query& q : qs) {
    workload::JoinQuery jq;
    jq.joins = setup.edges;
    for (const workload::Predicate& p : q.predicates) {
      workload::BoundPredicate bp;
      bp.table = "fact";
      bp.predicate = p;
      jq.predicates.push_back(bp);
    }
    batch.Add(jq);
  }
  return batch;
}

// Exact join counts: materialize fact ⋈ dims and re-run the fact predicates
// against it (fact columns keep their names through the hash join).
std::vector<double> ExactJoinCounts(const storage::Table& joined,
                                    const storage::Table& fact_schema,
                                    const std::vector<workload::Query>& qs) {
  std::vector<workload::Query> remapped = qs;
  for (workload::Query& q : remapped) {
    for (workload::Predicate& p : q.predicates) {
      p.column = joined.ColumnIndex(fact_schema.column(p.column).name());
    }
  }
  return workload::ExecuteAll(joined, remapped);
}

void RunSchema(const JoinSetup& setup, const BenchParams& params,
               BenchJsonEmitter& emitter) {
  api::EngineConfig config;
  config.controller = ControllerConfigFor(params);
  // One DDUp step per fact partition: buffer the whole partition, flush once.
  config.micro_batch_rows = static_cast<int64_t>(params.rows) + 1;

  api::Engine engine(config);
  DDUP_CHECK(engine.CreateTable("fact", setup.fact_parts[0]).ok());
  for (size_t d = 0; d < setup.star.dims.size(); ++d) {
    DDUP_CHECK(engine.CreateTable(setup.dim_names[d], setup.star.dims[d]).ok());
  }
  // Only the predicated table needs a model; the dims enter the combiners
  // through their exact stats snapshots (rows + NDV) alone.
  DDUP_CHECK(engine.AttachModel("fact", DarnSpecFor(params)).ok());

  Rng qrng(params.seed + 109);
  workload::NaruWorkloadConfig wconfig;
  wconfig.min_filters = 1;
  wconfig.max_filters = std::min(3, setup.fact_parts[0].num_columns());
  auto queries = workload::GenerateNonEmptyNaruQueries(
      setup.fact_parts[0], wconfig, params.num_queries, qrng);
  workload::JoinQueryBatch join_batch = LiftToJoins(queries, setup);
  workload::JoinQuery unpredicated;
  unpredicated.joins = setup.edges;
  api::EstimateRequest predicated_request;
  predicated_request.joins = join_batch;
  api::EstimateRequest unpredicated_request;
  unpredicated_request.joins.Add(unpredicated);

  storage::Table accumulated = setup.fact_parts[0];
  std::printf("  %-5s %6s | %-16s %8s %8s %8s | %12s %12s\n", "step", "ood?",
              "combiner", "med-q", "p95-q", "max-q", "exact-join",
              "est-join");
  for (size_t step = 0; step < setup.fact_parts.size(); ++step) {
    bool ood = false;
    if (step > 0) {
      auto ingest = engine.Ingest("fact", setup.fact_parts[step]);
      DDUP_CHECK_MSG(ingest.ok(), ingest.status().message().c_str());
      auto flushed = engine.Flush("fact");
      DDUP_CHECK_MSG(flushed.ok(), flushed.status().message().c_str());
      DDUP_CHECK(flushed.value().reports.size() == 1);
      ood = flushed.value().reports[0].test.is_ood;
      accumulated.Append(setup.fact_parts[step]);
    }

    storage::Table joined = setup.star.JoinWithFact(accumulated);
    std::vector<double> truths =
        ExactJoinCounts(joined, setup.star.fact, queries);
    const double exact_join = static_cast<double>(joined.num_rows());

    for (const std::string& combiner : api::RegisteredJoinCombiners()) {
      predicated_request.combiner = combiner;
      auto estimates = engine.Estimate(predicated_request);
      DDUP_CHECK_MSG(estimates.ok(), estimates.status().message().c_str());
      unpredicated_request.combiner = combiner;
      auto unpred = engine.Estimate(unpredicated_request);
      DDUP_CHECK_MSG(unpred.ok(), unpred.status().message().c_str());
      const double unpred_rows = unpred.value().answers[0];

      // Score only queries whose exact join count is positive (the q-error
      // is undefined at zero); report how many were dropped.
      std::vector<double> est_scored, truth_scored;
      for (size_t i = 0; i < truths.size(); ++i) {
        if (truths[i] > 0.0) {
          est_scored.push_back(estimates.value().answers[i]);
          truth_scored.push_back(truths[i]);
        }
      }
      workload::ErrorSummary summary =
          workload::Summarize(QErrors(est_scored, truth_scored));
      std::printf("  %-5zu %6s | %-16s %8.2f %8.2f %8.2f | %12.0f %12.1f\n",
                  step, ood ? "yes" : "no", combiner.c_str(), summary.median,
                  summary.p95, summary.max, exact_join, unpred_rows);

      JsonObject row;
      row.Set("schema", setup.name)
          .Set("step", static_cast<int64_t>(step))
          .Set("ood", ood)
          .Set("combiner", combiner)
          .Set("queries_scored", static_cast<int64_t>(truth_scored.size()))
          .Set("queries_total", static_cast<int64_t>(truths.size()))
          .Set("median_qerror", summary.median)
          .Set("p95_qerror", summary.p95)
          .Set("max_qerror", summary.max)
          .Set("exact_join_rows", exact_join)
          .Set("estimated_join_rows", unpred_rows);
      emitter.AddRow(std::move(row));
    }
  }
}

void Run() {
  BenchParams params = BenchParams::FromEnv();
  PrintBanner("Figure 8",
              "3-table joins through Engine + QueryRouter: DARN on the fact "
              "stream, exact dim stats, both join combiners vs exact counts",
              params);
  BenchJsonEmitter emitter("fig8_joins", params);
  emitter.SetParam("combiners", "join-uniformity,fanout-scaling")
      .SetParam("fact_partitions", static_cast<int64_t>(5));
  for (const std::string& name : {std::string("imdb"), std::string("tpch")}) {
    std::printf("\n%s [join COUNT via router]\n", name.c_str());
    JoinSetup setup = MakeJoinSetup(name, params);
    RunSchema(setup, params, emitter);
  }
  emitter.Write();
  std::printf(
      "\nshape check: IMDB signals OOD on later partitions (the served DARN "
      "keeps tracking the stream); both combiners agree on the clean-FK "
      "unpredicated join size, and their per-query q-errors isolate the "
      "combination assumptions on top of the single-table estimates.\n");
}

}  // namespace
}  // namespace ddup::bench

int main() { ddup::bench::Run(); }
