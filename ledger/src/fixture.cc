#include "fixture.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/scenarios.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace ledger {

using ddup::Rng;
using ddup::api::Engine;
using ddup::api::EngineConfig;
using ddup::api::ModelSpec;
using ddup::workload::Query;

namespace {

// Per-purpose sub-seeds, so adding an input never shifts another's stream.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL + 1;
}

// FNV-1a: a stable name hash (std::hash is implementation-defined).
uint64_t NameHash(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "ledger: set-up failed: %s\n", what.c_str());
  std::exit(2);
}

ModelSpec DarnSpec(uint64_t seed) {
  return {"darn",
          {{"hidden_width", "64"},
           {"max_bins", "32"},
           {"epochs", "4"},
           {"batch_size", "128"},
           {"progressive_samples", "16"},
           {"seed", std::to_string(seed)}}};
}

ModelSpec MdnSpec(const std::string& dataset, uint64_t seed) {
  const datagen::AqpColumns cols = datagen::AqpColumnsFor(dataset);
  return {"mdn",
          {{"categorical", cols.categorical},
           {"numeric", cols.numeric},
           {"num_components", "6"},
           {"hidden_width", "32"},
           {"epochs", "8"},
           {"seed", std::to_string(seed)}}};
}

std::vector<Query> AqpQueries(const storage::Table& table,
                              const std::string& dataset, int n, Rng& rng) {
  const datagen::AqpColumns cols = datagen::AqpColumnsFor(dataset);
  std::vector<Query> out;
  const ddup::workload::AggFunc aggs[] = {ddup::workload::AggFunc::kCount,
                                          ddup::workload::AggFunc::kSum,
                                          ddup::workload::AggFunc::kAvg};
  for (int k = 0; k < 3; ++k) {
    ddup::workload::AqpWorkloadConfig config;
    config.categorical_column = cols.categorical;
    config.numeric_column = cols.numeric;
    config.agg = aggs[k];
    const int count = n / 3 + (k < n % 3 ? 1 : 0);
    auto qs = ddup::workload::GenerateNonEmptyAqpQueries(table, config, count,
                                                         rng);
    out.insert(out.end(), qs.begin(), qs.end());
  }
  // Interleave the aggregate kinds so any prefix of the set mixes them.
  std::vector<Query> mixed;
  const size_t third = (out.size() + 2) / 3;
  for (size_t i = 0; i < third; ++i) {
    for (size_t k = 0; k < 3; ++k) {
      size_t j = k * third + i;
      if (j < out.size()) mixed.push_back(out[j]);
    }
  }
  return mixed;
}

// Non-empty Naru queries.
std::vector<Query> CeQueries(const storage::Table& table, int n, int min_f,
                             int max_f, Rng& rng) {
  ddup::workload::NaruWorkloadConfig config;
  config.min_filters = min_f;
  config.max_filters = std::min(max_f, table.num_columns());
  return ddup::workload::GenerateNonEmptyNaruQueries(table, config, n, rng);
}

}  // namespace

int64_t Stream::rows() const {
  int64_t n = 0;
  for (const auto& b : batches) n += b.num_rows();
  return n;
}

const FixtureTable& Inputs::Find(const std::string& name) const {
  for (const FixtureTable& t : tables) {
    if (t.name == name) return t;
  }
  Die("no fixture table " + name);
  return tables.front();
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const struct {
    const char* name;
    const char* dataset;
    bool darn;
  } kSingle[] = {{"ce", "census", true},
                 {"aqp", "census", false},
                 {"aqp_dmv", "dmv", false},
                 {"aqp_forest", "forest", false},
                 {"aqp_tpcds", "tpcds", false}};
  for (const auto& t : kSingle) {
    FixtureTable table;
    table.name = t.name;
    table.dataset = t.dataset;
    // Both census tables share one base, so the drift stream into them is
    // the same rows.
    table.base = datagen::MakeDataset(
        t.dataset, kBaseRows,
        SubSeed(seed, NameHash(t.dataset)));
    table.has_model = true;
    table.spec = t.darn ? DarnSpec(SubSeed(seed, 11))
                        : MdnSpec(t.dataset, SubSeed(seed, 12));
    in.tables.push_back(std::move(table));
    if (!t.darn) in.aqp_tables.push_back(t.name);
  }
  std::sort(in.aqp_tables.begin(), in.aqp_tables.end());

  in.star = datagen::ImdbLike(kFactRows, SubSeed(seed, 21));
  {
    FixtureTable fact;
    fact.name = "fact";
    fact.base = in.star.fact;
    fact.has_model = true;
    fact.spec = DarnSpec(SubSeed(seed, 22));
    in.tables.push_back(std::move(fact));
  }
  for (size_t d = 0; d < in.star.dims.size(); ++d) {
    FixtureTable dim;
    dim.name = "dim" + std::to_string(d);
    dim.base = in.star.dims[d];
    in.tables.push_back(std::move(dim));
  }
  // Router edges from the chain's join steps: step i joins an earlier
  // table's `first` column with dim i's `second` column.
  for (size_t i = 0; i < in.star.join_keys.size(); ++i) {
    const auto& [left_col, right_col] = in.star.join_keys[i];
    ddup::workload::JoinEdge edge;
    edge.left_table = "fact";
    for (size_t d = 0; d < i; ++d) {
      if (in.star.dims[d].ColumnIndex(left_col) >= 0) {
        edge.left_table = "dim" + std::to_string(d);
      }
    }
    edge.left_column = left_col;
    edge.right_table = "dim" + std::to_string(i);
    edge.right_column = right_col;
    in.edges.push_back(edge);
  }

  Rng qrng(SubSeed(seed, 31));
  in.ce_queries = CeQueries(in.Find("ce").base, kCeQueries, 2, 5, qrng);
  for (const std::string& name : in.aqp_tables) {
    const FixtureTable& t = in.Find(name);
    in.aqp_queries[name] =
        AqpQueries(t.base, t.dataset, kAqpQueriesPerTable, qrng);
  }
  in.join_fact_queries = CeQueries(in.star.fact, kJoinQueries, 1, 3, qrng);
  for (const Query& q : in.join_fact_queries) {
    ddup::workload::JoinQuery jq;
    jq.joins = in.edges;
    for (const auto& p : q.predicates) {
      ddup::workload::BoundPredicate bp;
      bp.table = "fact";
      bp.predicate = p;
      jq.predicates.push_back(bp);
    }
    in.joins.Add(std::move(jq));
  }
  return in;
}

Stream MakeStream(const Inputs& inputs, const std::string& table,
                  int batches) {
  const FixtureTable& t = inputs.Find(table);
  // Three scenario streams over the table's own base rows: clean (never
  // drifts), sudden (joint permuted) and correlation_flip (AQP numeric
  // column rank-reversed). Batch i of the mixed stream takes batch i of
  // the source its cycle position names, so any prefix is a pure function
  // of (seed, table).
  datagen::ScenarioConfig config;
  config.dataset = t.dataset;
  config.base_rows = kBaseRows;
  config.batch_rows = kMicroBatchRows;
  config.num_batches = batches;
  config.seed = SubSeed(inputs.seed, NameHash(t.dataset));
  config.scenario = "sudden";
  config.onset_batch = batches;
  datagen::DriftStream clean = datagen::MakeScenario(config);
  config.onset_batch = 0;
  datagen::DriftStream sudden = datagen::MakeScenario(config);
  config.scenario = "correlation_flip";
  datagen::DriftStream flip = datagen::MakeScenario(config);

  Stream out;
  for (int i = 0; i < batches; ++i) {
    const int pos = i % kCycleBatches;
    const datagen::DriftStream& source =
        pos < kCleanBatches
            ? clean
            : (pos < kCleanBatches + kSuddenBatches ? sudden : flip);
    out.batches.push_back(source.batches[static_cast<size_t>(i)]);
  }
  return out;
}

EngineConfig MakeEngineConfig(uint64_t seed) {
  EngineConfig config;
  config.micro_batch_rows = kMicroBatchRows;
  config.update_workers = kUpdateWorkers;
  config.max_backlog_batches = kMaxBacklogBatches;
  config.admission_policy = "block";
  config.controller.detector.bootstrap_iterations = kBootstrapIterations;
  config.controller.detector.seed = SubSeed(seed, 41);
  config.controller.policy.distill.epochs = 4;
  config.controller.policy.finetune_epochs = 2;
  config.controller.seed = SubSeed(seed, 42);
  return config;
}

std::unique_ptr<Engine> SetUp(const Inputs& inputs,
                              const EngineConfig& config) {
  auto engine = std::make_unique<Engine>(config);
  for (const FixtureTable& t : inputs.tables) {
    ddup::Status st = engine->CreateTable(t.name, t.base);
    if (!st.ok()) Die("CreateTable " + t.name + ": " + st.ToString());
  }
  for (const FixtureTable& t : inputs.tables) {
    if (!t.has_model) continue;
    ddup::Status st = engine->AttachModel(t.name, t.spec);
    if (!st.ok()) Die("AttachModel " + t.name + ": " + st.ToString());
  }
  return engine;
}

ScoringSet MakeScoringSet(const Inputs& inputs,
                          const std::map<std::string, storage::Table>& finals,
                          uint64_t salt) {
  ScoringSet s;
  Rng rng(SubSeed(inputs.seed, 51 + salt));
  for (const auto& [table, final_table] : finals) {
    if (table == "ce") {
      s.ce_queries = CeQueries(final_table, kScoreCeQueries, 2, 5, rng);
      s.ce_truth = ddup::workload::ExecuteAll(final_table, s.ce_queries);
      s.ce_rows = final_table.num_rows();
      continue;
    }
    AqpScoring a;
    a.table = table;
    a.queries = AqpQueries(final_table, inputs.Find(table).dataset,
                           kScoreAqpQueries, rng);
    a.truth = ddup::workload::ExecuteAll(final_table, a.queries);
    a.rows = final_table.num_rows();
    s.aqp.push_back(std::move(a));
  }
  return s;
}

std::vector<double> ExactJoinCounts(const Inputs& inputs,
                                    const storage::Table& fact) {
  storage::Table joined = inputs.star.JoinWithFact(fact);
  std::vector<Query> remapped = inputs.join_fact_queries;
  for (Query& q : remapped) {
    for (auto& p : q.predicates) {
      p.column = joined.ColumnIndex(fact.column(p.column).name());
    }
  }
  return ddup::workload::ExecuteAll(joined, remapped);
}

}  // namespace ledger
