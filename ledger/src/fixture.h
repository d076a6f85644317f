// The ledger's fixture: every input a workload uses, derived from the run
// seed alone, and the engine set-up that `setup_s` times.
//
// Tables (one async api::Engine):
//   ce           census, DARN (cardinality; the drift-stream CE table)
//   aqp          census, MDN over (education, hours_per_week) (drift-stream
//                AQP table)
//   aqp_forest, aqp_dmv, aqp_tpcds
//                MDN AQP tables, so the read mix resolves several tables
//   fact, dim0, dim1
//                the JOB-like star schema: DARN on the fact table, exact
//                stats only on the dimensions; 3-table joins go through the
//                QueryRouter
#ifndef DDUP_LEDGER_FIXTURE_H_
#define DDUP_LEDGER_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "datagen/star_schema.h"
#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ledger {

namespace datagen = ddup::datagen;
namespace storage = ddup::storage;

// Fixed sizes; README.md lists them with their reasons.
inline constexpr int64_t kBaseRows = 4000;        // census/forest/dmv/tpcds
inline constexpr int64_t kFactRows = 4000;        // star-schema fact table
inline constexpr int64_t kMicroBatchRows = 250;   // rows per DDUp step
inline constexpr int64_t kMaxBacklogBatches = 4;  // block admission bound
inline constexpr int kUpdateWorkers = 2;
inline constexpr int kBootstrapIterations = 128;
// The drift stream cycles clean, sudden and correlation_flip batches.
inline constexpr int kCleanBatches = 6;
inline constexpr int kSuddenBatches = 5;
inline constexpr int kFlipBatches = 5;
inline constexpr int kCycleBatches = kCleanBatches + kSuddenBatches + kFlipBatches;
// Query sets.
inline constexpr int kCeQueries = 64;        // read mix, DARN on ce
inline constexpr int kAqpQueriesPerTable = 32;
inline constexpr int kJoinQueries = 16;
inline constexpr int kScoreCeQueries = 512;  // accuracy, per scored table
inline constexpr int kScoreAqpQueries = 1024;

struct FixtureTable {
  std::string name;
  std::string dataset;  // datagen name, or "" for the star-schema tables
  storage::Table base;
  bool has_model = false;
  ddup::api::ModelSpec spec;
};

// A drift stream for one table: micro-batch-sized batches in stream order.
struct Stream {
  std::vector<storage::Table> batches;
  int64_t rows() const;
};

struct Inputs {
  uint64_t seed = 0;
  std::vector<FixtureTable> tables;
  datagen::StarDataset star;
  std::vector<ddup::workload::JoinEdge> edges;

  // Read mix.
  std::vector<ddup::workload::Query> ce_queries;  // on "ce"
  std::vector<std::string> aqp_tables;            // MDN tables, sorted
  std::map<std::string, std::vector<ddup::workload::Query>> aqp_queries;
  std::vector<ddup::workload::Query> join_fact_queries;  // fact predicates
  ddup::workload::JoinQueryBatch joins;  // the same, lifted to 3-way joins

  const FixtureTable& Find(const std::string& name) const;
};

// Every input of a run, from the seed alone.
Inputs MakeInputs(uint64_t seed);

// Stream for `table` (a fixture table with a dataset): `batches` batches of
// kMicroBatchRows rows in the clean/sudden/flip cycle, batch i a pure
// function of (seed, table, i).
Stream MakeStream(const Inputs& inputs, const std::string& table, int batches);

// The engine configuration every workload uses.
ddup::api::EngineConfig MakeEngineConfig(uint64_t seed);

// Creates every table and attaches every model (training + first bootstrap
// + initial snapshot publish): the work `setup_s` times. Aborts the run on
// a failed call, since no workload can proceed without its tables.
std::unique_ptr<ddup::api::Engine> SetUp(const Inputs& inputs,
                                         const ddup::api::EngineConfig& config);

// Scoring sets for the accuracy metrics on post-insertion tables: CE
// (Naru) queries on "ce" and AQP (COUNT/SUM/AVG template) queries per
// scored MDN table, non-empty on the final table, with exact answers from
// workload::ExecuteAll.
struct AqpScoring {
  std::string table;
  std::vector<ddup::workload::Query> queries;
  std::vector<double> truth;
  int64_t rows = 0;  // final table rows
};
struct ScoringSet {
  std::vector<ddup::workload::Query> ce_queries;
  std::vector<double> ce_truth;
  int64_t ce_rows = 0;
  std::vector<AqpScoring> aqp;
};
// `finals` maps each scored table ("ce" and MDN tables) to its final rows.
ScoringSet MakeScoringSet(const Inputs& inputs,
                          const std::map<std::string, storage::Table>& finals,
                          uint64_t salt);

// Exact join counts for `inputs.join_fact_queries` over fact ⋈ dims.
std::vector<double> ExactJoinCounts(const Inputs& inputs,
                                    const storage::Table& fact);

}  // namespace ledger

#endif  // DDUP_LEDGER_FIXTURE_H_
