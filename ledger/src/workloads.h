// The ledger's workloads and the pieces they share: the read mix, the drift
// round and the staleness watcher. README.md explains why each workload
// exists.
#ifndef DDUP_LEDGER_WORKLOADS_H_
#define DDUP_LEDGER_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "fixture.h"
#include "report.h"

namespace ledger {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // checkpoints and reports, inside the checkout
  int nproc = 1;         // hardware threads; caps the generator threads
};

// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Everything a workload run shares: the inputs, the engine config and the
// checkpoint of the freshly set-up engine (the start state of every drift
// round and of the traced layer walk).
struct RunContext {
  RunOptions options;
  Inputs inputs;
  ddup::api::EngineConfig config;
  std::string setup_checkpoint;
  Report* report = nullptr;
};

// --- The read mix -----------------------------------------------------------

// One client's samples. A client runs whole rounds of a fixed request mix:
// 8 DARN batch-1, 1 DARN batch-32, 16 MDN batch-1 (4 per AQP table) and 2
// join requests.
struct ReadSamples {
  std::vector<double> ce_us;    // DARN batch-1 latency
  std::vector<double> aqp_us;   // MDN batch-1 latency
  std::vector<double> join_us;  // 3-table join latency
  int64_t answers = 0;
  int64_t rounds = 0;
  int64_t requests_ce_b1 = 0, requests_ce_b32 = 0, requests_aqp = 0,
          requests_join = 0;
  int64_t failed_ce_b1 = 0, failed_ce_b32 = 0, failed_aqp = 0, failed_join = 0;
  int64_t wrong = 0;  // answers that failed a check
  std::string first_wrong;
  // (seconds since the mix started, answers) at the end of every round:
  // estimate_qps is the median over fixed windows of these, so a burst of
  // lost CPU in one window does not move it.
  std::vector<std::pair<double, int64_t>> round_ends;
  void Merge(const ReadSamples& other);
};

// What a read-mix answer is checked against: every single-table answer must
// be byte-identical to the scalar answer on the served model (the engine is
// read-only while the mix runs), and every join answer to the same query's
// answer in one join batch.
struct ReadExpectations {
  std::vector<double> ce;                // per ce_queries[i]
  std::vector<std::vector<double>> aqp;  // [table][query]
  std::vector<double> join;              // per join query
};

// Scalar answers on the served models (TryEstimate* on Engine::model), for
// a quiesced engine. Checks each once through `report`: CE and AQP COUNT
// answers finite and within [0, table rows], the others finite.
ReadExpectations ScalarExpectations(ddup::api::Engine* engine,
                                    const Inputs& inputs, Report* report);

// Runs `clients` closed-loop client threads for `seconds`, each doing whole
// rounds. Returns the merged samples and the measured wall seconds.
ReadSamples RunReadMix(const ddup::api::Engine& engine, const Inputs& inputs,
                       const ReadExpectations& expect, int clients,
                       double seconds, double* wall_seconds);

// Folds read samples into the report's estimate metrics.
void ReportReadSamples(const ReadSamples& samples, double wall_seconds,
                       Report* report);

// --- Shared steps -----------------------------------------------------------

// Repeated Save/Load of `engine` with the bit-identity check; sets
// checkpoint_bytes, save_ms and load_ms samples.
struct CheckpointSamples {
  std::vector<double> save_ms, load_ms;
  int64_t bytes = 0;
};
void SaveLoadRounds(RunContext* ctx, const ddup::api::Engine& engine,
                    int repeats, CheckpointSamples* out);

// Engine-side InsertionReports, per table, in strand order.
using ReportsByTable =
    std::map<std::string, std::vector<ddup::core::InsertionReport>>;

// Staleness samples (ms) per table.
using StalenessByTable = std::map<std::string, std::vector<double>>;

// Size of a file in bytes (0 if missing).
int64_t FileBytes(const std::string& path);

int RunWorkload(const RunOptions& options, Report* report);

}  // namespace ledger

#endif  // DDUP_LEDGER_WORKLOADS_H_
