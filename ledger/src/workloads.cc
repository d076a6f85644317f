#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "layers.h"
#include "span.h"
#include "workload/metrics.h"

namespace ledger {

using ddup::StatusOr;
using ddup::api::Engine;
using ddup::api::EstimateRequest;
using ddup::api::EstimateResponse;
using ddup::workload::AggFunc;
using ddup::workload::Query;
using ddup::workload::QueryBatch;

namespace {

// Accuracy ceilings (README.md, "Output checks"): a run whose median error
// after the stream exceeds these fails, so a speed-up that trades away
// accuracy cannot pass as a gain.
constexpr double kCeQErrorCeiling = 4.0;
constexpr double kAqpRelErrCeiling = 30.0;  // percent

// Ingest granularity: small chunks, so most Ingest calls only buffer and
// one in 25 completes a micro-batch.
constexpr int64_t kChunkRows = 10;
// Drift rounds run at least this many times per drift_update run, so the
// pooled percentiles always have their samples.
constexpr int kMinDriftRounds = 4;
constexpr int kEpilogueDriftRounds = 6;
constexpr int kSaveLoadRepeats = 3;
constexpr int kDriftCycles = 12;
constexpr int kAccuracyRounds = 3;
// Report takes the table mutex Ingest also takes, so the watcher polls at a
// few percent of the ~200 ms staleness it measures and no faster.
constexpr double kWatchPollSeconds = 0.005;
constexpr double kQpsWindowSeconds = 0.5;

const char* const kStreamTables[] = {"ce", "aqp"};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double Seconds(double since) { return NowSeconds() - since; }

StatusOr<EstimateResponse> Estimate(const Engine& engine,
                                    const EstimateRequest& request) {
  Span span("api.Engine::Estimate");
  return engine.Estimate(request);
}

EstimateRequest SingleRequest(EstimateRequest::Kind kind,
                              const std::string& table,
                              std::vector<Query> queries) {
  EstimateRequest r;
  r.kind = kind;
  r.table = table;
  r.queries = QueryBatch(std::move(queries));
  return r;
}

EstimateRequest JoinRequest(const ddup::workload::JoinQuery& query) {
  EstimateRequest r;
  r.joins.Add(query);
  return r;
}

bool InRange(double v, int64_t rows) {
  return std::isfinite(v) && v >= 0.0 && v <= static_cast<double>(rows);
}

// --- Staleness watcher --------------------------------------------------------

// Tracks, per table, the publish count each completed micro-batch needs and
// when its Ingest returned, and resolves them against Engine::Report from
// its own thread (the producer blocks in Ingest).
class Watcher {
 public:
  Watcher(const Engine& engine, std::vector<std::string> tables)
      : engine_(engine), tables_(std::move(tables)) {
    for (const std::string& t : tables_) {
      expected_[t] = engine_.Report(t).value().snapshot_publishes;
    }
  }
  ~Watcher() { Stop(); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  // The Ingest on `table` that returned at `since` enqueued `batches`.
  void Expect(const std::string& table, int64_t batches, double since) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t b = 0; b < batches; ++b) {
      expected_[table] += 1;
      pending_[table].push_back({expected_[table], since});
    }
  }

  // Polls on a fixed schedule, recording how late each poll started.
  void Start() {
    thread_ = std::thread([this] {
      const double start = NowSeconds();
      for (int64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
        const double due = start + static_cast<double>(i) * kWatchPollSeconds;
        const double wait = due - NowSeconds();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        late_ms_.push_back((NowSeconds() - due) * 1e3);
        Poll();
      }
      Poll();
    });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  StalenessByTable staleness_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return staleness_ms_;
  }
  int64_t unresolved() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t n = 0;
    for (const auto& [t, q] : pending_) n += static_cast<int64_t>(q.size());
    return n;
  }
  int64_t bytes_peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_peak_;
  }
  // Poll-schedule lateness; read after Stop().
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  struct Pending {
    int64_t publish;
    double since;
  };

  void Poll() {
    for (const std::string& t : tables_) {
      StatusOr<ddup::api::TableReport> r = engine_.Report(t);
      if (!r.ok()) continue;
      const double now = NowSeconds();
      std::lock_guard<std::mutex> lock(mu_);
      bytes_peak_ = std::max(bytes_peak_, r.value().buffered_bytes);
      auto& q = pending_[t];
      while (!q.empty() && q.front().publish <= r.value().snapshot_publishes) {
        staleness_ms_[t].push_back((now - q.front().since) * 1e3);
        q.pop_front();
      }
    }
  }

  const Engine& engine_;
  std::vector<std::string> tables_;
  mutable std::mutex mu_;
  std::map<std::string, int64_t> expected_;  // publish count to wait for
  std::map<std::string, std::deque<Pending>> pending_;
  StalenessByTable staleness_ms_;
  int64_t bytes_peak_ = 0;
  std::vector<double> late_ms_;  // watcher thread only
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One timed Ingest, classified for the trace by what it did.
struct IngestOutcome {
  bool ok = false;
  int64_t batches_enqueued = 0;
  double seconds = 0.0;
};
IngestOutcome TimedIngest(Engine* engine, const std::string& table,
                          const storage::Table& chunk) {
  Span span("api.Engine::Ingest");
  IngestOutcome out;
  auto result = engine->Ingest(table, chunk);
  out.seconds = span.Elapsed();
  out.ok = result.ok();
  if (out.ok) {
    out.batches_enqueued = result.value().rows_enqueued / kMicroBatchRows;
    span.Rename(out.batches_enqueued > 0 ? "api.Engine::Ingest.enqueue"
                                         : "api.Engine::Ingest.buffer");
  }
  return out;
}

std::vector<storage::Table> Chunks(const Stream& stream) {
  std::vector<storage::Table> out;
  for (const storage::Table& batch : stream.batches) {
    for (int64_t r = 0; r < batch.num_rows(); r += kChunkRows) {
      std::vector<int64_t> rows;
      for (int64_t i = r; i < std::min(batch.num_rows(), r + kChunkRows); ++i) {
        rows.push_back(i);
      }
      out.push_back(batch.TakeRows(rows));
    }
  }
  return out;
}

// Collects the InsertionReports of the streamed tables (Flush per table),
// then sweeps the registry with FlushAll.
bool FlushStreamed(RunContext* ctx, Engine* engine,
                   const std::vector<std::string>& tables,
                   ReportsByTable* reports) {
  bool ok = true;
  for (const std::string& t : tables) {
    Span span("api.Engine::Flush");
    auto r = engine->Flush(t);
    ctx->report->CountOps("flush", 1, r.ok() ? 0 : 1);
    if (!r.ok()) {
      ok = false;
      continue;
    }
    auto& mine = (*reports)[t];
    mine.insert(mine.end(), r.value().reports.begin(), r.value().reports.end());
  }
  Span span("api.Engine::FlushAll");
  auto all = engine->FlushAll();
  ctx->report->CountOps("flush", 1, all.ok() ? 0 : 1);
  return ok && all.ok();
}

// Single-table answers used for the Save/Load bit-identity check.
std::vector<double> ProbeAnswers(const Engine& engine, const Inputs& inputs) {
  std::vector<double> out;
  auto add = [&](const StatusOr<EstimateResponse>& r) {
    if (!r.ok()) {
      out.push_back(std::nan(""));
      return;
    }
    out.insert(out.end(), r.value().answers.begin(), r.value().answers.end());
  };
  add(Estimate(engine, SingleRequest(EstimateRequest::Kind::kCardinality, "ce",
                                     inputs.ce_queries)));
  for (const std::string& t : inputs.aqp_tables) {
    add(Estimate(engine, SingleRequest(EstimateRequest::Kind::kAqp, t,
                                       inputs.aqp_queries.at(t))));
  }
  EstimateRequest joins;
  joins.joins = inputs.joins;
  add(Estimate(engine, joins));
  return out;
}

// --- Accuracy scoring ---------------------------------------------------------

struct ScoreResult {
  std::vector<double> ce_us, aqp_us, join_us;
  int64_t answers = 0;
  double seconds = 0.0;
  double qerror_p50 = 0.0;
  double relerr_p50 = 0.0;  // mean over the scored AQP tables
};

bool SameAnswers(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

// Batch-1 estimates of `queries` on `table`, timed into `us`.
std::vector<double> ScoreBatch1(const Engine& engine, EstimateRequest::Kind kind,
                                const std::string& table,
                                const std::vector<Query>& queries,
                                std::vector<double>* us, int64_t* failed) {
  std::vector<double> out;
  for (const Query& q : queries) {
    const double t0 = NowSeconds();
    auto r = Estimate(engine, SingleRequest(kind, table, {q}));
    us->push_back(Seconds(t0) * 1e6);
    if (!r.ok()) *failed += 1;
    out.push_back(r.ok() ? r.value().answers[0] : std::nan(""));
  }
  return out;
}

// The same queries in batches of 32, against `expected`.
bool BatchesMatch(const Engine& engine, EstimateRequest::Kind kind,
                  const std::string& table, const std::vector<Query>& queries,
                  const std::vector<double>& expected, Report* report) {
  bool same = true;
  for (size_t b = 0; b < queries.size(); b += 32) {
    const size_t e = std::min(queries.size(), b + 32);
    auto r = Estimate(engine, SingleRequest(kind, table,
                                            std::vector<Query>(
                                                queries.begin() + static_cast<std::ptrdiff_t>(b),
                                                queries.begin() + static_cast<std::ptrdiff_t>(e))));
    report->CountOps("estimate.score.b32", 1, r.ok() ? 0 : 1);
    same = same && r.ok() &&
           SameAnswers(r.value().answers,
                       std::vector<double>(expected.begin() + static_cast<std::ptrdiff_t>(b),
                                           expected.begin() + static_cast<std::ptrdiff_t>(e)));
  }
  return same;
}

// Scores the post-insertion engine against exact answers: CE q-error on
// "ce", AQP relative error per scored MDN table, join answers checked for
// range. Batch-1 answers must equal the scalar TryEstimate* answers on the
// served model and the batch-32 answers, bit for bit. The engine must be
// quiesced.
ScoreResult Score(RunContext* ctx, Engine* engine, const ScoringSet& set,
                  const std::vector<double>& join_truth) {
  Report* report = ctx->report;
  ScoreResult out;
  int64_t failed = 0;
  const double start = NowSeconds();
  const std::vector<double> ce =
      ScoreBatch1(*engine, EstimateRequest::Kind::kCardinality, "ce",
                  set.ce_queries, &out.ce_us, &failed);
  std::vector<std::vector<double>> aqp;
  for (const AqpScoring& a : set.aqp) {
    aqp.push_back(ScoreBatch1(*engine, EstimateRequest::Kind::kAqp, a.table,
                              a.queries, &out.aqp_us, &failed));
  }
  std::vector<double> joins;
  for (const auto& jq : ctx->inputs.joins.queries) {
    const double t0 = NowSeconds();
    auto r = Estimate(*engine, JoinRequest(jq));
    out.join_us.push_back(Seconds(t0) * 1e6);
    if (!r.ok()) failed += 1;
    joins.push_back(r.ok() ? r.value().answers[0] : std::nan(""));
  }
  out.seconds = Seconds(start);
  out.answers = static_cast<int64_t>(out.ce_us.size() + out.aqp_us.size() +
                                     out.join_us.size());
  report->CountOps("estimate.score.b1", out.answers, failed);

  // Range checks.
  int64_t bad = 0;
  std::string first_bad;
  auto range = [&](bool ok, const std::string& what, double v) {
    if (ok) return;
    if (bad++ == 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " = %.17g", v);
      first_bad = what + buf;
    }
  };
  for (size_t i = 0; i < ce.size(); ++i) {
    range(InRange(ce[i], set.ce_rows), "ce query " + std::to_string(i), ce[i]);
  }
  for (size_t t = 0; t < aqp.size(); ++t) {
    for (size_t i = 0; i < aqp[t].size(); ++i) {
      const bool count = set.aqp[t].queries[i].agg == AggFunc::kCount;
      range(count ? InRange(aqp[t][i], set.aqp[t].rows)
                  : std::isfinite(aqp[t][i]),
            set.aqp[t].table + " query " + std::to_string(i), aqp[t][i]);
    }
  }
  for (size_t i = 0; i < joins.size(); ++i) {
    range(std::isfinite(joins[i]) && joins[i] >= 0.0,
          "join query " + std::to_string(i), joins[i]);
  }
  report->Check(bad == 0, "score: " + std::to_string(bad) +
                              " estimates non-finite or outside [0, rows]" +
                              " (first: " + first_bad + ")");

  // Batch answers and the scalar path on the served model.
  bool same = BatchesMatch(*engine, EstimateRequest::Kind::kCardinality, "ce",
                           set.ce_queries, ce, report);
  const auto* card = dynamic_cast<const ddup::core::CardinalityEstimator*>(
      engine->model("ce"));
  for (size_t i = 0; card != nullptr && i < ce.size(); ++i) {
    auto scalar = card->TryEstimateCardinality(set.ce_queries[i]);
    same = same && scalar.ok() && SameBits(scalar.value(), ce[i]);
  }
  for (size_t t = 0; t < aqp.size(); ++t) {
    const AqpScoring& a = set.aqp[t];
    same = same && BatchesMatch(*engine, EstimateRequest::Kind::kAqp, a.table,
                                a.queries, aqp[t], report);
    const auto* model =
        dynamic_cast<const ddup::core::AqpEstimator*>(engine->model(a.table));
    const storage::Table& schema = ctx->inputs.Find(a.table).base;
    for (size_t i = 0; model != nullptr && i < aqp[t].size(); ++i) {
      auto scalar = model->TryEstimateAqp(a.queries[i], schema);
      same = same && scalar.ok() && SameBits(scalar.value(), aqp[t][i]);
    }
    same = same && model != nullptr;
  }
  report->Check(same && card != nullptr,
                "score: batch-1, batch-32 and scalar TryEstimate* answers "
                "differ");

  std::vector<double> qerrors;
  for (size_t i = 0; i < ce.size(); ++i) {
    qerrors.push_back(ddup::workload::QError(ce[i], set.ce_truth[i]));
  }
  out.qerror_p50 = Median(qerrors);
  // COUNT, SUM and AVG errors differ by several times, so a median pooled
  // over them would sit between clusters: take the median per (table,
  // aggregate) and average those.
  std::map<std::pair<size_t, int>, std::vector<double>> relerrs;
  for (size_t t = 0; t < aqp.size(); ++t) {
    for (size_t i = 0; i < aqp[t].size(); ++i) {
      relerrs[{t, static_cast<int>(set.aqp[t].queries[i].agg)}].push_back(
          ddup::workload::RelativeErrorPercent(aqp[t][i], set.aqp[t].truth[i]));
    }
  }
  for (const auto& [key, errors] : relerrs) {
    out.relerr_p50 += Median(errors) / static_cast<double>(relerrs.size());
  }
  std::vector<double> join_qerrors;
  for (size_t i = 0; i < joins.size() && i < join_truth.size(); ++i) {
    if (join_truth[i] > 0) {
      join_qerrors.push_back(ddup::workload::QError(joins[i], join_truth[i]));
    }
  }
  report->Set("join_qerror_p50", "ratio", Median(join_qerrors),
              static_cast<int64_t>(join_qerrors.size()));
  report->Check(out.qerror_p50 >= 1.0 && out.qerror_p50 < kCeQErrorCeiling,
                "score: median CE q-error " + std::to_string(out.qerror_p50) +
                    " not under the ceiling");
  report->Check(out.relerr_p50 < kAqpRelErrCeiling,
                "score: median AQP relative error " +
                    std::to_string(out.relerr_p50) + "% not under the ceiling");
  return out;
}

// Checks Report(t).rows == base rows + every ingested row.
void CheckRows(RunContext* ctx, const Engine& engine, const std::string& table,
               int64_t ingested) {
  auto r = engine.Report(table);
  const int64_t want = ctx->inputs.Find(table).base.num_rows() + ingested;
  ctx->report->Check(r.ok() && r.value().rows == want &&
                         r.value().buffered_rows == 0,
                     "rows after FlushAll on " + table + ": want " +
                         std::to_string(want) + ", got " +
                         (r.ok() ? std::to_string(r.value().rows) : "error"));
}

storage::Table Concat(const storage::Table& base, const Stream& stream,
                      int64_t rows) {
  storage::Table out = base;
  int64_t left = rows;
  for (const storage::Table& b : stream.batches) {
    if (left <= 0) break;
    out.Append(left >= b.num_rows() ? b : b.Head(left));
    left -= b.num_rows();
  }
  return out;
}

// Engine-side queue wait per batch, summed over `tables`.
double QueueWaitMsPerBatch(const Engine& engine,
                           const std::vector<std::string>& tables) {
  double seconds = 0.0;
  int64_t batches = 0;
  for (const std::string& t : tables) {
    auto r = engine.Report(t);
    if (!r.ok()) continue;
    seconds += r.value().queue_seconds;
    batches += r.value().async_batches;
  }
  return batches > 0 ? seconds / static_cast<double>(batches) * 1e3 : 0.0;
}

// --- The drift round ----------------------------------------------------------

// What every drift round measures, pooled over rounds.
struct DriftPool {
  std::vector<double> rows_per_s;
  std::vector<double> ingest_us;         // every Ingest call
  std::vector<double> ingest_buffer_us;  // Ingest calls that only buffered
  StalenessByTable staleness_ms;
  std::vector<double> late_ms;  // watcher poll schedule
  int64_t buffered_bytes_peak = 0;
  std::vector<double> queue_wait_ms;  // per round, per batch
  ReportsByTable reports;             // every round
  ReportsByTable first_pass;          // round 0
  ScoreResult score;                  // pooled latency samples
  std::vector<double> score_qps;      // per round
  double qerror_p50 = 0.0, relerr_p50 = 0.0;
  CheckpointSamples checkpoint;
  int rounds = 0;
};

// The census drift stream for drift rounds: kDriftCycles different cycles
// (round r streams cycle r mod kDriftCycles), so a run's median averages
// over the cycles' different OOD/IND decisions.
struct DriftInputs {
  std::vector<Stream> cycles;
  std::vector<std::vector<storage::Table>> chunks;
  std::vector<double> join_truth;
};

DriftInputs MakeDriftInputs(const RunContext& ctx) {
  DriftInputs d;
  const Stream all = MakeStream(ctx.inputs, "ce", kCycleBatches * kDriftCycles);
  for (int c = 0; c < kDriftCycles; ++c) {
    Stream cycle;
    for (int i = 0; i < kCycleBatches; ++i) {
      const size_t at = static_cast<size_t>(c * kCycleBatches + i);
      cycle.batches.push_back(all.batches[at]);
    }
    d.chunks.push_back(Chunks(cycle));
    d.cycles.push_back(std::move(cycle));
  }
  d.join_truth = ExactJoinCounts(ctx.inputs, ctx.inputs.star.fact);
  return d;
}

// One drift round: load the set-up checkpoint, stream one drift cycle into
// "ce" and "aqp" as fast as block admission allows, flush, score against
// exact answers on the post-insertion tables, then Save/Load.
void DriftRound(RunContext* ctx, const DriftInputs& d, DriftPool* pool) {
  Report* report = ctx->report;
  const size_t cycle = static_cast<size_t>(pool->rounds % kDriftCycles);
  const Stream& stream = d.cycles[cycle];
  const std::vector<storage::Table>& chunks = d.chunks[cycle];
  std::unique_ptr<Engine> engine;
  {
    Span span("api.Engine::Load");
    auto loaded = Engine::Load(ctx->setup_checkpoint, ctx->config);
    report->CountOps("load", 1, loaded.ok() ? 0 : 1);
    if (!loaded.ok()) {
      report->Check(false, "drift round: Load failed: " +
                               loaded.status().ToString());
      return;
    }
    engine = std::move(loaded).value();
  }
  const std::vector<std::string> tables(std::begin(kStreamTables),
                                        std::end(kStreamTables));
  Watcher watcher(*engine, tables);
  watcher.Start();
  int64_t failed = 0;
  ReportsByTable reports;
  const double start = NowSeconds();
  for (const storage::Table& chunk : chunks) {
    for (const std::string& t : tables) {
      IngestOutcome o = TimedIngest(engine.get(), t, chunk);
      pool->ingest_us.push_back(o.seconds * 1e6);
      if (!o.ok) {
        failed += 1;
      } else if (o.batches_enqueued > 0) {
        watcher.Expect(t, o.batches_enqueued, NowSeconds());
      } else {
        pool->ingest_buffer_us.push_back(o.seconds * 1e6);
      }
    }
  }
  const bool flushed = FlushStreamed(ctx, engine.get(), tables, &reports);
  const double seconds = Seconds(start);
  watcher.Stop();
  report->CountOps("ingest", static_cast<int64_t>(chunks.size() * tables.size()),
                   failed);
  report->Check(flushed, "drift round: flush failed");
  report->Check(watcher.unresolved() == 0,
                "drift round: a completed micro-batch never published");
  pool->rows_per_s.push_back(
      static_cast<double>(stream.rows() * static_cast<int64_t>(tables.size())) /
      seconds);
  for (const auto& [t, v] : watcher.staleness_ms()) {
    auto& mine = pool->staleness_ms[t];
    mine.insert(mine.end(), v.begin(), v.end());
  }
  pool->late_ms.insert(pool->late_ms.end(), watcher.late_ms().begin(),
                       watcher.late_ms().end());
  pool->buffered_bytes_peak =
      std::max(pool->buffered_bytes_peak, watcher.bytes_peak());
  pool->queue_wait_ms.push_back(QueueWaitMsPerBatch(*engine, tables));
  for (const auto& [t, rs] : reports) {
    auto& all = pool->reports[t];
    all.insert(all.end(), rs.begin(), rs.end());
  }
  if (pool->rounds == 0) pool->first_pass = reports;
  for (const std::string& t : tables) CheckRows(ctx, *engine, t, stream.rows());

  const storage::Table final_table =
      Concat(ctx->inputs.Find("ce").base, stream, stream.rows());
  const ScoringSet set = MakeScoringSet(
      ctx->inputs, {{"ce", final_table}, {"aqp", final_table}},
      static_cast<uint64_t>(cycle));
  ScoreResult s = Score(ctx, engine.get(), set, d.join_truth);
  // Accuracy: the mean over the first kAccuracyRounds rounds (fixed
  // cycles), so it repeats exactly for a seed however long the run.
  if (pool->rounds < kAccuracyRounds) {
    pool->qerror_p50 += s.qerror_p50 / kAccuracyRounds;
    pool->relerr_p50 += s.relerr_p50 / kAccuracyRounds;
  }
  pool->score.ce_us.insert(pool->score.ce_us.end(), s.ce_us.begin(),
                           s.ce_us.end());
  pool->score.aqp_us.insert(pool->score.aqp_us.end(), s.aqp_us.begin(),
                            s.aqp_us.end());
  pool->score.join_us.insert(pool->score.join_us.end(), s.join_us.begin(),
                             s.join_us.end());
  pool->score.answers += s.answers;
  pool->score_qps.push_back(static_cast<double>(s.answers) / s.seconds);
  SaveLoadRounds(ctx, *engine, kSaveLoadRepeats, &pool->checkpoint);
  pool->rounds += 1;
}

// staleness_ms: the mean over the streamed tables of each table's median.
// Tables differ in update cost by 10x (DARN vs MDN), so a median pooled
// over tables would sit on the boundary between two clusters.
void ReportStaleness(const StalenessByTable& by_table, Report* report) {
  double sum = 0.0;
  int64_t samples = 0;
  for (const auto& [t, v] : by_table) {
    report->Check(static_cast<int64_t>(v.size()) >= MinSamplesFor(50),
                  "staleness on " + t + ": " + std::to_string(v.size()) +
                      " samples");
    sum += Median(v);
    samples += static_cast<int64_t>(v.size());
    report->Set("staleness_ms." + t, "ms", Median(v),
                static_cast<int64_t>(v.size()));
  }
  report->Set("staleness_ms", "ms",
              by_table.empty() ? 0.0 : sum / static_cast<double>(by_table.size()),
              samples);
}

void ReportCheckpoint(const CheckpointSamples& c, Report* report) {
  report->Set("checkpoint_bytes", "bytes", static_cast<double>(c.bytes), 1);
  report->Set("save_ms", "ms", Median(c.save_ms),
              static_cast<int64_t>(c.save_ms.size()));
  report->Set("load_ms", "ms", Median(c.load_ms),
              static_cast<int64_t>(c.load_ms.size()));
}

// Update-side metrics every drift round produces.
void ReportDriftPool(const DriftPool& pool, Report* report) {
  report->Set("ingest_rows_per_s", "rows/s", Median(pool.rows_per_s),
              static_cast<int64_t>(pool.rows_per_s.size()));
  report->SetPercentile("ingest_p99_us", "us", pool.ingest_us, 99);
  ReportStaleness(pool.staleness_ms, report);
  report->Set("ce_qerror_p50", "ratio", pool.qerror_p50, kScoreCeQueries);
  report->Set("aqp_relerr_p50", "%", pool.relerr_p50, kScoreAqpQueries);
  ReportCheckpoint(pool.checkpoint, report);
  report->Set("api.ingest_buffer_us", "us", Median(pool.ingest_buffer_us),
              static_cast<int64_t>(pool.ingest_buffer_us.size()));
  report->Set("api.queue_wait_ms", "ms", Median(pool.queue_wait_ms),
              static_cast<int64_t>(pool.queue_wait_ms.size()));
  report->Set("storage.buffered_bytes_peak", "bytes",
              static_cast<double>(pool.buffered_bytes_peak), pool.rounds);
  report->SetPercentile("bench.generator_late_p99_ms", "ms", pool.late_ms, 99);
  report->Set("drift.rounds", "count", pool.rounds, pool.rounds);
}

void WalkAfterDrift(RunContext* ctx, const DriftInputs& d,
                    const DriftPool& pool) {
  WalkInputs in;
  in.stream = &d.cycles[0];
  in.reports = &pool.reports;
  in.first_pass = &pool.first_pass;
  in.staleness_ms = pool.staleness_ms;
  RunLayerWalk(ctx, in);
}

// --- Workloads ----------------------------------------------------------------

void EstimateRead(RunContext* ctx, Engine* engine) {
  Report* report = ctx->report;
  ReadExpectations expect = ScalarExpectations(engine, ctx->inputs, report);
  double wall = 0.0;
  const int clients = std::max(1, ctx->options.nproc);
  report->Stamp("client_threads", std::to_string(clients));
  ReadSamples samples = RunReadMix(*engine, ctx->inputs, expect, clients,
                                   ctx->options.seconds, &wall);
  ReportReadSamples(samples, wall, report);

  // Epilogue: the update-side metrics, from drift rounds on engines loaded
  // from the set-up checkpoint (the read phase above is over).
  DriftInputs d = MakeDriftInputs(*ctx);
  DriftPool pool;
  for (int r = 0; r < kEpilogueDriftRounds; ++r) {
    DriftRound(ctx, d, &pool);
  }
  ReportDriftPool(pool, report);
  if (ctx->options.trace) WalkAfterDrift(ctx, d, pool);
}

void DriftUpdate(RunContext* ctx) {
  Report* report = ctx->report;
  DriftInputs d = MakeDriftInputs(*ctx);
  DriftPool pool;
  report->Stamp("client_threads", "1 producer + 1 watcher");
  const double start = NowSeconds();
  while (pool.rounds < kMinDriftRounds ||
         Seconds(start) < ctx->options.seconds) {
    DriftRound(ctx, d, &pool);
    if (!report->correct()) break;
  }
  ReportDriftPool(pool, report);
  // The read-side metrics of this workload come from the scoring passes.
  report->Set("estimate_qps", "queries/s", Median(pool.score_qps),
              pool.score.answers);
  report->SetPercentile("ce_estimate_p50_us", "us", pool.score.ce_us, 50);
  report->SetPercentile("ce_estimate_p99_us", "us", pool.score.ce_us, 99);
  report->SetPercentile("aqp_estimate_p50_us", "us", pool.score.aqp_us, 50);
  report->SetPercentile("aqp_estimate_p99_us", "us", pool.score.aqp_us, 99);
  report->SetPercentile("join_estimate_p50_us", "us", pool.score.join_us, 50);
  if (ctx->options.trace) WalkAfterDrift(ctx, d, pool);
}

}  // namespace

// --- Read mix -----------------------------------------------------------------

void ReadSamples::Merge(const ReadSamples& o) {
  ce_us.insert(ce_us.end(), o.ce_us.begin(), o.ce_us.end());
  aqp_us.insert(aqp_us.end(), o.aqp_us.begin(), o.aqp_us.end());
  join_us.insert(join_us.end(), o.join_us.begin(), o.join_us.end());
  answers += o.answers;
  rounds += o.rounds;
  requests_ce_b1 += o.requests_ce_b1;
  requests_ce_b32 += o.requests_ce_b32;
  requests_aqp += o.requests_aqp;
  requests_join += o.requests_join;
  failed_ce_b1 += o.failed_ce_b1;
  failed_ce_b32 += o.failed_ce_b32;
  failed_aqp += o.failed_aqp;
  failed_join += o.failed_join;
  wrong += o.wrong;
  if (first_wrong.empty()) first_wrong = o.first_wrong;
  round_ends.insert(round_ends.end(), o.round_ends.begin(), o.round_ends.end());
}

ReadExpectations ScalarExpectations(Engine* engine, const Inputs& inputs,
                                    Report* report) {
  ReadExpectations e;
  int64_t bad = 0;
  std::string first_bad;
  auto check = [&](bool ok, const std::string& what, double v) {
    if (ok) return;
    if (bad++ == 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " = %.17g", v);
      first_bad = what + buf;
    }
  };
  const auto* card = dynamic_cast<const ddup::core::CardinalityEstimator*>(
      engine->model("ce"));
  const int64_t ce_rows = engine->Report("ce").value().rows;
  for (size_t i = 0; i < inputs.ce_queries.size(); ++i) {
    auto r = card->TryEstimateCardinality(inputs.ce_queries[i]);
    e.ce.push_back(r.ok() ? r.value() : std::nan(""));
    check(InRange(e.ce.back(), ce_rows), "ce query " + std::to_string(i),
          e.ce.back());
  }
  for (const std::string& t : inputs.aqp_tables) {
    const auto* aqp =
        dynamic_cast<const ddup::core::AqpEstimator*>(engine->model(t));
    const int64_t rows = engine->Report(t).value().rows;
    const std::vector<Query>& qs = inputs.aqp_queries.at(t);
    std::vector<double> answers;
    for (size_t i = 0; i < qs.size(); ++i) {
      auto r = aqp->TryEstimateAqp(qs[i], inputs.Find(t).base);
      answers.push_back(r.ok() ? r.value() : std::nan(""));
      check(qs[i].agg == AggFunc::kCount ? InRange(answers.back(), rows)
                                         : std::isfinite(answers.back()),
            t + " query " + std::to_string(i), answers.back());
    }
    e.aqp.push_back(std::move(answers));
  }
  EstimateRequest joins;
  joins.joins = inputs.joins;
  auto r = engine->Estimate(joins);
  if (r.ok()) e.join = r.value().answers;
  for (size_t i = 0; i < e.join.size(); ++i) {
    check(std::isfinite(e.join[i]) && e.join[i] >= 0.0,
          "join query " + std::to_string(i), e.join[i]);
  }
  report->Check(r.ok() && e.join.size() == inputs.joins.queries.size(),
                "read mix: join batch failed");
  report->Check(bad == 0, "read mix: " + std::to_string(bad) +
                              " estimates non-finite or outside [0, rows]" +
                              " (first: " + first_bad + ")");
  return e;
}

ReadSamples RunReadMix(const Engine& engine, const Inputs& inputs,
                       const ReadExpectations& expect, int clients,
                       double seconds, double* wall_seconds) {
  const int n_tables = static_cast<int>(inputs.aqp_tables.size());
  std::vector<ReadSamples> per(static_cast<size_t>(clients));
  const double start = NowSeconds();
  auto client = [&](int c) {
    ReadSamples& s = per[static_cast<size_t>(c)];
    auto wrong = [&](bool ok, const std::string& what) {
      if (ok) return;
      s.wrong += 1;
      if (s.first_wrong.empty()) s.first_wrong = what;
    };
    auto check_ce = [&](size_t qi, double v) {
      wrong(SameBits(v, expect.ce[qi]), "ce answer != scalar TryEstimate");
    };
    for (int64_t round = 0; Seconds(start) < seconds; ++round) {
      const int64_t seq = round * clients + c;
      const int64_t answers_before = s.answers;
      for (int i = 0; i < 8; ++i) {
        const size_t qi = static_cast<size_t>((seq * 8 + i) % kCeQueries);
        const double t0 = NowSeconds();
        auto r = Estimate(engine,
                          SingleRequest(EstimateRequest::Kind::kCardinality,
                                        "ce", {inputs.ce_queries[qi]}));
        s.ce_us.push_back(Seconds(t0) * 1e6);
        s.requests_ce_b1 += 1;
        if (!r.ok()) {
          s.failed_ce_b1 += 1;
          continue;
        }
        s.answers += 1;
        check_ce(qi, r.value().answers[0]);
      }
      {
        const size_t b = static_cast<size_t>(seq % (kCeQueries / 32)) * 32;
        std::vector<Query> qs(inputs.ce_queries.begin() + static_cast<std::ptrdiff_t>(b),
                              inputs.ce_queries.begin() + static_cast<std::ptrdiff_t>(b + 32));
        auto r = Estimate(engine,
                          SingleRequest(EstimateRequest::Kind::kCardinality,
                                        "ce", std::move(qs)));
        s.requests_ce_b32 += 1;
        if (!r.ok()) {
          s.failed_ce_b32 += 1;
        } else {
          s.answers += 32;
          for (size_t i = 0; i < 32; ++i) check_ce(b + i, r.value().answers[i]);
        }
      }
      for (int i = 0; i < 16; ++i) {
        const int ti = i % n_tables;
        const std::string& table = inputs.aqp_tables[static_cast<size_t>(ti)];
        const auto& qs = inputs.aqp_queries.at(table);
        const size_t qi = static_cast<size_t>((seq * 4 + i / n_tables) %
                                              static_cast<int64_t>(qs.size()));
        const double t0 = NowSeconds();
        auto r = Estimate(engine, SingleRequest(EstimateRequest::Kind::kAqp,
                                                table, {qs[qi]}));
        s.aqp_us.push_back(Seconds(t0) * 1e6);
        s.requests_aqp += 1;
        if (!r.ok()) {
          s.failed_aqp += 1;
          continue;
        }
        s.answers += 1;
        wrong(SameBits(r.value().answers[0],
                       expect.aqp[static_cast<size_t>(ti)][qi]),
              "aqp answer != scalar TryEstimate");
      }
      for (int i = 0; i < 2; ++i) {
        const size_t qi = static_cast<size_t>((seq * 2 + i) % kJoinQueries);
        const double t0 = NowSeconds();
        auto r = Estimate(engine, JoinRequest(inputs.joins.queries[qi]));
        s.join_us.push_back(Seconds(t0) * 1e6);
        s.requests_join += 1;
        if (!r.ok()) {
          s.failed_join += 1;
          continue;
        }
        s.answers += 1;
        // Joins: a batch-1 answer must equal the same query's answer in the
        // batch.
        wrong(qi < expect.join.size() &&
                  SameBits(r.value().answers[0], expect.join[qi]),
              "join answer != its answer in the join batch");
      }
      s.rounds += 1;
      s.round_ends.emplace_back(Seconds(start), s.answers - answers_before);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  *wall_seconds = Seconds(start);
  ReadSamples merged;
  for (const ReadSamples& s : per) merged.Merge(s);
  return merged;
}

void ReportReadSamples(const ReadSamples& s, double wall_seconds,
                       Report* report) {
  report->CountOps("estimate.ce.b1", s.requests_ce_b1, s.failed_ce_b1);
  report->CountOps("estimate.ce.b32", s.requests_ce_b32, s.failed_ce_b32);
  report->CountOps("estimate.aqp.b1", s.requests_aqp, s.failed_aqp);
  report->CountOps("estimate.join.b1", s.requests_join, s.failed_join);
  report->Check(s.wrong == 0, "read mix: " + std::to_string(s.wrong) +
                                  " wrong answers (first: " + s.first_wrong +
                                  ")");
  // Median over whole windows of kQpsWindowSeconds.
  const int windows = static_cast<int>(wall_seconds / kQpsWindowSeconds);
  std::vector<double> per_window(static_cast<size_t>(std::max(windows, 1)), 0);
  for (const auto& [t, n] : s.round_ends) {
    const int w = static_cast<int>(t / kQpsWindowSeconds);
    if (w < windows) per_window[static_cast<size_t>(w)] += static_cast<double>(n);
  }
  for (double& v : per_window) v /= kQpsWindowSeconds;
  report->Set("estimate_qps", "queries/s",
              windows > 0 ? Median(per_window)
                          : static_cast<double>(s.answers) / wall_seconds,
              s.answers);
  report->SetPercentile("ce_estimate_p50_us", "us", s.ce_us, 50);
  report->SetPercentile("ce_estimate_p99_us", "us", s.ce_us, 99);
  report->SetPercentile("aqp_estimate_p50_us", "us", s.aqp_us, 50);
  report->SetPercentile("aqp_estimate_p99_us", "us", s.aqp_us, 99);
  report->SetPercentile("join_estimate_p50_us", "us", s.join_us, 50);
  report->Set("read.rounds", "count", static_cast<double>(s.rounds), s.rounds);
}

void SaveLoadRounds(RunContext* ctx, const Engine& engine, int repeats,
                    CheckpointSamples* out) {
  Report* report = ctx->report;
  const std::string path = ctx->options.work_dir + "/final.ckpt";
  const std::vector<double> before = ProbeAnswers(engine, ctx->inputs);
  for (int i = 0; i < repeats; ++i) {
    {
      Span span("api.Engine::Save");
      ddup::Status st = engine.Save(path);
      out->save_ms.push_back(span.Elapsed() * 1e3);
      report->CountOps("save", 1, st.ok() ? 0 : 1);
      if (!st.ok()) continue;
    }
    out->bytes = FileBytes(path);
    Span span("api.Engine::Load");
    auto loaded = Engine::Load(path, ctx->config);
    out->load_ms.push_back(span.Elapsed() * 1e3);
    report->CountOps("load", 1, loaded.ok() ? 0 : 1);
    if (!loaded.ok()) continue;
    if (i == 0) {
      const std::vector<double> after =
          ProbeAnswers(*loaded.value(), ctx->inputs);
      bool same = after.size() == before.size();
      for (size_t k = 0; same && k < after.size(); ++k) {
        same = SameBits(after[k], before[k]);
      }
      report->Check(same, "answers after Load differ from before Save");
    }
  }
}

int64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<int64_t>(size);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "estimate_read", "drift_update"};
  return names;
}

int RunWorkload(const RunOptions& options, Report* report) {
  RunContext ctx;
  ctx.options = options;
  ctx.report = report;
  ctx.inputs = MakeInputs(options.seed);
  ctx.config = MakeEngineConfig(options.seed);
  ctx.setup_checkpoint = options.work_dir + "/setup.ckpt";

  // Set-up, several times: setup_s is the median. Four set-ups run before
  // the workload and three after it, so one burst of lost CPU cannot cover
  // the median.
  std::vector<double> setup_s;
  auto set_up = [&] {
    Span span("ledger.setup");
    std::unique_ptr<Engine> e = SetUp(ctx.inputs, ctx.config);
    setup_s.push_back(span.Elapsed());
    report->CountOps("setup", 1, 0);
    return e;
  };
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < 4; ++i) {
    engine.reset();
    engine = set_up();
  }
  {
    ddup::Status st = engine->Save(ctx.setup_checkpoint);
    report->CountOps("save", 1, st.ok() ? 0 : 1);
    if (!st.ok()) {
      report->Check(false, "saving the set-up checkpoint: " + st.ToString());
      return 1;
    }
  }

  if (options.workload == "estimate_read") {
    EstimateRead(&ctx, engine.get());
  } else {
    DriftUpdate(&ctx);
  }
  engine.reset();
  for (int i = 0; i < 3; ++i) set_up();
  report->Set("setup_s", "s", Median(setup_s),
              static_cast<int64_t>(setup_s.size()));
  return 0;
}

}  // namespace ledger
