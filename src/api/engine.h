#ifndef DDUP_API_ENGINE_H_
#define DDUP_API_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/model_factory.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "storage/stats.h"
#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ddup::exec {
class EstimatorEngine;
}  // namespace ddup::exec

namespace ddup::serving {
class AdmissionPolicy;
}  // namespace ddup::serving

namespace ddup::api {

class QueryRouter;

// Checkpoint-writing knobs (Engine::Save, serving::Cluster::Save).
struct CheckpointOptions {
  // Section codec, by registered name (io::RegisteredCodecNames(): "raw",
  // "lz", "shuffle"). "" uses the compressed default
  // (io::kDefaultCheckpointCodec). The choice is recorded in the engine
  // manifest, so a later Save through Engine::Load + Save keeps the codec
  // unless the loading config names a different one; Load itself reads any
  // registered codec regardless of this setting. An unknown name is an
  // InvalidArgument at Save time.
  std::string codec;
};

// Engine-wide defaults. The controller config (detector + update policies)
// applies to every attached model; micro_batch_rows is the default flush
// threshold, overridable per table at CreateTable.
struct EngineConfig {
  core::ControllerConfig controller;
  int64_t micro_batch_rows = 512;
  // Background DDUp update workers (DESIGN.md §11).
  //   0  (default): synchronous — Ingest runs the detect→update loop inline
  //      for every completed micro-batch, exactly the pre-concurrency
  //      behavior and bit-identical to it.
  //   n > 0: n background workers. Ingest appends to the accumulator, hands
  //      full micro-batches to the table's FIFO update strand and returns
  //      immediately; estimates keep serving from the last published model
  //      snapshot while the update runs.
  //   -1 (auto): one worker per default thread beyond the first
  //      (DefaultThreadCount() - 1, see common/thread_pool.h), so
  //      DDUP_THREADS=1 and single-core environments resolve to synchronous.
  int update_workers = 0;
  // Engine-side admission control (DESIGN.md §15). With a positive bound,
  // each table's queued micro-batch updates are capped at
  // max_backlog_batches and an overloaded Ingest is resolved by the named
  // AdmissionPolicy (serving/admission.h): "block" stalls the caller until
  // a worker drains a slot, "shed" refuses the call with a typed
  // [admission:shed] ResourceExhausted Status, "coalesce" keeps buffering
  // and merges the pile into one group task (one snapshot publish per
  // group, byte-identical models). 0 = unbounded, the PR 5 behavior where
  // callers throttle themselves off TableReport::backlog_batches. Only
  // meaningful with update_workers != 0 (the synchronous engine has no
  // backlog). An unknown policy name surfaces as InvalidArgument on the
  // first bounded Ingest.
  int64_t max_backlog_batches = 0;
  std::string admission_policy = "block";
  // How Engine::Save (and serving::Cluster::Save) writes checkpoint
  // containers.
  CheckpointOptions checkpoint;
};

struct TableOptions {
  // Per-table flush threshold; 0 uses the engine default.
  int64_t micro_batch_rows = 0;
  // Per-table drift detector kind ("bootstrap", "cusum", "adwin",
  // "percolumn_cusum" — see core/detector_zoo.h); "" uses the engine
  // default (config.controller.detector.kind). Validated at CreateTable,
  // applied when AttachModel builds the table's controller, and persisted
  // across Save/Load.
  std::string detector;
  // Update-worker priority (async engines): when more tables have queued
  // updates than there are workers, higher-priority tables' strands run
  // first (strict precedence, round-robin among equals — see
  // TaskExecutor::Submit). Hot tables keep their models fresh under
  // saturation while cold tables wait. Persisted across Save/Load.
  int update_priority = 0;
};

// Per-table serving state machine (DESIGN.md §11): SERVING when the update
// strand is idle, UPDATING while micro-batches are queued or running on a
// background worker, DRAINING while a Flush/FlushAll/Save is waiting for
// the strand to empty. Synchronous engines are always SERVING outside a
// call.
enum class TableServingState { kServing, kUpdating, kDraining };
const char* ToString(TableServingState state);

// What one Ingest/Flush call did: rows may sit in the accumulator
// (buffered), and each flushed micro-batch produces one full DDUp loop
// iteration (detect -> update -> offline refresh) reported per batch.
//
// Asynchronous engines (update_workers != 0) decouple the call from the
// loop: Ingest reports rows_enqueued instead of rows_flushed and returns no
// reports (the batches have not run yet); Flush drains the strand and
// returns every InsertionReport completed since the previous collection
// point, so rows_flushed there can exceed the rows this call enqueued.
struct IngestResult {
  // Accumulator occupancy after the call.
  int64_t rows_buffered = 0;
  // Rows pushed through the DDUp loop by this call (sync), or completed
  // reports collected by this Flush (async).
  int64_t rows_flushed = 0;
  // Rows handed to the background update strand by this call (async).
  int64_t rows_enqueued = 0;
  // Micro-batches queued or running for this table after the call (async).
  // ADVISORY since admission moved engine-side (DESIGN.md §15): with
  // EngineConfig::max_backlog_batches set, the engine itself bounds the
  // backlog and applies the admission policy — callers no longer need to
  // poll this to throttle (the PR 5 pattern); it remains useful for
  // monitoring.
  int64_t backlog_batches = 0;
  // One entry per flushed micro-batch, in flush order.
  std::vector<core::InsertionReport> reports;
};

// What one FlushAll sweep did across the registry.
struct FlushReport {
  // Tables that had buffered rows or queued updates to push.
  int64_t tables_flushed = 0;
  // Tables short-circuited because there was nothing to do (empty
  // accumulator, idle strand).
  int64_t tables_skipped = 0;
  int64_t rows_flushed = 0;
  // Micro-batches pushed through the DDUp loop by the sweep.
  int64_t updates_triggered = 0;
  // The InsertionReports the sweep collected, keyed by table, each list in
  // flush order (async: every report completed since the table's last
  // collection point, as Flush returns them).
  std::map<std::string, std::vector<core::InsertionReport>> reports;
};

// Cumulative per-table statistics (Report).
struct TableReport {
  std::string table;
  // "" before AttachModel.
  std::string model_kind;
  // Resolved drift detector kind for this table (TableOptions::detector,
  // or the engine default when the option was empty).
  std::string detector_kind;
  // Rows the model has absorbed / rows awaiting a flush.
  int64_t rows = 0;
  int64_t buffered_rows = 0;
  // Bytes the accumulator holds for those buffered rows: 8 per numeric and
  // 4 per categorical value.
  int64_t buffered_bytes = 0;
  // Flush threshold.
  int64_t micro_batch_rows = 0;
  // Micro-batches through the loop, split by the action taken.
  int64_t insertions = 0;
  int64_t ood_updates = 0;
  int64_t finetunes = 0;
  int64_t kept_stale = 0;
  // Seconds in drift tests, distill/fine-tune and offline refreshes since
  // construction or Load (not persisted, so checkpoints are deterministic).
  double detect_seconds = 0.0;
  double update_seconds = 0.0;
  double refresh_seconds = 0.0;
  // Detector state after the last offline refresh.
  double bootstrap_mean = 0.0;
  double bootstrap_std = 0.0;
  // Update-worker priority for this table (TableOptions::update_priority).
  int update_priority = 0;
  // Concurrency surface (async engines; zeros on the synchronous path).
  TableServingState state = TableServingState::kServing;
  // Micro-batches queued or running. ADVISORY for throttling purposes now
  // that admission is engine-side (EngineConfig::max_backlog_batches +
  // admission_policy, DESIGN.md §15); kept for monitoring.
  int64_t backlog_batches = 0;
  int64_t async_batches = 0;        // batches that ran on a worker
  double queue_seconds = 0.0;       // cumulative worker-queue wait
  int64_t snapshot_publishes = 0;   // serving-model swaps so far
  int64_t sheds = 0;                // Ingest calls refused by admission
  int64_t coalesced_groups = 0;     // multi-batch group tasks enqueued
};

// One estimate call, structured. This is the only entry point for every
// estimate the engine serves (DESIGN.md §14): single-table scalar,
// single-table batch, and multi-table join all flow through
// Engine::Estimate(const EstimateRequest&) (and serving::Cluster::Estimate,
// which routes the same request). A scalar estimate is a one-query request
// whose answer is answers[0]; its errors carry the batch's "query 0: " (or
// "join query 0: ") prefix like any other batch error.
//
// Exactly one of the two shapes must be populated:
//   - Single-table: `table` names a registered table and `queries` holds
//     its batch (possibly of size 1, possibly empty -> empty answers).
//   - Join: `joins` holds multi-table queries; `table`/`queries` stay
//     empty. Served by the QueryRouter under `combiner` (see api/router.h;
//     "" = join-uniformity). Join requests are kCardinality-only — a kAqp
//     join request is an InvalidArgument, not a crash.
struct EstimateRequest {
  enum class Kind {
    kCardinality,  // COUNT estimates
    kAqp,          // SUM/AVG/COUNT relative to the agg spec in the query
  };
  Kind kind = Kind::kCardinality;

  // Single-table shape.
  std::string table;
  workload::QueryBatch queries;

  // Join shape (kCardinality only).
  workload::JoinQueryBatch joins;
  std::string combiner;  // "" = api::kDefaultJoinCombiner
};

struct EstimateResponse {
  // answers[i] corresponds to queries.queries[i] (single-table) or
  // joins.queries[i] (join). Each answer is bit-identical to a one-query
  // request for that query.
  std::vector<double> answers;
};

// The request-shape rules Engine::Estimate and serving::Cluster::Estimate
// share: InvalidArgument when both shapes are set, or when a join request
// asks for AQP. OK for any single-table request (its table and queries are
// checked where it is served).
Status CheckEstimateRequest(const EstimateRequest& request);

// The public multi-table facade over the DDUp loop: a registry of named
// tables, each bound to a model built through the ModelFactory and driven
// by its own DdupController. Every fallible call returns Status/StatusOr —
// unknown tables, unregistered model kinds, schema-mismatched batches and
// unsupported estimate types are recoverable errors, never crashes.
//
// Ingest accepts arbitrary-size row batches and decouples insertion
// granularity from detection granularity: rows accumulate per table and
// the DDUp loop runs once per full micro-batch (micro_batch_rows), plus
// once for the remainder on an explicit Flush. Buffered rows are invisible
// to the model (and to Estimate) until flushed.
//
// Concurrency (DESIGN.md §11). With update_workers != 0 the engine is a
// concurrent serving core: the registry is striped (kRegistryStripes
// locks), each table runs a SERVING/UPDATING/DRAINING state machine, full
// micro-batches execute on a per-table FIFO strand of a background
// TaskExecutor (updates for one table never reorder or overlap; distinct
// tables update in parallel), and Estimate serves from the last published
// read-only model snapshot — an atomic shared_ptr swap per completed
// batch, so readers never block on training. Ingest/Estimate/Flush/Report
// are thread-safe against each other and against running updates; the
// setup calls (CreateTable, AttachModel, Load) and model() are not — run
// them before spinning up clients. Synchronous engines (update_workers ==
// 0, the default) keep the strictly single-threaded contract and
// byte-identical behavior of the pre-concurrency engine.
//
// Save writes the whole engine — registry, per-table accumulator, model
// weights, detector moments and every RNG stream — as one manifest over
// the src/io checkpoint container; Load restores it bit-identically, so a
// restarted engine issues the same estimates and the same future detect
// decisions as the original. On an async engine Save quiesces first: every
// queued update runs to completion and the per-table serialization itself
// executes on the table's strand, so a checkpoint can never capture a
// torn mid-update state.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers an empty-or-populated base table under `name`. The table
  // needs at least one column and valid values (storage::CheckValuesValid);
  // its schema becomes the contract every later batch is validated against.
  Status CreateTable(const std::string& name, const storage::Table& base_data,
                     const TableOptions& options = {});

  // Builds spec.kind via the ModelFactory, trains it on the table's current
  // rows (which must be non-empty) and starts the DDUp controller. One
  // model per table. On an async engine this also publishes the initial
  // serving snapshot, so the model kind must support the checkpoint hooks.
  Status AttachModel(const std::string& name, const ModelSpec& spec);

  // Buffers `batch` (validated against the table schema; empty is a no-op)
  // and runs the DDUp loop for every completed micro-batch — inline (sync)
  // or on the table's background update strand (async, non-blocking). A
  // NaN/inf numeric value or an out-of-dictionary categorical code is an
  // InvalidArgument naming the column and row, and buffers nothing.
  StatusOr<IngestResult> Ingest(const std::string& name,
                                const storage::Table& batch);

  // Pushes any buffered remainder through the loop regardless of size.
  // Async: also waits for the table's update strand to drain, and returns
  // the InsertionReports completed since the last collection. Empty
  // flushes (no buffered rows, idle strand) short-circuit without touching
  // the update path.
  StatusOr<IngestResult> Flush(const std::string& name);
  // Flush for every table; stops at the first error. Async: remainders for
  // all tables are enqueued first, then drained together, so the sweep
  // overlaps updates across tables. Returns every flushed table's
  // InsertionReports (FlushReport::reports), as Flush would.
  StatusOr<FlushReport> FlushAll();

  // The estimate surface. Estimates run over the flushed state;
  // FailedPrecondition if a queried table has no model attached or the
  // model kind does not serve the estimate type.
  //
  // The read path is lock-free: estimates serve from an atomically published
  // ServingView (the model plus its estimator interface pointers, resolved
  // with dynamic_cast once at publish time, never per call). Estimators are
  // const and keep all per-call mutable state in a core::EstimateContext
  // whose RNG stream is derived from (model seed, query fingerprint), so
  // any number of reader threads estimate concurrently with no mutex —
  // against the published snapshot (async) or the live model (sync, where
  // the single-threaded contract already rules out a concurrent update).
  // Answers are deterministic per query regardless of thread interleaving,
  // batch size or call order.
  //
  // Single-table batches are checked against the table schema
  // (workload::CheckQueryValues: a hostile value is an InvalidArgument
  // naming the query, column and value), then run on the "vectorized" exec
  // engine (src/exec), which amortizes per-call setup (weight freezing,
  // scratch, kernel dispatch) across the batch and runs the models' fused
  // GEMM paths. Join batches are planned and fanned out per table by the
  // QueryRouter (api/router.h), then combined under request.combiner. See
  // EstimateRequest for the request shapes.
  StatusOr<EstimateResponse> Estimate(const EstimateRequest& request) const;

  StatusOr<TableReport> Report(const std::string& name) const;
  std::vector<std::string> TableNames() const;  // sorted
  bool HasTable(const std::string& name) const;

  // Barrier over the update workers: blocks until every queued update has
  // run (no-op on a synchronous engine). Unlike Flush it pushes nothing —
  // accumulator remainders stay buffered — so it is the quiesce point a
  // multi-engine checkpoint wants before serializing (serving::Cluster
  // drains every shard through this before any shard file is written).
  void Quiesce();

  // Pauses/resumes the update workers (async; no-ops sync). While paused,
  // Ingest still buffers and enqueues (admission decisions apply against
  // the frozen backlog) but nothing trains and no snapshot publishes.
  // Flush/FlushAll/Save/Quiesce while paused block until ResumeUpdates —
  // pairing them is on the caller. Built for deterministic admission tests
  // and maintenance windows, not for steady-state use.
  void PauseUpdates();
  void ResumeUpdates();

  // Direct access to the live training model for plotting/diagnostics
  // (nullptr before AttachModel). The engine still owns the model. Async
  // engines: quiesce first (Flush/FlushAll) — the live model is mutated by
  // the update strand, not the published serving snapshot.
  core::UpdatableModel* model(const std::string& name);

  // Whole-engine checkpoint: a manifest section describing the registry
  // plus one model and one controller section per attached table, all in a
  // single container file. Restores are bit-identical. Async engines
  // quiesce via drain first (see the class comment).
  Status Save(const std::string& path) const;
  // `config` supplies what the manifest deliberately does not persist: the
  // policy/detector knobs for resumed controllers (matching the
  // DdupController::Resume contract), the micro-batch default for tables
  // created after the restore, and the update-worker count (a restored
  // engine may run sync or async regardless of how the saved one ran).
  static StatusOr<std::unique_ptr<Engine>> Load(const std::string& path,
                                                EngineConfig config = {});

 private:
  // The router reads TableState serving/stats snapshots (atomic loads only)
  // and plan-time schema metadata via the engine's lookup helpers.
  friend class QueryRouter;

  struct TableState {
    std::string name;
    ModelSpec spec;
    int64_t micro_batch_rows = 0;
    // Resolved at CreateTable (option or engine default); the kind the
    // controller is built with at AttachModel and re-anchored to the live
    // controller on Load.
    std::string detector_kind;
    // Strand priority for this table's update tasks (TableOptions).
    int update_priority = 0;

    // Ingest-side state, guarded by mu: the schema contract, the
    // micro-batch accumulator, the model/controller handles and the drain
    // flag. The controller's *internals* are not guarded by mu — they are
    // touched only from the table's FIFO update strand (async) or inline
    // (sync), which serializes them without a lock.
    mutable std::mutex mu;
    storage::Table base;  // schema contract; rows only until AttachModel
    // Micro-batch accumulator (base schema), drained front to back.
    storage::Table pending;
    std::unique_ptr<core::UpdatableModel> model;
    std::unique_ptr<core::DdupController> controller;
    bool draining = false;

    // Update-side statistics, guarded by stats_mu (folded by workers,
    // read by Report/Flush).
    mutable std::mutex stats_mu;
    int64_t insertions = 0;
    int64_t ood_updates = 0;
    int64_t finetunes = 0;
    int64_t kept_stale = 0;
    double detect_seconds = 0.0;
    double update_seconds = 0.0;
    double refresh_seconds = 0.0;
    int64_t async_batches = 0;
    double queue_seconds = 0.0;
    int64_t snapshot_publishes = 0;
    int64_t sheds = 0;
    int64_t coalesced_groups = 0;
    // First background failure, sticky: reported by every later
    // Ingest/Flush on the table. Cannot trigger for batches the engine
    // validated, but a custom model kind could fail a snapshot publish.
    Status async_error;
    // Reports completed on the strand since the last Flush collection,
    // bounded by kMaxBufferedReports (oldest dropped first).
    std::vector<core::InsertionReport> finished;

    // Micro-batches queued or running on the strand.
    std::atomic<int64_t> backlog{0};

    // Admission wait point (block policy, DESIGN.md §15): an overloaded
    // Ingest waits here — never under `mu`, so Report/Estimate/Flush on
    // the table stay responsive while a producer is stalled. Workers
    // notify after every backlog decrement.
    std::mutex admission_mu;
    std::condition_variable admission_cv;

    // What Estimate serves, swapped as one atomic unit (access ONLY via
    // std::atomic_load/atomic_store on `serving`): the model handle plus
    // its estimator interface pointers, resolved with dynamic_cast once
    // here so the hot path never casts. Async engines publish a view over
    // a fresh deep copy after every batch; sync engines publish a
    // non-owning alias of the live model once at attach/load (the object
    // is stable — updates mutate it in place, so the cached interface
    // pointers stay valid). Readers take NO lock: estimation is const on
    // the model with all per-call state in core::EstimateContext, so
    // overlapped estimates on one view are safe by contract
    // (core/interfaces.h). There is deliberately no estimate mutex — the
    // old one serialized every reader on the table (even for stateless
    // SPN/GBDT estimators, even in sync mode) to protect DARN sampler
    // state that now lives in the per-call context.
    struct ServingView {
      std::shared_ptr<const core::UpdatableModel> model;
      const core::CardinalityEstimator* card = nullptr;
      const core::AqpEstimator* aqp = nullptr;
    };
    std::shared_ptr<const ServingView> serving;

    // Exact per-column NDV + row count for the join combiners. The builder
    // is guarded by mu and folds rows exactly when they leave the
    // accumulator for the DDUp loop (inline drain or strand enqueue), so
    // the snapshot tracks the flushed state the models serve — buffered
    // rows are invisible here just as they are to Estimate. Published
    // snapshots are immutable; access `stats` ONLY via
    // std::atomic_load/atomic_store (same discipline as `serving`).
    storage::TableStatsBuilder stats_builder;
    std::shared_ptr<const storage::TableStats> stats;
  };

  // Hash-striped registry: CreateTable/lookup contend only within one
  // stripe, and lookups drop the stripe lock before touching the table
  // (TableState handles are shared_ptr, never invalidated).
  static constexpr size_t kRegistryStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<TableState>> tables;
  };
  // Collected per-table sections for Save (serialized on the strand).
  struct TableCheckpoint {
    Status status;
    std::string manifest;  // per-table manifest fields
    bool has_model = false;
    std::string model_state;
    std::string controller_state;
  };

  static constexpr size_t kMaxBufferedReports = 1024;

  size_t StripeIndex(const std::string& name) const;
  StatusOr<std::shared_ptr<TableState>> FindTable(
      const std::string& name) const;
  bool async() const { return executor_ != nullptr; }

  // Single-table body of Estimate(): resolves the table and its serving
  // view, checks every query's values against the schema, then runs the
  // whole batch through the exec engine. Every error about one query
  // carries the "query <i>: " prefix.
  StatusOr<std::vector<double>> EstimateSingleTable(
      EstimateRequest::Kind kind, const std::string& name,
      const workload::QueryBatch& batch) const;

  // Runs the DDUp loop on `batch` inline and folds the report into the
  // counters (sync path; also the strand body via RunBatchOnWorker).
  Status PushBatch(TableState* state, const storage::Table& batch,
                   IngestResult* result);
  // Slices full micro-batches (and, if `all`, the remainder) out of the
  // accumulator under state->mu and runs them inline (sync).
  Status DrainInline(TableState* state, bool all, IngestResult* result);
  // Async: slices batches out of the accumulator and enqueues them on the
  // table's strand, one task per micro-batch, ignoring the admission bound
  // (the flush/drain paths use this — they are immediately followed by a
  // drain, so bounding them would only deadlock a block-policy flush).
  // Caller must hold state->mu.
  void EnqueueBatchesLocked(const std::shared_ptr<TableState>& state, bool all,
                            IngestResult* result);
  // Admission-aware enqueue for the bounded Ingest path: enqueues full
  // micro-batches while the backlog has room (grouping per the policy's
  // GroupSize), consults the policy when it does not, and implements kWait
  // by releasing `lock` while the caller stalls on admission_cv. Caller
  // must hold `lock` (on state->mu); it is held again on return.
  void EnqueueBoundedLocked(const std::shared_ptr<TableState>& state,
                            std::unique_lock<std::mutex>& lock,
                            IngestResult* result);
  // Slices `batches` micro-batches (plus the remainder when `remainder`)
  // out of the accumulator and submits them as ONE strand task. Caller
  // must hold state->mu.
  void SubmitGroupLocked(const std::shared_ptr<TableState>& state,
                         int64_t batches, bool remainder,
                         IngestResult* result);
  // Strand body: a group of micro-batches through the loop, one
  // HandleInsertion per micro-batch (so grouping never changes model
  // bytes), one snapshot republish per group.
  static void RunGroupOnWorker(const std::shared_ptr<TableState>& state,
                               const std::vector<storage::Table>& batches,
                               double queue_seconds);
  // Publishes a fresh read-only copy of the live model (strand context or
  // setup path). Folds errors into state->async_error.
  static void PublishSnapshot(TableState* state);
  // Wraps `model` in a ServingView with the estimator interfaces resolved
  // (the once-per-publish dynamic_cast). Pass an aliasing (non-owning)
  // shared_ptr for the sync-mode live model.
  static std::shared_ptr<const TableState::ServingView> MakeServingView(
      std::shared_ptr<const core::UpdatableModel> model);
  // Folds one completed InsertionReport into the table counters. Caller
  // must hold state->stats_mu.
  static void FoldReportLocked(TableState* state,
                               const core::InsertionReport& report);
  // Serializes one table's manifest fields + model/controller sections.
  static TableCheckpoint CheckpointTable(const TableState& state);
  // Async flush helpers.
  StatusOr<IngestResult> CollectFlush(const std::shared_ptr<TableState>& state);
  Status StickyError(const TableState& state) const;
  // True when a flush would be a no-op: empty accumulator, idle strand,
  // no completed reports awaiting collection. Caller must hold state.mu.
  bool NothingToFlushLocked(const TableState& state) const;

  EngineConfig config_;
  // The exec engine every estimate runs on ("vectorized"), resolved once.
  const exec::EstimatorEngine* exec_ = nullptr;
  // Codec name recorded in the manifest this engine was loaded from ("" for
  // a fresh engine); Save re-uses it when config_.checkpoint.codec is empty.
  std::string loaded_codec_;
  // Resolved once from config_.admission_policy; nullptr for an unknown
  // name (surfaced as InvalidArgument on the first bounded Ingest).
  const serving::AdmissionPolicy* admission_ = nullptr;
  std::array<Stripe, kRegistryStripes> stripes_;
  // Background update workers; null on the synchronous path. Declared last
  // so it is destroyed (drained + joined) before the registry it points
  // into — though strand tasks also hold shared_ptr table handles.
  std::unique_ptr<TaskExecutor> executor_;
};

}  // namespace ddup::api

#endif  // DDUP_API_ENGINE_H_
