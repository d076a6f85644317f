#include "api/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "api/router.h"
#include "common/stopwatch.h"
#include "core/detector_zoo.h"
#include "exec/estimator_engine.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "serving/admission.h"

namespace ddup::api {

namespace {

// Version 2 added the per-table resolved detector kind to the manifest;
// version 3 added the per-table update-worker priority; version 4 added the
// checkpoint codec name after the version word; version 5 drops the
// wall-clock detect/update seconds, so the same ingest sequence always
// writes the same bytes (Load still reads v3 and v4 and skips them).
constexpr uint32_t kManifestVersion = 5;
constexpr uint32_t kMinManifestVersion = 3;
constexpr const char* kManifestSection = "engine";

std::string JoinedNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const auto& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

std::string JoinedDetectorKinds() {
  return JoinedNames(core::DriftDetectorKinds());
}

// Section names for the per-table payloads. Table names may contain any
// character except the separator we pick here; CreateTable rejects
// offenders.
std::string ModelSection(const std::string& table) { return "model:" + table; }
std::string ControllerSection(const std::string& table) {
  return "controller:" + table;
}

// Rows [begin, end) of `t`, preserving order.
storage::Table Slice(const storage::Table& t, int64_t begin, int64_t end) {
  std::vector<int64_t> rows(static_cast<size_t>(end - begin));
  std::iota(rows.begin(), rows.end(), begin);
  return t.TakeRows(rows);
}

// Accumulator footprint: 8 bytes per numeric and 4 per categorical value.
int64_t BufferedBytes(const storage::Table& t) {
  int64_t bytes_per_row = 0;
  for (int i = 0; i < t.num_columns(); ++i) {
    bytes_per_row += t.column(i).is_numeric() ? 8 : 4;
  }
  return t.num_rows() * bytes_per_row;
}

int ResolveUpdateWorkers(int requested) {
  if (requested >= 0) return requested;
  // Auto: one worker per default thread beyond the first, so DDUP_THREADS=1
  // and single-core hosts resolve to the synchronous engine.
  return std::max(0, DefaultThreadCount() - 1);
}

}  // namespace

const char* ToString(TableServingState state) {
  switch (state) {
    case TableServingState::kServing:
      return "SERVING";
    case TableServingState::kUpdating:
      return "UPDATING";
    case TableServingState::kDraining:
      return "DRAINING";
  }
  return "UNKNOWN";
}

void Engine::FoldReportLocked(TableState* state,
                              const core::InsertionReport& report) {
  state->insertions += 1;
  switch (report.action) {
    case core::UpdateAction::kDistill:
      state->ood_updates += 1;
      break;
    case core::UpdateAction::kFineTune:
      state->finetunes += 1;
      break;
    default:
      state->kept_stale += 1;
      break;
  }
  state->detect_seconds += report.detect_seconds;
  state->update_seconds += report.update_seconds;
  state->refresh_seconds += report.offline_refresh_seconds;
}

Status CheckEstimateRequest(const EstimateRequest& request) {
  if (request.joins.empty()) return Status::OK();
  if (!request.table.empty()) {
    return Status::InvalidArgument(
        "EstimateRequest sets both the single-table shape (table '" +
        request.table + "') and join queries; populate exactly one");
  }
  if (request.kind == EstimateRequest::Kind::kAqp) {
    return Status::InvalidArgument(
        "join requests serve cardinality only; AQP over joins is not "
        "supported yet (DESIGN.md §14)");
  }
  return Status::OK();
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      exec_(exec::FindEstimatorEngine("vectorized")) {
  DDUP_CHECK_MSG(exec_ != nullptr, "the vectorized exec engine is missing");
  DDUP_CHECK_MSG(config_.micro_batch_rows > 0,
                 "EngineConfig::micro_batch_rows must be positive");
  DDUP_CHECK_MSG(config_.max_backlog_batches >= 0,
                 "EngineConfig::max_backlog_batches must be >= 0");
  admission_ = serving::FindAdmissionPolicy(config_.admission_policy);
  int workers = ResolveUpdateWorkers(config_.update_workers);
  if (workers > 0) executor_ = std::make_unique<TaskExecutor>(workers);
}

Engine::~Engine() {
  // The executor's destructor drains every queued update before joining;
  // strand tasks hold shared_ptr table handles, so the registry may be
  // destroyed in any order after that.
  executor_.reset();
}

size_t Engine::StripeIndex(const std::string& name) const {
  return std::hash<std::string>{}(name) % kRegistryStripes;
}

StatusOr<std::shared_ptr<Engine::TableState>> Engine::FindTable(
    const std::string& name) const {
  const Stripe& stripe = stripes_[StripeIndex(name)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.tables.find(name);
  if (it == stripe.tables.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

Status Engine::CreateTable(const std::string& name,
                           const storage::Table& base_data,
                           const TableOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (name.find(':') != std::string::npos) {
    // ':' separates the checkpoint section namespace ("model:<table>");
    // reject it here so an engine never becomes un-checkpointable later.
    return Status::InvalidArgument("table name '" + name +
                                   "' must not contain ':'");
  }
  if (base_data.num_columns() == 0) {
    return Status::InvalidArgument("table '" + name +
                                   "' needs at least one column");
  }
  DDUP_RETURN_IF_ERROR(storage::CheckValuesValid(base_data));
  if (options.micro_batch_rows < 0) {
    return Status::InvalidArgument("micro_batch_rows must be >= 0");
  }
  if (!options.detector.empty() &&
      !core::HasDriftDetectorKind(options.detector)) {
    return Status::InvalidArgument("table '" + name +
                                   "' requests unknown detector kind '" +
                                   options.detector + "'; registered kinds: " +
                                   JoinedDetectorKinds());
  }
  auto state = std::make_shared<TableState>();
  state->name = name;
  state->update_priority = options.update_priority;
  state->micro_batch_rows = options.micro_batch_rows > 0
                                ? options.micro_batch_rows
                                : config_.micro_batch_rows;
  state->detector_kind = options.detector.empty()
                             ? config_.controller.detector.kind
                             : options.detector;
  state->base = base_data;
  state->base.set_name(name);
  state->pending = state->base.TakeRows({});  // zero rows, same schema
  // Stats cover the base rows from the start; later batches fold in when
  // they leave the accumulator (DrainInline/EnqueueBatchesLocked).
  state->stats_builder = storage::TableStatsBuilder(state->base);
  std::atomic_store(&state->stats, state->stats_builder.Snapshot());
  Stripe& stripe = stripes_[StripeIndex(name)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.tables.count(name) > 0) {
    return Status::FailedPrecondition("table '" + name + "' already exists");
  }
  stripe.tables[name] = std::move(state);
  return Status::OK();
}

Status Engine::AttachModel(const std::string& name, const ModelSpec& spec) {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return found.status();
  TableState* state = found.value().get();
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->model != nullptr) {
    return Status::FailedPrecondition("table '" + name +
                                      "' already has a model attached");
  }
  if (state->base.num_rows() <= 0) {
    return Status::FailedPrecondition(
        "table '" + name + "' has no rows to train the base model on");
  }
  // Resolved at CreateTable, but the engine default could itself name an
  // unregistered kind — catch it here on the Status surface, before the
  // controller constructor would CHECK.
  if (!core::HasDriftDetectorKind(state->detector_kind)) {
    return Status::InvalidArgument("table '" + name +
                                   "' resolves to unknown detector kind '" +
                                   state->detector_kind +
                                   "'; registered kinds: " +
                                   JoinedDetectorKinds());
  }
  StatusOr<std::unique_ptr<core::UpdatableModel>> model =
      ModelFactory::Global().Create(spec.kind, state->base, spec.options);
  if (!model.ok()) return model.status();
  state->model = std::move(model).value();
  core::ControllerConfig controller_config = config_.controller;
  controller_config.detector.kind = state->detector_kind;
  state->controller = std::make_unique<core::DdupController>(
      state->model.get(), state->base, controller_config);
  state->spec = spec;
  if (async()) {
    // Publish the initial serving snapshot; a kind without checkpoint
    // hooks cannot serve concurrently, so fail the attach (strong
    // guarantee: the table stays model-less).
    StatusOr<std::unique_ptr<core::UpdatableModel>> copy =
        CloneModel(state->spec.kind, *state->model);
    if (!copy.ok()) {
      state->controller.reset();
      state->model.reset();
      state->spec = ModelSpec{};
      return copy.status();
    }
    std::atomic_store(
        &state->serving,
        MakeServingView(std::shared_ptr<const core::UpdatableModel>(
            std::move(copy).value().release())));
    std::lock_guard<std::mutex> stats_lock(state->stats_mu);
    state->snapshot_publishes += 1;
  } else {
    // Sync: serve the live model through a non-owning alias. The model
    // object is stable after attach (updates mutate it in place), so the
    // view's cached interface pointers stay valid for the engine's life.
    std::atomic_store(
        &state->serving,
        MakeServingView(std::shared_ptr<const core::UpdatableModel>(
            std::shared_ptr<const core::UpdatableModel>(), state->model.get())));
  }
  // The controller owns the accumulated data from here on; keep only the
  // schema for batch validation.
  state->base = state->base.TakeRows({});
  return Status::OK();
}

Status Engine::PushBatch(TableState* state, const storage::Table& batch,
                         IngestResult* result) {
  StatusOr<core::InsertionReport> report =
      state->controller->HandleInsertion(batch);
  if (!report.ok()) return report.status();
  {
    std::lock_guard<std::mutex> lock(state->stats_mu);
    FoldReportLocked(state, report.value());
  }
  result->rows_flushed += batch.num_rows();
  result->reports.push_back(std::move(report).value());
  return Status::OK();
}

Status Engine::DrainInline(TableState* state, bool all, IngestResult* result) {
  // Single pass over the accumulator: each row is copied once into its
  // micro-batch (plus once for the surviving remainder), never re-copied
  // per iteration. On an error, the unconsumed suffix stays buffered.
  const int64_t total = state->pending.num_rows();
  int64_t offset = 0;
  Status status;
  while (status.ok() && total - offset >= state->micro_batch_rows) {
    storage::Table batch =
        Slice(state->pending, offset, offset + state->micro_batch_rows);
    status = PushBatch(state, batch, result);
    if (status.ok()) {
      state->stats_builder.Absorb(batch);
      offset += state->micro_batch_rows;
    }
  }
  if (status.ok() && all && offset < total) {
    storage::Table batch = Slice(state->pending, offset, total);
    status = PushBatch(state, batch, result);
    if (status.ok()) {
      state->stats_builder.Absorb(batch);
      offset = total;
    }
  }
  if (offset > 0) {
    state->pending = Slice(state->pending, offset, total);
    // Stats fold only for batches the loop actually consumed: on an error
    // the unconsumed suffix stays buffered and stays out of the stats,
    // keeping the snapshot aligned with what the model serves.
    std::atomic_store(&state->stats, state->stats_builder.Snapshot());
  }
  result->rows_buffered = state->pending.num_rows();
  return status;
}

std::shared_ptr<const Engine::TableState::ServingView> Engine::MakeServingView(
    std::shared_ptr<const core::UpdatableModel> model) {
  auto view = std::make_shared<TableState::ServingView>();
  view->card = dynamic_cast<const core::CardinalityEstimator*>(model.get());
  view->aqp = dynamic_cast<const core::AqpEstimator*>(model.get());
  view->model = std::move(model);
  return view;
}

void Engine::PublishSnapshot(TableState* state) {
  StatusOr<std::unique_ptr<core::UpdatableModel>> copy =
      CloneModel(state->spec.kind, *state->model);
  if (!copy.ok()) {
    std::lock_guard<std::mutex> lock(state->stats_mu);
    if (state->async_error.ok()) state->async_error = copy.status();
    return;
  }
  std::atomic_store(&state->serving,
                    MakeServingView(std::shared_ptr<const core::UpdatableModel>(
                        std::move(copy).value().release())));
  std::lock_guard<std::mutex> lock(state->stats_mu);
  state->snapshot_publishes += 1;
}

void Engine::RunGroupOnWorker(const std::shared_ptr<TableState>& state,
                              const std::vector<storage::Table>& batches,
                              double queue_seconds) {
  // The strand guarantees exclusivity over the controller and the live
  // model: no lock is taken around HandleInsertion, so readers (estimates
  // off the published snapshot, Report off the stats mutexes) never block
  // on training. A group runs the DDUp loop once per micro-batch — grouping
  // amortizes queue entries and the snapshot publish, never changes what
  // the model absorbs — and publishes ONE snapshot for the whole group.
  const int64_t backlog_now = state->backlog.load(std::memory_order_relaxed);
  std::vector<core::InsertionReport> reports;
  reports.reserve(batches.size());
  Status failed;
  for (const storage::Table& batch : batches) {
    StatusOr<core::InsertionReport> report =
        state->controller->HandleInsertion(batch);
    if (!report.ok()) {
      // Sticky error; the group's unprocessed suffix is dropped, exactly
      // like the queued single-batch tasks behind a failed one used to be
      // surfaced (every later Ingest/Flush reports the sticky Status).
      failed = report.status();
      break;
    }
    core::InsertionReport r = std::move(report).value();
    r.backlog_batches = backlog_now;
    // The strand wait was paid once for the whole group.
    r.queue_seconds = reports.empty() ? queue_seconds : 0.0;
    reports.push_back(std::move(r));
  }
  {
    std::lock_guard<std::mutex> lock(state->stats_mu);
    for (core::InsertionReport& r : reports) {
      FoldReportLocked(state.get(), r);
      state->async_batches += 1;
      if (state->finished.size() >= kMaxBufferedReports) {
        state->finished.erase(state->finished.begin());
      }
      state->finished.push_back(std::move(r));
    }
    if (!reports.empty()) state->queue_seconds += queue_seconds;
    if (!failed.ok() && state->async_error.ok()) state->async_error = failed;
  }
  if (!reports.empty()) PublishSnapshot(state.get());
  state->backlog.fetch_sub(static_cast<int64_t>(batches.size()),
                           std::memory_order_release);
  // Wake blocked producers (admission kWait). The empty critical section
  // pairs the notify with the waiters' predicate re-check so the decrement
  // cannot slip between their check and their wait.
  { std::lock_guard<std::mutex> lock(state->admission_mu); }
  state->admission_cv.notify_all();
}

void Engine::SubmitGroupLocked(const std::shared_ptr<TableState>& state,
                               int64_t batches, bool remainder,
                               IngestResult* result) {
  const int64_t total = state->pending.num_rows();
  int64_t offset = 0;
  std::vector<storage::Table> group;
  group.reserve(static_cast<size_t>(batches) + (remainder ? 1 : 0));
  for (int64_t b = 0; b < batches; ++b) {
    storage::Table batch =
        Slice(state->pending, offset, offset + state->micro_batch_rows);
    offset += state->micro_batch_rows;
    // Async stats fold at enqueue time: the rows leave the accumulator for
    // the strand unconditionally, so the snapshot tracks the handed-off
    // state (it may run slightly ahead of the serving model while the
    // strand catches up — both are eventually consistent views of the same
    // flushed prefix).
    state->stats_builder.Absorb(batch);
    result->rows_enqueued += batch.num_rows();
    group.push_back(std::move(batch));
  }
  if (remainder && offset < total) {
    storage::Table batch = Slice(state->pending, offset, total);
    offset = total;
    state->stats_builder.Absorb(batch);
    result->rows_enqueued += batch.num_rows();
    group.push_back(std::move(batch));
  }
  if (group.empty()) return;
  state->pending = Slice(state->pending, offset, total);
  std::atomic_store(&state->stats, state->stats_builder.Snapshot());
  if (group.size() > 1) {
    std::lock_guard<std::mutex> lock(state->stats_mu);
    state->coalesced_groups += 1;
  }
  state->backlog.fetch_add(static_cast<int64_t>(group.size()),
                           std::memory_order_relaxed);
  Stopwatch queued;
  executor_->Submit(state->name, state->update_priority,
                    [state, group = std::move(group), queued]() {
                      RunGroupOnWorker(state, group, queued.ElapsedSeconds());
                    });
}

void Engine::EnqueueBatchesLocked(const std::shared_ptr<TableState>& state,
                                  bool all, IngestResult* result) {
  // Caller holds state->mu, which also orders Submit calls: two racing
  // Ingests cannot interleave their batches out of row-arrival order.
  // Unbounded path (and every flush/drain path): one task per micro-batch,
  // no admission — the caller drains right after, so bounding here would
  // only deadlock a block-policy flush.
  while (state->pending.num_rows() >= state->micro_batch_rows) {
    SubmitGroupLocked(state, /*batches=*/1, /*remainder=*/false, result);
  }
  if (all && state->pending.num_rows() > 0) {
    SubmitGroupLocked(state, /*batches=*/0, /*remainder=*/true, result);
  }
  result->rows_buffered = state->pending.num_rows();
  result->backlog_batches = state->backlog.load(std::memory_order_relaxed);
}

void Engine::EnqueueBoundedLocked(const std::shared_ptr<TableState>& state,
                                  std::unique_lock<std::mutex>& lock,
                                  IngestResult* result) {
  const int64_t bound = config_.max_backlog_batches;
  for (;;) {
    const int64_t available =
        state->pending.num_rows() / state->micro_batch_rows;
    if (available == 0) break;
    const int64_t backlog = state->backlog.load(std::memory_order_acquire);
    if (backlog < bound) {
      // Room: enqueue one group sized by the policy (1 for block/shed,
      // everything buffered for coalesce), then re-evaluate.
      const int64_t group = std::clamp<int64_t>(
          admission_->GroupSize(available), int64_t{1}, available);
      SubmitGroupLocked(state, group, /*remainder=*/false, result);
      continue;
    }
    serving::AdmissionContext ctx;
    ctx.table = state->name;
    ctx.backlog_batches = backlog;
    ctx.bound = bound;
    ctx.buffered_batches = available;
    const serving::AdmissionAction action = admission_->Admit(ctx);
    if (action == serving::AdmissionAction::kAdmit) {
      const int64_t group = std::clamp<int64_t>(
          admission_->GroupSize(available), int64_t{1}, available);
      SubmitGroupLocked(state, group, /*remainder=*/false, result);
      continue;
    }
    if (action == serving::AdmissionAction::kWait) {
      // Stall with state->mu released so Report/Estimate/Flush on the
      // table stay responsive while this producer is blocked.
      lock.unlock();
      {
        std::unique_lock<std::mutex> wait_lock(state->admission_mu);
        state->admission_cv.wait(wait_lock, [&state, bound] {
          return state->backlog.load(std::memory_order_acquire) < bound;
        });
      }
      lock.lock();
      continue;
    }
    // kShed / kCoalesce at the bound: the rows stay buffered; a later
    // admitted call (or a flush) enqueues them once the backlog has room.
    break;
  }
  result->rows_buffered = state->pending.num_rows();
  result->backlog_batches = state->backlog.load(std::memory_order_relaxed);
}

Status Engine::StickyError(const TableState& state) const {
  std::lock_guard<std::mutex> lock(state.stats_mu);
  return state.async_error;
}

bool Engine::NothingToFlushLocked(const TableState& state) const {
  if (state.pending.num_rows() != 0) return false;
  if (!async()) return true;
  if (state.backlog.load(std::memory_order_acquire) != 0) return false;
  std::lock_guard<std::mutex> stats_lock(state.stats_mu);
  return state.finished.empty();
}

StatusOr<IngestResult> Engine::Ingest(const std::string& name,
                                      const storage::Table& batch) {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<TableState>& state = found.value();
  const bool bounded = async() && config_.max_backlog_batches > 0;
  if (bounded && admission_ == nullptr) {
    return Status::InvalidArgument(
        "unknown admission policy '" + config_.admission_policy +
        "'; registered: " +
        JoinedNames(serving::RegisteredAdmissionPolicies()));
  }
  std::unique_lock<std::mutex> lock(state->mu);
  if (state->controller == nullptr) {
    return Status::FailedPrecondition("table '" + name +
                                      "' has no model attached yet");
  }
  DDUP_RETURN_IF_ERROR(StickyError(*state));
  IngestResult result;
  if (batch.num_rows() > 0) {
    DDUP_RETURN_IF_ERROR(storage::CheckSchemaCompatible(state->base, batch));
    DDUP_RETURN_IF_ERROR(storage::CheckValuesValid(batch));
    if (bounded) {
      // Shed decides at call entry, before any row is buffered: a refused
      // call leaves no trace in the accumulator, so the caller can retry
      // the whole batch later without double-counting rows.
      const int64_t backlog = state->backlog.load(std::memory_order_acquire);
      if (backlog >= config_.max_backlog_batches) {
        serving::AdmissionContext ctx;
        ctx.table = state->name;
        ctx.backlog_batches = backlog;
        ctx.bound = config_.max_backlog_batches;
        ctx.buffered_batches =
            (state->pending.num_rows() + batch.num_rows()) /
            state->micro_batch_rows;
        if (admission_->Admit(ctx) == serving::AdmissionAction::kShed) {
          {
            std::lock_guard<std::mutex> stats_lock(state->stats_mu);
            state->sheds += 1;
          }
          return serving::MakeShedError(name, backlog,
                                        config_.max_backlog_batches);
        }
      }
    }
    state->pending.Append(batch);
  }
  if (!async()) {
    DDUP_RETURN_IF_ERROR(DrainInline(state.get(), /*all=*/false, &result));
    return result;
  }
  if (bounded) {
    EnqueueBoundedLocked(state, lock, &result);
  } else {
    EnqueueBatchesLocked(state, /*all=*/false, &result);
  }
  return result;
}

StatusOr<IngestResult> Engine::CollectFlush(
    const std::shared_ptr<TableState>& state) {
  // Enqueue the remainder (if any) and mark the table DRAINING.
  {
    std::lock_guard<std::mutex> lock(state->mu);
    IngestResult enqueued;
    EnqueueBatchesLocked(state, /*all=*/true, &enqueued);
    state->draining = true;
  }
  executor_->DrainKey(state->name);
  IngestResult result;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->draining = false;
    result.rows_buffered = state->pending.num_rows();
  }
  std::lock_guard<std::mutex> lock(state->stats_mu);
  // Error check before consuming the reports: on a failed drain the
  // completed InsertionReports stay buffered instead of vanishing with
  // the discarded result.
  if (!state->async_error.ok()) return state->async_error;
  result.reports = std::move(state->finished);
  state->finished.clear();
  for (const auto& r : result.reports) result.rows_flushed += r.new_rows;
  return result;
}

StatusOr<IngestResult> Engine::Flush(const std::string& name) {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<TableState>& state = found.value();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->controller == nullptr) {
      return Status::FailedPrecondition("table '" + name +
                                        "' has no model attached yet");
    }
    DDUP_RETURN_IF_ERROR(StickyError(*state));
    // Empty flush: short-circuit without touching the update path at all.
    if (NothingToFlushLocked(*state)) {
      return IngestResult{};
    }
    if (!async()) {
      IngestResult result;
      DDUP_RETURN_IF_ERROR(DrainInline(state.get(), /*all=*/true, &result));
      return result;
    }
  }
  return CollectFlush(state);
}

StatusOr<FlushReport> Engine::FlushAll() {
  FlushReport sweep;
  Status first_error;
  // Phase 1 (async): enqueue every table's remainder first, so the sweep
  // overlaps updates across tables instead of draining them one by one.
  // Errors are recorded, not returned mid-sweep: every table marked
  // DRAINING must be drained and reset even when another table failed.
  std::vector<std::shared_ptr<TableState>> to_collect;
  for (const std::string& name : TableNames()) {
    StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
    if (!found.ok()) return found.status();
    const std::shared_ptr<TableState>& state = found.value();
    std::lock_guard<std::mutex> lock(state->mu);
    // A table without a model cannot have buffered rows (Ingest requires
    // the controller), so there is nothing to flush — skip it rather than
    // failing the whole sweep.
    if (state->controller == nullptr) {
      sweep.tables_skipped += 1;
      continue;
    }
    Status sticky = StickyError(*state);
    if (!sticky.ok()) {
      if (first_error.ok()) first_error = sticky;
      continue;
    }
    if (NothingToFlushLocked(*state)) {
      sweep.tables_skipped += 1;
      continue;
    }
    sweep.tables_flushed += 1;
    if (async()) {
      IngestResult enqueued;
      EnqueueBatchesLocked(state, /*all=*/true, &enqueued);
      state->draining = true;
      to_collect.push_back(state);
    } else {
      IngestResult result;
      Status st = DrainInline(state.get(), /*all=*/true, &result);
      sweep.rows_flushed += result.rows_flushed;
      sweep.updates_triggered += static_cast<int64_t>(result.reports.size());
      sweep.reports[name] = std::move(result.reports);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  // Phase 2 (async): one drain over all strands, then collect per table.
  if (!to_collect.empty()) {
    executor_->Drain();
    for (const auto& state : to_collect) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->draining = false;
      }
      std::lock_guard<std::mutex> lock(state->stats_mu);
      if (!state->async_error.ok()) {
        // Like Flush: the completed reports stay buffered rather than
        // vanish with the discarded sweep.
        if (first_error.ok()) first_error = state->async_error;
        continue;
      }
      sweep.updates_triggered +=
          static_cast<int64_t>(state->finished.size());
      for (const auto& r : state->finished) sweep.rows_flushed += r.new_rows;
      sweep.reports[state->name] = std::move(state->finished);
      state->finished.clear();
    }
  }
  if (!first_error.ok()) return first_error;
  return sweep;
}

// The whole single-table estimate hot path is here: one registry lookup,
// one atomic view load, one value check per query, then the batch call — no
// lock, no dynamic_cast (the interfaces were resolved when the view was
// published), no shared mutable state.
StatusOr<std::vector<double>> Engine::EstimateSingleTable(
    EstimateRequest::Kind kind, const std::string& name,
    const workload::QueryBatch& batch) const {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return found.status();
  const TableState* state = found.value().get();
  std::shared_ptr<const TableState::ServingView> view =
      std::atomic_load(&state->serving);
  if (view == nullptr) {
    return Status::FailedPrecondition("table '" + name +
                                      "' has no model attached yet");
  }
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    Status valid = workload::CheckQueryValues(state->base, batch.queries[i]);
    if (!valid.ok()) {
      return Status(valid.code(),
                    "query " + std::to_string(i) + ": " + valid.message());
    }
  }
  std::vector<double> out;
  if (kind == EstimateRequest::Kind::kCardinality) {
    if (view->card == nullptr) {
      return Status::FailedPrecondition(
          "model kind '" + state->spec.kind + "' on table '" + name +
          "' does not serve cardinality estimates");
    }
    DDUP_RETURN_IF_ERROR(
        exec_->EstimateCardinalityBatch(*view->card, batch, &out));
  } else {
    if (view->aqp == nullptr) {
      return Status::FailedPrecondition("model kind '" + state->spec.kind +
                                        "' on table '" + name +
                                        "' does not serve AQP estimates");
    }
    DDUP_RETURN_IF_ERROR(
        exec_->EstimateAqpBatch(*view->aqp, state->base, batch, &out));
  }
  return out;
}

StatusOr<EstimateResponse> Engine::Estimate(
    const EstimateRequest& request) const {
  DDUP_RETURN_IF_ERROR(CheckEstimateRequest(request));
  // Single-table shape (possibly with an empty or unknown table name —
  // FindTable reports those) or join shape.
  StatusOr<std::vector<double>> answers =
      request.joins.empty()
          ? EstimateSingleTable(request.kind, request.table, request.queries)
          : QueryRouter(this).EstimateCardinalityBatch(request.joins,
                                                       request.combiner);
  if (!answers.ok()) return answers.status();
  EstimateResponse response;
  response.answers = std::move(answers).value();
  return response;
}

StatusOr<TableReport> Engine::Report(const std::string& name) const {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return found.status();
  const TableState* state = found.value().get();
  TableReport report;
  report.table = name;
  report.update_priority = state->update_priority;
  report.backlog_batches = state->backlog.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    report.model_kind = state->spec.kind;
    report.detector_kind = state->detector_kind;
    report.buffered_rows = state->pending.num_rows();
    report.buffered_bytes = BufferedBytes(state->pending);
    report.micro_batch_rows = state->micro_batch_rows;
    if (state->controller != nullptr) {
      // stats() is the controller's thread-safe read surface; the live
      // detector/data references would race a worker mid-update.
      core::LoopStats stats = state->controller->stats();
      report.rows = stats.rows;
      report.bootstrap_mean = stats.bootstrap_mean;
      report.bootstrap_std = stats.bootstrap_std;
    } else {
      report.rows = state->base.num_rows();
    }
    report.state = state->draining
                       ? TableServingState::kDraining
                       : (report.backlog_batches > 0
                              ? TableServingState::kUpdating
                              : TableServingState::kServing);
  }
  std::lock_guard<std::mutex> lock(state->stats_mu);
  report.insertions = state->insertions;
  report.ood_updates = state->ood_updates;
  report.finetunes = state->finetunes;
  report.kept_stale = state->kept_stale;
  report.detect_seconds = state->detect_seconds;
  report.update_seconds = state->update_seconds;
  report.refresh_seconds = state->refresh_seconds;
  report.async_batches = state->async_batches;
  report.queue_seconds = state->queue_seconds;
  report.snapshot_publishes = state->snapshot_publishes;
  report.sheds = state->sheds;
  report.coalesced_groups = state->coalesced_groups;
  return report;
}

void Engine::Quiesce() {
  if (executor_ != nullptr) executor_->Drain();
}

void Engine::PauseUpdates() {
  if (executor_ != nullptr) executor_->Pause();
}

void Engine::ResumeUpdates() {
  if (executor_ != nullptr) executor_->Resume();
}

std::vector<std::string> Engine::TableNames() const {
  std::vector<std::string> names;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [name, state] : stripe.tables) {
      (void)state;
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool Engine::HasTable(const std::string& name) const {
  const Stripe& stripe = stripes_[StripeIndex(name)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.tables.count(name) > 0;
}

core::UpdatableModel* Engine::model(const std::string& name) {
  StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
  if (!found.ok()) return nullptr;
  std::lock_guard<std::mutex> lock(found.value()->mu);
  return found.value()->model.get();
}

Engine::TableCheckpoint Engine::CheckpointTable(const TableState& state) {
  TableCheckpoint out;
  io::Serializer manifest;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    std::lock_guard<std::mutex> stats_lock(state.stats_mu);
    manifest.WriteString(state.name);
    manifest.WriteString(state.spec.kind);
    manifest.WriteU32(static_cast<uint32_t>(state.spec.options.size()));
    for (const auto& [key, value] : state.spec.options) {
      manifest.WriteString(key);
      manifest.WriteString(value);
    }
    manifest.WriteI64(state.micro_batch_rows);
    manifest.WriteString(state.detector_kind);
    manifest.WriteI64(state.update_priority);
    manifest.WriteI64(state.insertions);
    manifest.WriteI64(state.ood_updates);
    manifest.WriteI64(state.finetunes);
    manifest.WriteI64(state.kept_stale);
    manifest.WriteTable(state.base);
    manifest.WriteTable(state.pending);
    manifest.WriteBool(state.model != nullptr);
    out.has_model = state.model != nullptr;
    if (out.has_model) {
      io::Serializer model_state;
      out.status = state.model->SaveState(&model_state);
      if (!out.status.ok()) return out;
      out.model_state = model_state.Take();
      io::Serializer controller_state;
      out.status = state.controller->SaveState(&controller_state);
      if (!out.status.ok()) return out;
      out.controller_state = controller_state.Take();
    }
  }
  out.manifest = manifest.Take();
  return out;
}

Status Engine::Save(const std::string& path) const {
  std::vector<std::string> names = TableNames();
  std::vector<std::shared_ptr<TableState>> states;
  states.reserve(names.size());
  for (const std::string& name : names) {
    StatusOr<std::shared_ptr<TableState>> found = FindTable(name);
    if (!found.ok()) return found.status();
    states.push_back(found.value());
  }

  std::vector<TableCheckpoint> blobs(states.size());
  if (async()) {
    // Quiesce: every already-queued update runs first (strand FIFO), then
    // the serialization task itself executes on the table's strand — so a
    // checkpoint can never capture a torn mid-update state, even with
    // concurrent ingest on other tables.
    std::vector<std::future<void>> done;
    done.reserve(states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      std::shared_ptr<TableState> state = states[i];
      TableCheckpoint* blob = &blobs[i];
      done.push_back(executor_->Submit(
          state->name, state->update_priority,
          [state, blob]() { *blob = CheckpointTable(*state); }));
    }
    for (auto& f : done) f.wait();
  } else {
    for (size_t i = 0; i < states.size(); ++i) {
      blobs[i] = CheckpointTable(*states[i]);
    }
  }

  // Codec precedence: the caller's config wins, then the codec recorded in
  // the manifest this engine was loaded from, then the compressed default.
  std::string codec_name = config_.checkpoint.codec.empty()
                               ? loaded_codec_
                               : config_.checkpoint.codec;
  if (codec_name.empty()) codec_name = io::kDefaultCheckpointCodec;
  const io::Codec* codec = io::FindCodecByName(codec_name);
  if (codec == nullptr) {
    return Status::InvalidArgument(
        "unknown checkpoint codec '" + codec_name + "'; registered codecs: " +
        JoinedNames(io::RegisteredCodecNames()));
  }

  io::CheckpointWriter writer(codec);
  io::Serializer manifest;
  manifest.WriteU32(kManifestVersion);
  manifest.WriteString(codec_name);
  manifest.WriteU32(static_cast<uint32_t>(states.size()));
  for (size_t i = 0; i < states.size(); ++i) {
    DDUP_RETURN_IF_ERROR(blobs[i].status);
    manifest.WriteRaw(blobs[i].manifest);
    if (blobs[i].has_model) {
      writer.AddSection(ModelSection(names[i]),
                        std::move(blobs[i].model_state));
      writer.AddSection(ControllerSection(names[i]),
                        std::move(blobs[i].controller_state));
    }
  }
  writer.AddSection(kManifestSection, manifest.Take());
  return writer.WriteToFile(path);
}

StatusOr<std::unique_ptr<Engine>> Engine::Load(const std::string& path,
                                               EngineConfig config) {
  StatusOr<io::CheckpointReader> reader = io::CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  StatusOr<std::string> payload = reader.value().Section(kManifestSection);
  if (!payload.ok()) return payload.status();
  io::Deserializer manifest(std::move(payload).value());
  uint32_t version = manifest.ReadU32();
  if (manifest.ok() &&
      (version < kMinManifestVersion || version > kManifestVersion)) {
    return Status::InvalidArgument("unsupported engine manifest version " +
                                   std::to_string(version));
  }

  auto engine = std::make_unique<Engine>(std::move(config));
  // v4 records the codec the checkpoint was written with; a later Save
  // keeps it unless the loading config names a different one.
  if (version >= 4) engine->loaded_codec_ = manifest.ReadString();
  uint32_t num_tables = manifest.ReadU32();
  for (uint32_t i = 0; i < num_tables && manifest.ok(); ++i) {
    auto state = std::make_shared<TableState>();
    state->name = manifest.ReadString();
    state->spec.kind = manifest.ReadString();
    uint32_t num_options = manifest.ReadU32();
    for (uint32_t k = 0; k < num_options && manifest.ok(); ++k) {
      std::string key = manifest.ReadString();
      state->spec.options[key] = manifest.ReadString();
    }
    state->micro_batch_rows = manifest.ReadI64();
    state->detector_kind = manifest.ReadString();
    state->update_priority = static_cast<int>(manifest.ReadI64());
    state->insertions = manifest.ReadI64();
    state->ood_updates = manifest.ReadI64();
    state->finetunes = manifest.ReadI64();
    state->kept_stale = manifest.ReadI64();
    if (version < 5) {
      manifest.ReadDouble();  // detect_seconds
      manifest.ReadDouble();  // update_seconds
    }
    state->base = manifest.ReadTable();
    state->pending = manifest.ReadTable();
    bool has_model = manifest.ReadBool();
    if (!manifest.ok()) break;
    if (state->micro_batch_rows <= 0) {
      return Status::InvalidArgument("manifest for table '" + state->name +
                                     "' has a non-positive micro-batch size");
    }
    DDUP_RETURN_IF_ERROR(
        storage::CheckSchemaCompatible(state->base, state->pending));
    if (has_model) {
      StatusOr<std::string> model_payload =
          reader.value().Section(ModelSection(state->name));
      if (!model_payload.ok()) return model_payload.status();
      io::Deserializer model_in(std::move(model_payload).value());
      StatusOr<std::unique_ptr<core::UpdatableModel>> model =
          ModelFactory::Global().Restore(state->spec.kind, &model_in);
      if (!model.ok()) return model.status();
      DDUP_RETURN_IF_ERROR(model_in.Finish());
      state->model = std::move(model).value();

      StatusOr<std::string> controller_payload =
          reader.value().Section(ControllerSection(state->name));
      if (!controller_payload.ok()) return controller_payload.status();
      io::Deserializer controller_in(std::move(controller_payload).value());
      StatusOr<std::unique_ptr<core::DdupController>> controller =
          core::DdupController::ResumeFromState(
              state->model.get(), engine->config_.controller, &controller_in);
      if (!controller.ok()) return controller.status();
      DDUP_RETURN_IF_ERROR(controller_in.Finish());
      state->controller = std::move(controller).value();
      // The controller snapshot is authoritative for the detector that was
      // live at save time; re-anchor the table's resolved kind to it.
      state->detector_kind = state->controller->detector().kind();
      if (engine->async()) {
        StatusOr<std::unique_ptr<core::UpdatableModel>> copy =
            CloneModel(state->spec.kind, *state->model);
        if (!copy.ok()) return copy.status();
        std::atomic_store(
            &state->serving,
            MakeServingView(std::shared_ptr<const core::UpdatableModel>(
                std::move(copy).value().release())));
        state->snapshot_publishes += 1;
      } else {
        std::atomic_store(
            &state->serving,
            MakeServingView(std::shared_ptr<const core::UpdatableModel>(
                std::shared_ptr<const core::UpdatableModel>(),
                state->model.get())));
      }
    }
    // Stats are derived state, deliberately not persisted: rebuild them
    // from the restored flushed rows (the controller owns them once a model
    // is attached; before that they still live in base). Load runs before
    // any clients, so reading the controller's data here is safe.
    state->stats_builder = storage::TableStatsBuilder(
        state->controller != nullptr ? state->controller->data()
                                     : state->base);
    std::atomic_store(&state->stats, state->stats_builder.Snapshot());
    Stripe& stripe = engine->stripes_[engine->StripeIndex(state->name)];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.tables[state->name] = std::move(state);
  }
  DDUP_RETURN_IF_ERROR(manifest.Finish());
  return engine;
}

}  // namespace ddup::api
