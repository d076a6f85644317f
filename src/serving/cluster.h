#ifndef DDUP_SERVING_CLUSTER_H_
#define DDUP_SERVING_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/status.h"
#include "serving/shard_map.h"

namespace ddup::serving {

// Cluster-level knobs. Every shard is an ordinary api::Engine built from
// the SAME EngineConfig — update workers, micro-batch default and the
// engine-side admission bound/policy (DESIGN.md §15) all apply per shard.
struct ClusterConfig {
  // Number of engine shards (>= 1; clamped). shards=1 with
  // engine.update_workers=0 and the default admission policy is
  // byte-identical to a plain api::Engine — pinned in
  // tests/serving_test.cc.
  int shards = 1;
  // Consistent-hash ring points per shard (see serving/shard_map.h).
  // Persisted in the cluster manifest; must match across Save/Load.
  int virtual_nodes = ShardMap::kDefaultVirtualNodes;
  // The per-shard engine configuration.
  api::EngineConfig engine;
};

// ---------------------------------------------------------------------------
// serving::Cluster — the sharded serving layer (DESIGN.md §15).
//
// A Cluster consistent-hashes tables across `shards` independent
// api::Engine instances and re-exposes the full engine surface. Placement
// is by table name only (ShardMap): deterministic, platform-stable, and
// monotone under growth, so a table's owner never depends on registration
// order and a grown cluster only moves tables onto the new shard.
//
// What sharding buys: each shard has its own registry stripes, its own
// TaskExecutor worker pool and its own admission state, so tables on
// different shards contend on nothing — ingest backpressure on one shard's
// tables (bounded backlog + admission policy) never stalls another shard's
// producers, and estimate traffic scales across shard-local lock-free read
// paths.
//
// Estimates: single-table requests route to the owning shard untouched.
// Join requests may span shards — the cluster runs the QueryRouter in
// cross-shard mode (api/router.h): the plan's per-table subquery batches
// fan out to each table's owning shard, and the combiner merges the
// per-shard answers. Answers are bit-identical to the same tables living
// on one engine: routing changes where a subquery runs, never what it
// computes (pinned in tests/serving_test.cc).
//
// Checkpoints: Save quiesces EVERY shard first (Engine::Quiesce — all
// queued updates run to completion) before any shard file is written, then
// saves each shard to "<path>.shard<k>" and writes the cluster manifest
// (shard count + ring parameters) to "<path>" last, so a manifest that
// exists always describes a complete, un-torn set of shard files. Load
// reverses it; placement parameters come from the manifest, so every table
// loads into the shard that owns it.
//
// Thread-safety matches api::Engine: Ingest/Estimate/Flush/Report are safe
// against each other and against running updates; the setup calls
// (CreateTable, AttachModel, Load) are not — run them before clients.
// ---------------------------------------------------------------------------
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The shard index that owns `table` (pure placement; the table need not
  // exist).
  int ShardOf(const std::string& table) const { return map_.ShardOf(table); }
  // Direct shard access for tests/benches/diagnostics. The cluster keeps
  // ownership.
  api::Engine* shard(int index) {
    return shards_[static_cast<size_t>(index)].get();
  }
  const api::Engine* shard(int index) const {
    return shards_[static_cast<size_t>(index)].get();
  }

  // The engine surface, routed to the owning shard.
  Status CreateTable(const std::string& name, const storage::Table& base_data,
                     const api::TableOptions& options = {});
  Status AttachModel(const std::string& name, const api::ModelSpec& spec);
  StatusOr<api::IngestResult> Ingest(const std::string& name,
                                     const storage::Table& batch);
  StatusOr<api::IngestResult> Flush(const std::string& name);
  // Sweeps every shard; reports aggregate across shards. Stops at the
  // first shard error (lower-index shards' flushes still completed).
  StatusOr<api::FlushReport> FlushAll();
  // Single-table requests go to the owning shard; join requests fan their
  // per-table subqueries out across shards (see the class comment).
  StatusOr<api::EstimateResponse> Estimate(
      const api::EstimateRequest& request) const;
  StatusOr<api::TableReport> Report(const std::string& name) const;
  std::vector<std::string> TableNames() const;  // sorted, across shards
  bool HasTable(const std::string& name) const;

  // Barrier over every shard's update workers (Engine::Quiesce per shard).
  void Quiesce();
  // Pause/resume every shard's workers (deterministic tests, maintenance).
  void PauseUpdates();
  void ResumeUpdates();

  // Cluster checkpoint: quiesce all shards, save each to
  // "<path>.shard<k>", then write the cluster manifest to "<path>" last.
  Status Save(const std::string& path) const;
  // Restores a Save'd cluster. Shard count and ring parameters come from
  // the manifest — they define placement, so resharding a checkpoint is
  // not supported and config.shards/config.virtual_nodes are ignored here.
  // `config.engine` supplies the non-persisted per-shard knobs, exactly
  // like Engine::Load.
  static StatusOr<std::unique_ptr<Cluster>> Load(const std::string& path,
                                                 ClusterConfig config = {});

 private:
  api::Engine* Owner(const std::string& table) {
    return shards_[static_cast<size_t>(map_.ShardOf(table))].get();
  }
  const api::Engine* Owner(const std::string& table) const {
    return shards_[static_cast<size_t>(map_.ShardOf(table))].get();
  }

  ClusterConfig config_;
  ShardMap map_;
  std::vector<std::unique_ptr<api::Engine>> shards_;
};

}  // namespace ddup::serving

#endif  // DDUP_SERVING_CLUSTER_H_
