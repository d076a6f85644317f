#include "serving/cluster.h"

#include <algorithm>
#include <utility>

#include "api/router.h"
#include "io/checkpoint.h"
#include "io/serializer.h"

namespace ddup::serving {

namespace {

constexpr uint32_t kClusterManifestVersion = 1;
constexpr const char* kClusterSection = "cluster";

std::string ShardPath(const std::string& path, int shard) {
  return path + ".shard" + std::to_string(shard);
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      map_(config_.shards, config_.virtual_nodes) {
  shards_.reserve(static_cast<size_t>(map_.num_shards()));
  for (int i = 0; i < map_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<api::Engine>(config_.engine));
  }
}

Status Cluster::CreateTable(const std::string& name,
                            const storage::Table& base_data,
                            const api::TableOptions& options) {
  return Owner(name)->CreateTable(name, base_data, options);
}

Status Cluster::AttachModel(const std::string& name,
                            const api::ModelSpec& spec) {
  return Owner(name)->AttachModel(name, spec);
}

StatusOr<api::IngestResult> Cluster::Ingest(const std::string& name,
                                            const storage::Table& batch) {
  return Owner(name)->Ingest(name, batch);
}

StatusOr<api::IngestResult> Cluster::Flush(const std::string& name) {
  return Owner(name)->Flush(name);
}

StatusOr<api::FlushReport> Cluster::FlushAll() {
  api::FlushReport sweep;
  for (const auto& shard : shards_) {
    StatusOr<api::FlushReport> report = shard->FlushAll();
    if (!report.ok()) return report.status();
    sweep.tables_flushed += report.value().tables_flushed;
    sweep.tables_skipped += report.value().tables_skipped;
    sweep.rows_flushed += report.value().rows_flushed;
    sweep.updates_triggered += report.value().updates_triggered;
    // Table names are unique across shards, so the maps never collide.
    sweep.reports.merge(report.value().reports);
  }
  return sweep;
}

StatusOr<api::EstimateResponse> Cluster::Estimate(
    const api::EstimateRequest& request) const {
  DDUP_RETURN_IF_ERROR(api::CheckEstimateRequest(request));
  if (request.joins.empty()) {
    // Single-table shape: the owning shard serves it whole (including the
    // empty-table-name error path — Owner("") still picks a shard, whose
    // registry lookup reports it exactly like a plain engine would).
    return Owner(request.table)->Estimate(request);
  }
  // Cross-shard join: the router fans each planned per-table subquery
  // batch out to the shard that owns the table.
  api::QueryRouter router(
      shards_.front().get(),
      [this](const std::string& table) -> const api::Engine* {
        return Owner(table);
      });
  StatusOr<std::vector<double>> answers =
      router.EstimateCardinalityBatch(request.joins, request.combiner);
  if (!answers.ok()) return answers.status();
  api::EstimateResponse response;
  response.answers = std::move(answers).value();
  return response;
}

StatusOr<api::TableReport> Cluster::Report(const std::string& name) const {
  return Owner(name)->Report(name);
}

std::vector<std::string> Cluster::TableNames() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::vector<std::string> shard_names = shard->TableNames();
    names.insert(names.end(), shard_names.begin(), shard_names.end());
  }
  // Shards are disjoint by construction (placement is a function), so this
  // is a merge, not a dedup.
  std::sort(names.begin(), names.end());
  return names;
}

bool Cluster::HasTable(const std::string& name) const {
  return Owner(name)->HasTable(name);
}

void Cluster::Quiesce() {
  for (const auto& shard : shards_) shard->Quiesce();
}

void Cluster::PauseUpdates() {
  for (const auto& shard : shards_) shard->PauseUpdates();
}

void Cluster::ResumeUpdates() {
  for (const auto& shard : shards_) shard->ResumeUpdates();
}

Status Cluster::Save(const std::string& path) const {
  // Quiesce EVERY shard before writing ANY shard file: Engine::Save only
  // quiesces its own strands, so without this barrier shard 0's file could
  // hit disk while shard 1 still trains — a crash between the two would
  // leave a manifest-less torn set, and more subtly the checkpoint would
  // not represent any single "all updates ingested up to here" cut.
  for (const auto& shard : shards_) shard->Quiesce();
  for (size_t i = 0; i < shards_.size(); ++i) {
    DDUP_RETURN_IF_ERROR(
        shards_[i]->Save(ShardPath(path, static_cast<int>(i))));
  }
  // The cluster manifest is written LAST (itself via tmp+rename inside the
  // checkpoint writer): if it exists, every shard file it names exists.
  io::Serializer manifest;
  manifest.WriteU32(kClusterManifestVersion);
  manifest.WriteU32(static_cast<uint32_t>(shards_.size()));
  manifest.WriteU32(static_cast<uint32_t>(map_.virtual_nodes()));
  io::CheckpointWriter writer;
  writer.AddSection(kClusterSection, manifest.Take());
  return writer.WriteToFile(path);
}

StatusOr<std::unique_ptr<Cluster>> Cluster::Load(const std::string& path,
                                                 ClusterConfig config) {
  StatusOr<io::CheckpointReader> reader = io::CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  StatusOr<std::string> payload = reader.value().Section(kClusterSection);
  if (!payload.ok()) return payload.status();
  io::Deserializer manifest(std::move(payload).value());
  const uint32_t version = manifest.ReadU32();
  if (manifest.ok() && version != kClusterManifestVersion) {
    return Status::InvalidArgument("unsupported cluster manifest version " +
                                   std::to_string(version));
  }
  const uint32_t shards = manifest.ReadU32();
  const uint32_t virtual_nodes = manifest.ReadU32();
  DDUP_RETURN_IF_ERROR(manifest.Finish());
  if (shards == 0 || virtual_nodes == 0) {
    return Status::InvalidArgument(
        "cluster manifest names zero shards or ring points");
  }
  // Placement parameters are the manifest's; engine knobs are the caller's.
  config.shards = static_cast<int>(shards);
  config.virtual_nodes = static_cast<int>(virtual_nodes);
  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(config)));
  for (int i = 0; i < cluster->num_shards(); ++i) {
    StatusOr<std::unique_ptr<api::Engine>> engine =
        api::Engine::Load(ShardPath(path, i), cluster->config_.engine);
    if (!engine.ok()) return engine.status();
    cluster->shards_[static_cast<size_t>(i)] = std::move(engine).value();
  }
  return cluster;
}

}  // namespace ddup::serving
