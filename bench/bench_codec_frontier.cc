// Codec frontier (DESIGN.md §16): compression ratio vs throughput for every
// registered checkpoint codec over real data-plane payloads — actual engine
// checkpoint sections (model + controller state harvested from a raw-codec
// Save), serialized micro-batch rows, raw numeric column bytes and raw
// dictionary-code bytes. Emits results/BENCH_codec_frontier.json via
// DDUP_BENCH_JSON_DIR with one row per (payload, codec) cell: encoded size,
// ratio, and compress/decompress MB/s. Every cell's round trip is verified
// bit-exact before it is timed.
//
// Build & run:  ./build/bench/bench_codec_frontier
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench/harness.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "datagen/datasets.h"
#include "io/checkpoint.h"
#include "io/codec.h"
#include "io/serializer.h"

namespace ddup::bench {
namespace {

// Harvests real checkpoint section payloads: train a small engine, save it
// with the raw codec (so the stored bytes ARE the section payloads), read
// the container back and return every section. This is the exact byte
// stream the codec layer sees on a production Save.
std::vector<std::pair<std::string, std::string>> HarvestCheckpointSections(
    const BenchParams& params) {
  api::EngineConfig config;
  config.micro_batch_rows = 200;
  config.controller.detector.bootstrap_iterations =
      params.bootstrap_iterations / 3;
  config.controller.policy.distill.epochs = params.ScaledEpochs(1);
  config.controller.policy.finetune_epochs = params.ScaledEpochs(1);
  config.checkpoint.codec = "raw";
  api::Engine engine(config);

  storage::Table census = datagen::CensusLike(params.rows, params.seed);
  DDUP_CHECK(engine.CreateTable("census", census).ok());
  DDUP_CHECK(engine
                 .AttachModel("census", {"darn",
                                         {{"epochs", "2"},
                                          {"max_bins", "16"},
                                          {"hidden_width", "24"}}})
                 .ok());

  const std::string path = "/tmp/ddup_codec_frontier.ckpt";
  DDUP_CHECK(engine.Save(path).ok());
  auto reader = io::CheckpointReader::FromFile(path);
  DDUP_CHECK_MSG(reader.ok(), reader.status().ToString());
  std::vector<std::pair<std::string, std::string>> sections;
  for (const auto& info : reader.value().Sections()) {
    DDUP_CHECK(info.codec == io::kCodecRaw);
    sections.emplace_back("section_" + info.name,
                          reader.value().Section(info.name).value());
  }
  std::remove(path.c_str());
  return sections;
}

// The non-checkpoint payload kinds: a serialized row batch (the form in
// which the engine manifest stores buffered rows) and the raw numeric and
// dictionary-code column bytes a table holds in memory.
std::vector<std::pair<std::string, std::string>> SyntheticPayloads(
    const BenchParams& params) {
  storage::Table census = datagen::CensusLike(params.rows, params.seed + 1);
  std::vector<std::pair<std::string, std::string>> payloads;

  io::Serializer batch;
  batch.WriteTable(census);
  payloads.emplace_back("serialized_batch", batch.Take());

  std::string doubles, codes;
  for (int c = 0; c < census.num_columns(); ++c) {
    const storage::Column& column = census.column(c);
    if (column.is_numeric()) {
      const auto& v = column.numeric_values();
      const size_t at = doubles.size();
      doubles.resize(at + v.size() * sizeof(double));
      std::memcpy(doubles.data() + at, v.data(), v.size() * sizeof(double));
    } else {
      const auto& v = column.codes();
      const size_t at = codes.size();
      codes.resize(at + v.size() * sizeof(int32_t));
      std::memcpy(codes.data() + at, v.data(), v.size() * sizeof(int32_t));
    }
  }
  payloads.emplace_back("numeric_column_bytes", std::move(doubles));
  payloads.emplace_back("categorical_code_bytes", std::move(codes));
  return payloads;
}

double MbPerSecond(size_t bytes, int iterations, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) * iterations / seconds / (1024.0 * 1024.0);
}

}  // namespace
}  // namespace ddup::bench

int main() {
  using namespace ddup;
  const bench::BenchParams params = bench::BenchParams::FromEnv();
  std::printf("codec frontier: ratio vs throughput per (payload, codec)\n");

  std::vector<std::pair<std::string, std::string>> payloads =
      bench::HarvestCheckpointSections(params);
  for (auto& p : bench::SyntheticPayloads(params)) {
    payloads.push_back(std::move(p));
  }

  bench::BenchJsonEmitter json("codec_frontier", params);
  json.SetParam("codecs",
                static_cast<int64_t>(io::RegisteredCodecNames().size()));
  json.SetParam("payloads", static_cast<int64_t>(payloads.size()));

  double lz_best_section_ratio = 0.0;
  std::printf("  %-28s %-8s %12s %8s %12s %12s\n", "payload", "codec", "bytes",
              "ratio", "comp MB/s", "decomp MB/s");
  for (const auto& [payload_name, payload] : payloads) {
    for (const std::string& codec_name : io::RegisteredCodecNames()) {
      const io::Codec* codec = io::FindCodecByName(codec_name);
      DDUP_CHECK(codec != nullptr);

      // Correctness first: the cell must round-trip bit-exactly.
      std::string encoded;
      codec->Compress(payload, &encoded);
      std::string decoded;
      Status status = codec->Decompress(encoded, payload.size(), &decoded);
      DDUP_CHECK_MSG(status.ok(), status.ToString());
      DDUP_CHECK(decoded == payload);

      // Size the iteration count to the payload so small cells still get a
      // measurable window (~32 MiB of traffic per direction, >=4 iters).
      const int iterations =
          payload.empty()
              ? 1
              : static_cast<int>(
                    std::max<size_t>(4, (32u << 20) / payload.size()));
      Stopwatch compress_timer;
      for (int i = 0; i < iterations; ++i) {
        encoded.clear();
        codec->Compress(payload, &encoded);
      }
      const double compress_seconds = compress_timer.ElapsedSeconds();
      Stopwatch decompress_timer;
      for (int i = 0; i < iterations; ++i) {
        decoded.clear();
        status = codec->Decompress(encoded, payload.size(), &decoded);
      }
      const double decompress_seconds = decompress_timer.ElapsedSeconds();
      DDUP_CHECK(status.ok() && decoded == payload);

      const double ratio =
          encoded.empty()
              ? 1.0
              : static_cast<double>(payload.size()) /
                    static_cast<double>(encoded.size());
      const double compress_mb_s =
          bench::MbPerSecond(payload.size(), iterations, compress_seconds);
      const double decompress_mb_s =
          bench::MbPerSecond(payload.size(), iterations, decompress_seconds);
      if (codec_name == "lz" && payload_name.rfind("section_", 0) == 0) {
        lz_best_section_ratio = std::max(lz_best_section_ratio, ratio);
      }
      std::printf("  %-28s %-8s %12zu %8.2f %12.1f %12.1f\n",
                  payload_name.c_str(), codec_name.c_str(), payload.size(),
                  ratio, compress_mb_s, decompress_mb_s);
      json.AddRow(bench::JsonObject()
                      .Set("payload", payload_name)
                      .Set("codec", codec_name)
                      .Set("payload_bytes",
                           static_cast<int64_t>(payload.size()))
                      .Set("encoded_bytes",
                           static_cast<int64_t>(encoded.size()))
                      .Set("ratio", ratio)
                      .Set("compress_mb_per_s", compress_mb_s)
                      .Set("decompress_mb_per_s", decompress_mb_s));
    }
  }

  // The headline the data-plane work is judged on: LZ on a real checkpoint
  // section (ISSUE acceptance asks for >=2x).
  json.SetParam("lz_best_checkpoint_section_ratio", lz_best_section_ratio);
  std::printf("  lz best checkpoint-section ratio: %.2fx\n",
              lz_best_section_ratio);
  json.Write();
  return 0;
}
