// ddup_ledger: the repository benchmark. One program, two workloads:
//
//   ddup_ledger --workload <estimate_read|drift_update>
//               --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload with spans on and adds the layer walk, printing the per-layer
// metrics. The last stdout line is the JSON result; the full report (every
// metric with unit and sample count, operations, checks, host stamp) is
// written to <work-dir>/report-<workload>-<seed>-<trace>.json. A failed
// output check prints "correct": false and exits 1. See ledger/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fixture.h"
#include "nn/kernels.h"
#include "report.h"
#include "span.h"
#include "workloads.h"

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "estimate_qps",
    "ce_estimate_p50_us",
    "ce_estimate_p99_us",
    "aqp_estimate_p50_us",
    "aqp_estimate_p99_us",
    "join_estimate_p50_us",
    "ingest_rows_per_s",
    "staleness_ms",
    "ce_qerror_p50",
    "aqp_relerr_p50",
    "checkpoint_bytes",
    "save_ms",
    "load_ms",
};

const std::vector<std::string> kPerLayer = {
    "nn.gemm256_gflops",
    "nn.pool_heap_allocs_per_1k_estimates",
    "models.darn.estimate_us",
    "models.mdn.estimate_us",
    "models.darn.distill_ms",
    "models.mdn.distill_ms",
    "models.darn.finetune_ms",
    "models.mdn.finetune_ms",
    "models.train_s",
    "exec.vectorized.darn_b32_us_per_query",
    "exec.vectorized.mdn_b32_us_per_query",
    "exec.reference.darn_b32_us_per_query",
    "exec.vectorized.darn_b1_us",
    "exec.vectorized.mdn_b1_us",
    "core.detect_ms",
    "core.bootstrap_refresh_ms",
    "core.handle_insertion_ood_ms",
    "core.handle_insertion_ind_ms",
    "core.ood_batches",
    "api.engine_estimate_overhead_us",
    "api.engine_estimate_overhead_ce_us",
    "api.estimate_scaling_4c",
    "api.router_join_overhead_us",
    "api.clone_model_ms",
    "ingest_p99_us",
    "api.ingest_buffer_us",
    "api.queue_wait_ms",
    "serving.cluster_estimate_overhead_us",
    "storage.stats_absorb_us",
    "storage.buffered_bytes_peak",
    "io.checkpoint_raw_bytes",
    "bench.generator_late_p99_ms",
    "ledger.ce_read_residual_pct",
    "ledger.aqp_read_residual_pct",
    "ledger.update_stages_ms",
    "ledger.update_residual_pct",
    "ledger.update_span_vs_engine_ratio",
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ddup_ledger: %s\nusage: ddup_ledger --workload "
               "<estimate_read|drift_update> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunOptions options;
  options.work_dir = ".bench_build/ledger-run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  const auto& names = ledger::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage("unknown workload");
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create work dir " + options.work_dir).c_str());
  options.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  ledger::EnableTracing(options.trace);
  ledger::Report report;
  report.Stamp("workload", options.workload);
  report.Stamp("seed", std::to_string(options.seed));
  report.Stamp("seconds", std::to_string(options.seconds));
  report.Stamp("trace", options.trace ? "1" : "0");
  report.Stamp("nproc", std::to_string(options.nproc));
  report.Stamp("cpu_model", CpuModel());
  report.Stamp("gemm_kernel", ddup::nn::GemmKernelName());
  const char* threads_env = std::getenv("DDUP_THREADS");
  report.Stamp("DDUP_THREADS", threads_env != nullptr ? threads_env : "unset");
  report.Stamp("default_threads", std::to_string(ddup::DefaultThreadCount()));
  report.Stamp("update_workers", std::to_string(ledger::kUpdateWorkers));

  const double start = ledger::NowSeconds();
  ledger::RunWorkload(options, &report);
  report.Set("run_seconds", "s", ledger::NowSeconds() - start, 1);

  const std::string path = options.work_dir + "/report-" + options.workload +
                           "-" + std::to_string(options.seed) + "-" +
                           (options.trace ? "1" : "0") + ".json";
  report.Print(options.trace ? kPerLayer : kEndToEnd, path);
  return report.correct() ? 0 : 1;
}
