// The three workloads, each run end to end through the library's public
// API: load → index → train → evaluate → serve (train-*), or load →
// serve → train → evaluate (serve-mixed).
#ifndef KGBENCH_WORKLOADS_H_
#define KGBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace kgb {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  ///< Generated train/valid/test TSV files.
  std::string work_dir;  ///< Checkpoints, span file, report.
  int threads = 4;
  /// Self-test only: spin this long per sampled triple (training).
  int64_t sampler_delay_ns = 0;
  /// Self-test only: arm a "serve.execute" latency fault of this many
  /// microseconds on every 8th executed request.
  int64_t serve_fault_us = 0;
};

struct RunReport {
  CheckLog log;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  JsonObject extra;  ///< Diagnostics written to the report file only.
};

/// Runs one workload. Returns false when it could not run to its end
/// (I/O failure, server start failure); check failures are in the log.
bool RunWorkload(const RunOptions& opt, RunReport* report);

/// The generator's graph for a workload name; false for unknown names.
bool GenerateForWorkload(const std::string& workload, uint64_t seed,
                         const std::string& dir);

/// Feeds every checker corrupted results and verifies it rejects them.
/// Returns the number of cases that behaved wrongly (0 = pass).
int RunCheckerSelfTest();

}  // namespace kgb

#endif  // KGBENCH_WORKLOADS_H_
