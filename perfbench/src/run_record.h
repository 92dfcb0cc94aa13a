// What a result was measured on: machine, toolchain, source and inputs.
// Printed as one JSON line before the result and written next to the
// spans, so every figure can be traced back to its box and commit.

#ifndef PERFBENCH_RUN_RECORD_H_
#define PERFBENCH_RUN_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSamples {
  std::string name;
  uint64_t samples = 0;
  double tail_percentile = 0.0;  ///< 0 unless the metric is a tail
};

struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  double seconds = 0.0;
  /// Share of the machine's CPU time the hypervisor took from this VM
  /// while the run went on (/proc/stat "steal"); negative when unknown.
  double steal_frac = -1.0;
  std::vector<MetricSamples> metrics;
};

/// Cumulative CPU ticks (all CPUs) from /proc/stat: {steal, total}.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
bool ReadCpuTicks(CpuTicks* ticks);

/// JSON object: cpu_model, nproc, compiler, build_type, commit (the
/// PERFBENCH_COMMIT environment variable, "unknown" when unset), workload,
/// seed, trace, seconds, steal_frac and per-metric sample counts.
std::string RunRecordJson(const RunRecord& record);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_RECORD_H_
