// The four benchmark workloads. Each call runs one self-contained round: build the stack,
// set it up, run the timed phase, check every output, and read the layers' counters. A round
// is a pure function of the seed, so every simulated number and count repeats exactly.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RoundResult {
  // Units are host ops, or crash points for crash_sweep. `attempted` also counts the
  // verification units (blocks read back, recovery checks); `failed` counts every non-OK
  // status, payload mismatch, invariant violation or path-guard miss.
  uint64_t units = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few failures, for diagnosis.

  double setup_s = 0;  // Wall: format, prepopulate, script recording.
  double timed_s = 0;  // Wall: the timed phase only.

  // Simulated end-to-end numbers.
  double sim_iops = 0;
  double sim_p50_ms = 0;
  double sim_p99_ms = 0;
  double sim_tail_pct = 0;   // Percentile sim_p99_ms was taken at (99 unless samples are few).
  uint64_t sim_samples = 0;  // Latency samples behind sim_p50_ms / sim_p99_ms.
  double sim_max_backlog = 0;

  // Per-layer counts, read once from the layers' stats() after the timed phase.
  std::map<std::string, double> counts;

  void Fail(const std::string& what);
};

// With `setup_only` the round stops after set-up: only setup_s (and any failure) is set.
using WorkloadFn = RoundResult (*)(uint64_t seed, bool setup_only);

struct Workload {
  const char* name;
  WorkloadFn run;
};

// The workloads in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

// Every per-layer count a round may set, as (name, unit) in report order. Counts a workload
// leaves unset report 0.
const std::vector<std::pair<std::string, std::string>>& CountMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
