// Synchronous random-read driver for the multi-disk virtual-log array, and the prepopulation
// it verifies against. (Closed-loop updates over an array use RunClosedLoopUpdates in
// queue_sweep.h: a VldArray is a queued BlockDevice like any other.)
//
// The read driver measures synchronous array reads over a region prepopulated with a known
// per-block pattern, verifying every returned payload — run it healthy and again with a
// replica marked failed to compare mirrored degraded-mode latency against the read-balanced
// healthy path.
#ifndef SRC_WORKLOAD_ARRAY_SWEEP_H_
#define SRC_WORKLOAD_ARRAY_SWEEP_H_

#include <cstdint>

#include "src/array/vld_array.h"
#include "src/common/status.h"
#include "src/workload/queue_sweep.h"

namespace vlog::workload {

// Writes the deterministic pattern (the one RunClosedLoopUpdates writes) to every block of the
// region (0 = first half), so RunArrayRandomReads can verify payloads. Uses the synchronous
// write path.
common::Status PrepopulateArray(array::VldArray& array, uint32_t region_blocks = 0);

struct ArrayReadResult : LatencySummary {
  bool payloads_ok = true;  // Every read returned its block's expected pattern.
};

// Runs `reads` synchronous random one-block reads over the (prepopulated) region, verifying
// each payload against the deterministic pattern. Latency is the array-clock delta per read.
common::StatusOr<ArrayReadResult> RunArrayRandomReads(array::VldArray& array, int reads,
                                                      uint64_t seed = 3,
                                                      uint32_t region_blocks = 0);

}  // namespace vlog::workload

#endif  // SRC_WORKLOAD_ARRAY_SWEEP_H_
