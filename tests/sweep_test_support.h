// Shared by the crash-sweep test binaries (crashsim_test, array_crashsim_test): the
// --seed=N/--point=K flags that a failing report's Summary() names in its replay command, and
// the pinned-summary check against tests/golden/crash_sweep_summaries.txt.
//
// The golden file holds one line per sweep: "<Suite.Test>\t<Summary()>", with
// backslashes and newlines escaped as \\ and \n. A mismatch prints the line the current code
// produces, so an intended change to a sweep's report is a one-line edit of the golden file.
#ifndef TESTS_SWEEP_TEST_SUPPORT_H_
#define TESTS_SWEEP_TEST_SUPPORT_H_

#include <cstdint>

#include "src/crashsim/harness.h"

namespace vlog::crashsim {

// Base seed for the randomized parts of the sweeps (reorder sampling and torn/corrupt variant
// choice) and the optional single-ordinal replay, set by main() from --seed=N --point=K.
extern uint64_t g_sweep_seed;
extern int64_t g_sweep_point;

// In --point=K replay mode only one crash point is recovered and checked, so per-recovery
// counters (park/scan/checkpoint tallies) lose their usual floors.
bool Replaying();

// Default sweep options with the command-line seed and replay ordinal applied.
CrashSweepOptions SeededSweepOptions();

// Expects report.Summary() to equal the golden line keyed by the running test's full name.
// Skipped when --seed or --point overrides the defaults, since the pinned summaries are those
// of seed 1 over every point.
void ExpectGoldenSummary(const CrashSweepReport& report);

}  // namespace vlog::crashsim

#endif  // TESTS_SWEEP_TEST_SUPPORT_H_
