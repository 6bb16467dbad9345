// Crash sweeps over the 2-member virtual-log array: per-member crash points on the global
// disk-tagged trace, torn member commits, reordered mid-destage subsets on one member while
// the other sits at its barrier, and the array's stitched recovery (striped per-member-group
// atomicity, mirrored replica resync) at every point.
#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/crashsim/array_harness.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/crashsim/write_trace.h"
#include "tests/sweep_test_support.h"

namespace vlog::crashsim {

// The replay command a failing Summary() prints works verbatim here (the shared main in
// sweep_test_support.cc parses it):
//   array_crashsim_test --seed=N --point=K
// Every sweep also pins its Summary() in tests/golden/crash_sweep_summaries.txt.
namespace {

// Striped, write-through members: torn/corrupt points cut inside individual member commits,
// including the packed group-commit map writes a cross-disk batch produces on each member.
TEST(ArrayCrashSweepTest, StripedGroupCommitHasNoViolations) {
  ArrayCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig(), CrashSimStripedArrayConfig(),
                    /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  // The recorded trace really is multi-disk: both members contributed media writes.
  std::set<uint32_t> disks;
  for (size_t i = 0; i < sim.trace().size(); ++i) {
    disks.insert(sim.trace()[i].disk);
  }
  EXPECT_EQ(disks, (std::set<uint32_t>{0, 1}));

  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] striped: " << report.Summary() << "\n";
  ExpectGoldenSummary(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.torn_points, 20u) << report.Summary();
  if (!Replaying()) {
    // No park in the workload: every member recovery takes the scan path.
    EXPECT_EQ(report.park_recoveries, 0u) << report.Summary();
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

// Same striped scenario on write-back cached members: kReorder points scramble one member's
// mid-destage writes while the other member's image stays at its last barrier — the "subset of
// the disks torn/reordered" model.
TEST(ArrayCrashSweepTest, StripedCachedDestageHasNoViolations) {
  ArrayCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig(),
                    CrashSimStripedArrayConfig(), /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] striped-cached: " << report.Summary() << "\n";
  ExpectGoldenSummary(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 50u) << report.Summary();
}

// Mirrored, cached members: crash points that land between the two replica commits leave one
// replica ahead; the stitched recovery's resync must converge both to an all-old-or-all-new
// view without ever rolling back an acknowledged write.
TEST(ArrayCrashSweepTest, MirroredResyncHasNoViolations) {
  ArrayCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig(),
                    CrashSimMirroredArrayConfig(), /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kMirroredResync, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] mirrored: " << report.Summary() << "\n";
  ExpectGoldenSummary(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.reorder_points, 30u) << report.Summary();
}

// Satellite: the failure banner must print a complete replay command — both the seed and the
// ordinal of the first violating point — not just the seed.
TEST(ArrayCrashSweepTest, ViolationSummaryPrintsFullReplayCommand) {
  CrashSweepReport report;
  report.seed = 5;
  CrashPoint point;
  point.ordinal = 7;
  point.kind = CrashKind::kTornPrefix;
  point.keep_sectors = 2;
  report.AddViolation(point, "synthetic violation", 8);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("--seed=5"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--point=7"), std::string::npos) << summary;
}

// Replay narrows the sweep to one ordinal but still enumerates (and counts) every point, so a
// replayed report stays comparable to the failing run's banner.
TEST(ArrayCrashSweepTest, OnlyOrdinalReplaysSinglePoint) {
  ArrayCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig(), CrashSimStripedArrayConfig(),
                    /*member_count=*/2);
  ASSERT_TRUE(RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim).ok());
  CrashSweepOptions options = SeededSweepOptions();
  options.only_ordinal = 3;
  const CrashSweepReport report = sim.Sweep(options);
  ExpectGoldenSummary(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u);
  EXPECT_EQ(report.recovery_times.size(), 1u) << "replay must recover exactly one point";
}

}  // namespace
}  // namespace vlog::crashsim
