#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/array/vld_array.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/benchmarks.h"
#include "src/workload/platform.h"
#include "src/workload/queue_sweep.h"

namespace vlog::workload {
namespace {

TEST(PlatformConfig, NamesAreDescriptive) {
  PlatformConfig config;
  config.fs_kind = FsKind::kUfs;
  config.disk_kind = DiskKind::kVld;
  config.disk_model = DiskModel::kHp97560;
  config.host_kind = HostKind::kUltra170;
  EXPECT_EQ(config.Name(), "UFS/VLD (HP97560, Ultra-170)");
  config.fs_kind = FsKind::kLfs;
  config.disk_kind = DiskKind::kRegular;
  config.disk_model = DiskModel::kSt19101;
  config.host_kind = HostKind::kSparc10;
  EXPECT_EQ(config.Name(), "LFS/regular (ST19101, SPARC-10)");
}

TEST(Platform, DefaultTruncationMatchesPaper) {
  // ~24 MB for both disk models (36 HP cylinders / 11 Seagate cylinders).
  for (const DiskModel model : {DiskModel::kHp97560, DiskModel::kSt19101}) {
    PlatformConfig config;
    config.disk_model = model;
    Platform platform(config);
    const double mb =
        static_cast<double>(platform.raw_disk().geometry().CapacityBytes()) / (1 << 20);
    EXPECT_NEAR(mb, 23.5, 1.5) << static_cast<int>(model);
  }
}

TEST(Platform, AssemblesAllFourConfigurations) {
  for (const FsKind fs : {FsKind::kUfs, FsKind::kLfs}) {
    for (const DiskKind disk : {DiskKind::kRegular, DiskKind::kVld}) {
      PlatformConfig config;
      config.fs_kind = fs;
      config.disk_kind = disk;
      config.cylinders = 4;
      Platform platform(config);
      ASSERT_TRUE(platform.Format().ok());
      EXPECT_EQ(platform.vld() != nullptr, disk == DiskKind::kVld);
      EXPECT_EQ(platform.ufs() != nullptr, fs == FsKind::kUfs);
      EXPECT_EQ(platform.log_disk() != nullptr, fs == FsKind::kLfs);
      ASSERT_TRUE(platform.fs().Create("/x").ok());
      EXPECT_TRUE(platform.fs().Stat("/x").ok());
    }
  }
}

TEST(Platform, RunIdleAdvancesClockExactly) {
  PlatformConfig config;
  config.cylinders = 4;
  Platform platform(config);
  ASSERT_TRUE(platform.Format().ok());
  const common::Time before = platform.clock().Now();
  platform.RunIdle(common::Milliseconds(250));
  EXPECT_EQ(platform.clock().Now(), before + common::Milliseconds(250));
}

TEST(Platform, DeviceBytesSmallerOnVld) {
  PlatformConfig regular;
  regular.cylinders = 4;
  PlatformConfig vld = regular;
  vld.disk_kind = DiskKind::kVld;
  Platform a(regular), b(vld);
  ASSERT_TRUE(a.Format().ok());
  ASSERT_TRUE(b.Format().ok());
  EXPECT_GT(a.DeviceBytes(), b.DeviceBytes());  // Map + slack overhead.
  EXPECT_GT(b.DeviceBytes(), a.DeviceBytes() * 9 / 10);
}

TEST(Benchmarks, SmallFileRunsAndOrdersPhases) {
  PlatformConfig config;
  config.cylinders = 6;
  config.host_kind = HostKind::kZeroCost;
  Platform platform(config);
  ASSERT_TRUE(platform.Format().ok());
  auto result = RunSmallFile(platform, /*files=*/100, /*file_bytes=*/1024);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->create, 0);
  EXPECT_GT(result->read, 0);
  EXPECT_GT(result->remove, 0);
  // Synchronous metadata makes create/delete far costlier than cached reads on UFS.
  EXPECT_GT(result->create, result->read);
}

TEST(Benchmarks, LargeFileBandwidthSane) {
  PlatformConfig config;
  config.cylinders = 6;
  Platform platform(config);
  ASSERT_TRUE(platform.Format().ok());
  auto result = RunLargeFile(platform, /*file_bytes=*/2 << 20, /*include_sync_phase=*/true);
  ASSERT_TRUE(result.ok());
  // Every phase finishes in positive time, and sync random writes are the slowest of all.
  EXPECT_GT(result->rand_write_sync, result->seq_write);
  EXPECT_GT(result->rand_write_sync, result->rand_write_async);
  EXPECT_GT(result->seq_read, 0);
}

TEST(Benchmarks, RandomUpdatesFasterOnVld) {
  auto run = [](DiskKind kind) {
    PlatformConfig config;
    config.cylinders = 6;
    config.disk_kind = kind;
    Platform platform(config);
    EXPECT_TRUE(platform.Format().ok());
    auto result = RunRandomUpdates(platform, /*file_bytes=*/4 << 20, /*updates=*/100,
                                   /*warmup=*/20);
    EXPECT_TRUE(result.ok());
    return result->avg_latency;
  };
  EXPECT_GT(run(DiskKind::kRegular), 2 * run(DiskKind::kVld));
}

TEST(Benchmarks, BurstIdleImprovesWithIdleOnVld) {
  auto run = [](double idle_s) {
    PlatformConfig config;
    config.cylinders = 6;
    config.disk_kind = DiskKind::kVld;
    config.vld.target_empty_tracks = 64;
    Platform platform(config);
    EXPECT_TRUE(platform.Format().ok());
    auto latency = RunBurstIdle(platform, /*file_bytes=*/7 << 20, /*burst_bytes=*/128 << 10,
                                common::Seconds(idle_s), /*rounds=*/12, /*warmup_rounds=*/4);
    EXPECT_TRUE(latency.ok());
    return *latency;
  };
  EXPECT_GT(run(0.0), run(0.5));
}

TEST(Benchmarks, UpdateUtilizationReported) {
  PlatformConfig config;
  config.cylinders = 6;
  Platform platform(config);
  ASSERT_TRUE(platform.Format().ok());
  auto result = RunRandomUpdates(platform, /*file_bytes=*/3 << 20, /*updates=*/50,
                                 /*warmup=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fs_utilization, 0.2);
  EXPECT_LT(result->fs_utilization, 0.9);
}

// --- Driver golden: every workload driver's output on a short run, pinned ------------------
//
// tests/golden/workload_driver_summaries.txt holds one line per run: "<key>\t<summary>". The
// summary pins IOPS at full precision, the latency histogram's count, sum, p50 and p99, the
// tracer's breakdown total and the open loop's peak backlog, so a driver edit that moves any
// simulated byte shows up here rather than only in the benches' relative gates. A mismatch
// prints the line the current code produces.

const std::map<std::string, std::string>& DriverGolden() {
  static const std::map<std::string, std::string> golden = [] {
    std::map<std::string, std::string> lines;
    std::ifstream in(VLOG_WORKLOAD_GOLDEN);
    std::string line;
    while (std::getline(in, line)) {
      const size_t tab = line.find('\t');
      if (tab != std::string::npos) {
        lines.emplace(line.substr(0, tab), line.substr(tab + 1));
      }
    }
    return lines;
  }();
  return golden;
}

void ExpectDriverGolden(const std::string& key, double iops,
                        const obs::LatencyHistogram& hist, common::Duration breakdown_total,
                        uint64_t max_backlog) {
  char summary[256];
  std::snprintf(summary, sizeof(summary),
                "iops=%.17g count=%llu sum=%llu p50=%.17g p99=%.17g breakdown=%lld backlog=%llu",
                iops, static_cast<unsigned long long>(hist.Count()),
                static_cast<unsigned long long>(hist.Sum()), hist.Percentile(50),
                hist.Percentile(99), static_cast<long long>(breakdown_total),
                static_cast<unsigned long long>(max_backlog));
  const auto it = DriverGolden().find(key);
  EXPECT_TRUE(it != DriverGolden().end() && it->second == summary)
      << (it == DriverGolden().end() ? "no golden line for " : "line differs from golden for ")
      << key << " in " << VLOG_WORKLOAD_GOLDEN << "; the current line is:\n"
      << key << "\t" << summary;
}

// One traced VLD on the truncated HP97560 the queue-depth bench uses.
struct DriverRig {
  explicit DriverRig(core::VldConfig config = core::VldConfig{.queue_depth = 32},
                     uint32_t cylinders = 36)
      : disk(simdisk::Truncated(simdisk::Hp97560(), cylinders), &clock), tracer(&clock),
        vld(&disk, config) {
    disk.set_tracer(&tracer);
    EXPECT_TRUE(vld.Format().ok());
  }
  common::Clock clock;
  simdisk::SimDisk disk;
  obs::TraceRecorder tracer;
  core::Vld vld;
};

TEST(DriverGoldenTest, ClosedLoopUpdatesOnBareVld) {
  DriverRig rig;
  auto r = RunClosedLoopUpdates(rig.vld, /*depth=*/8, /*updates=*/160, /*warmup=*/16,
                                /*seed=*/2, /*region_blocks=*/0, &rig.tracer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectDriverGolden("updates/vld", r->iops, r->latency_hist, r->breakdown.Total(), 0);
}

TEST(DriverGoldenTest, ClosedLoopUpdatesOnStripedArrayWithTimeline) {
  std::vector<std::unique_ptr<common::Clock>> clocks;
  std::vector<std::unique_ptr<simdisk::SimDisk>> disks;
  std::vector<std::unique_ptr<core::Vld>> vlds;
  std::vector<core::Vld*> members;
  for (int m = 0; m < 2; ++m) {
    clocks.push_back(std::make_unique<common::Clock>());
    disks.push_back(std::make_unique<simdisk::SimDisk>(
        simdisk::Truncated(simdisk::Hp97560(), 36), clocks.back().get()));
    vlds.push_back(
        std::make_unique<core::Vld>(disks.back().get(), core::VldConfig{.queue_depth = 32}));
    members.push_back(vlds.back().get());
  }
  array::VldArray array(members, {.mode = array::ArrayMode::kStriped});
  ASSERT_TRUE(array.Format().ok());
  obs::Timeline timeline(
      obs::TimelineConfig{.window = common::Milliseconds(50), .start = array.Now()});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  array.RegisterTimelineProbes(timeline);
  auto r = RunClosedLoopUpdates(array, /*depth=*/8, /*updates=*/160, /*warmup=*/16,
                                /*seed=*/2, /*region_blocks=*/0, /*tracer=*/nullptr, &timeline,
                                &latency);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(latency.total().Count(), r->latency_hist.Count());
  ExpectDriverGolden("updates/array2", r->iops, r->latency_hist, 0, 0);
}

TEST(DriverGoldenTest, MixedStreamsUnderFcfsAndSptf) {
  for (const simdisk::SchedulerPolicy policy :
       {simdisk::SchedulerPolicy::kFcfs, simdisk::SchedulerPolicy::kSptf}) {
    DriverRig rig(core::VldConfig{.queue_depth = 32, .read_policy = policy});
    MixedStreamOptions options;
    options.streams = 8;
    options.ops = 200;
    options.warmup = 20;
    options.stream_configs = {StreamConfig{.read_fraction = 0.5}};
    auto r = RunMixedStreams(rig.vld, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectDriverGolden(
        policy == simdisk::SchedulerPolicy::kFcfs ? "mixed/fcfs" : "mixed/sptf", r->iops,
        r->latency_hist, r->breakdown.Total(), 0);
  }
}

TEST(DriverGoldenTest, OpenLoopWithBurst) {
  DriverRig rig;
  const OpenLoopOptions options{.rate_ops_per_s = 150,
                                .burst_rate_ops_per_s = 1200,
                                .burst_start = common::Milliseconds(200),
                                .burst_duration = common::Milliseconds(200),
                                .arrivals = 300,
                                .seed = 2};
  auto r = RunGovernedOpenLoop(rig.vld, options, /*governor=*/nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectDriverGolden("openloop/burst", r->achieved_iops, r->latency_hist,
                     r->breakdown.Total(), r->max_backlog);
}

TEST(DriverGoldenTest, GovernedDiurnalOpenLoop) {
  // The governor test's small high-utilization rig, so the run compacts within 1100 arrivals.
  DriverRig rig(core::VldConfig{.queue_depth = 16}, /*cylinders=*/6);
  OpenLoopOptions options;
  options.process = ArrivalProcess::kDiurnal;
  options.rate_ops_per_s = 40;
  options.diurnal_period = common::Seconds(2);
  options.diurnal_amplitude = 0.75;
  options.arrivals = 1100;
  options.region_blocks = static_cast<uint32_t>(rig.vld.logical_blocks() * 0.55);
  options.max_batch = 8;
  options.seed = 3;
  std::vector<std::byte> payload(4096);
  for (uint32_t b = 0; b < options.region_blocks; ++b) {
    ASSERT_TRUE(rig.vld.Write(static_cast<simdisk::Lba>(b) * 8, payload).ok());
  }
  obs::Timeline timeline(
      obs::TimelineConfig{.window = common::Milliseconds(200), .start = rig.clock.Now()});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  core::GovernorConfig gov_config;
  gov_config.slo_budget = common::Milliseconds(150);
  gov_config.target_empty_tracks = 8;
  core::CompactionGovernor governor(&rig.vld, &timeline, gov_config);
  auto r = RunGovernedOpenLoop(rig.vld, options, &governor, &timeline, &latency);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(rig.vld.compactor().stats().tracks_compacted, 0u);
  ExpectDriverGolden("openloop/governed_diurnal", r->achieved_iops, r->latency_hist,
                     r->breakdown.Total(), r->max_backlog);
}

}  // namespace
}  // namespace vlog::workload
