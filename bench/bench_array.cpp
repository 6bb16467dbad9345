// Multi-disk virtual-log array: striped write-scaling across N member disks and mirrored
// healthy-vs-degraded read latency. The striped leg runs the closed-loop random-update driver
// (16 streams, cross-disk group commit: one packed virtual-log commit per touched member per
// batch) over N in {1, 2, 4, 8} identical members and reports IOPS plus p50/p99; the N = 1 row
// must produce exactly the IOPS of the same sequence against a bare member VLD — the array
// layer dissolves completely at N = 1. The mirrored leg prepopulates a 2-way mirror, measures
// read-balanced healthy reads, fails one replica, and measures the degraded path, verifying
// every payload both ways.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/array/vld_array.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/array_sweep.h"
#include "src/workload/queue_sweep.h"

namespace {

using namespace vlog;

constexpr uint64_t kSeed = 2;
constexpr uint32_t kDepth = 16;

// One member's full stack: its own clock, disk, and VLD, heap-held so the disk's clock pointer
// stays valid as the collection grows.
struct Stack {
  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<core::Vld> vld;
};

std::vector<std::unique_ptr<Stack>> MakeStacks(uint32_t n) {
  std::vector<std::unique_ptr<Stack>> stacks;
  for (uint32_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stack>();
    s->disk = std::make_unique<simdisk::SimDisk>(simdisk::Truncated(simdisk::Hp97560(), 36),
                                                 &s->clock);
    s->vld = std::make_unique<core::Vld>(s->disk.get(), core::VldConfig{.queue_depth = 32});
    stacks.push_back(std::move(s));
  }
  return stacks;
}

std::vector<core::Vld*> Members(const std::vector<std::unique_ptr<Stack>>& stacks) {
  std::vector<core::Vld*> members;
  for (const auto& s : stacks) {
    members.push_back(s->vld.get());
  }
  return members;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::BenchFlags::Parse(argc, argv);
  const int updates = flags.smoke ? 300 : 1500;
  const int warmup = flags.smoke ? 48 : 192;
  const int reads = flags.smoke ? 200 : 1000;
  bench::Header("Virtual-log array: striped scaling and mirrored degraded reads, HP97560 members");
  bench::MetricsReport report("array");

  // --- Striped scaling: N in {1, 2, 4, 8}, write-heavy closed loop, depth 16 ---
  bench::Note("Striped write scaling (16 streams, one packed group commit per member per batch):");
  bench::PrintPercentileHeader();
  // All runs share the N = 1 array's region so the request sequence is identical across N and
  // against the bare-member baseline (only the data layout changes).
  uint32_t region_blocks = 0;
  double prev_iops = 0;
  double iops_n1 = 0;
  bool monotonic = true;
  // The N = 2 leg carries the per-member timeline: array-level gauges plus every member's
  // VLD/disk series under "m0."/"m1.", polled at each batch boundary with the barrier time.
  std::string array_timeline_json;
  size_t array_windows = 0;
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    auto stacks = MakeStacks(n);
    array::VldArray array(Members(stacks), {.mode = array::ArrayMode::kStriped});
    bench::Check(array.Format(), "array format");
    if (region_blocks == 0) {
      region_blocks =
          static_cast<uint32_t>(array.SectorCount() / array.block_sectors()) / 2;
    }
    std::unique_ptr<obs::Timeline> timeline;
    obs::WindowedHistogram* latency = nullptr;
    if (n == 2) {
      timeline = std::make_unique<obs::Timeline>(obs::TimelineConfig{
          .window = common::Milliseconds(100), .start = array.Now()});
      latency = &timeline->AddHistogram("latency");
      array.RegisterTimelineProbes(*timeline);
      timeline->AddSteadySeries("m0.vld.free_blocks");
      timeline->AddSteadySeries("m1.vld.free_blocks");
    }
    const workload::QueueDepthResult r = bench::CheckOk(
        workload::RunClosedLoopUpdates(array, kDepth, updates, warmup, kSeed, region_blocks,
                                       /*tracer=*/nullptr, timeline.get(), latency),
        "striped sweep");
    if (timeline != nullptr) {
      timeline->Finish(array.Now());
      array_timeline_json = timeline->Json();
      array_windows = timeline->windows().size();
    }
    char label[32];
    std::snprintf(label, sizeof(label), "striped/N=%u", n);
    bench::PrintPercentileRow(label, r.iops, r.latency_hist);
    report.AddRow(label, r.iops, r.latency_hist, obs::TimeBreakdown{},
                  {{"members", static_cast<double>(n)},
                   {"depth", static_cast<double>(kDepth)},
                   {"region_blocks", static_cast<double>(region_blocks)}});
    monotonic &= r.iops + 1e-9 >= prev_iops;
    prev_iops = r.iops;
    if (n == 1) {
      iops_n1 = r.iops;
    }
  }

  // The bare-member baseline for the N = 1 identity gate: the same streams, seed, and region
  // through a single Vld's queue with no array layer in the path.
  double iops_bare = 0;
  {
    auto stacks = MakeStacks(1);
    bench::Check(stacks[0]->vld->Format(), "bare format");
    const workload::QueueDepthResult r = bench::CheckOk(
        workload::RunClosedLoopUpdates(*stacks[0]->vld, kDepth, updates, warmup, kSeed,
                                       region_blocks),
        "bare sweep");
    bench::PrintPercentileRow("bare-vld", r.iops, r.latency_hist);
    report.AddRow("bare-vld", r.iops, r.latency_hist, obs::TimeBreakdown{},
                  {{"members", 1.0},
                   {"depth", static_cast<double>(kDepth)},
                   {"region_blocks", static_cast<double>(region_blocks)}});
    iops_bare = r.iops;
  }

  // --- Mirrored: healthy (read-balanced) vs degraded (one replica failed) random reads ---
  bench::Note("\nMirrored 2-way random reads, healthy vs degraded (replica 0 failed):");
  bench::PrintPercentileHeader();
  auto stacks = MakeStacks(2);
  array::VldArray mirror(Members(stacks), {.mode = array::ArrayMode::kMirrored});
  bench::Check(mirror.Format(), "mirror format");
  const uint32_t mirror_region = std::min<uint32_t>(
      static_cast<uint32_t>(mirror.SectorCount() / mirror.block_sectors()) / 2, 512);
  bench::Check(workload::PrepopulateArray(mirror, mirror_region), "mirror prepopulate");
  const workload::ArrayReadResult healthy = bench::CheckOk(
      workload::RunArrayRandomReads(mirror, reads, /*seed=*/3, mirror_region), "healthy reads");
  bench::PrintPercentileRow("mirror/healthy", healthy.iops, healthy.latency_hist);
  bench::Check(mirror.MarkFailed(0), "fail replica");
  const workload::ArrayReadResult degraded = bench::CheckOk(
      workload::RunArrayRandomReads(mirror, reads, /*seed=*/3, mirror_region), "degraded reads");
  bench::PrintPercentileRow("mirror/degraded", degraded.iops, degraded.latency_hist);
  report.AddRow("mirror/healthy", healthy.iops, healthy.latency_hist, obs::TimeBreakdown{},
                {{"members", 2.0},
                 {"failed", 0.0},
                 {"payloads_ok", healthy.payloads_ok ? 1.0 : 0.0},
                 {"region_blocks", static_cast<double>(mirror_region)}});
  report.AddRow("mirror/degraded", degraded.iops, degraded.latency_hist, obs::TimeBreakdown{},
                {{"members", 2.0},
                 {"failed", 1.0},
                 {"payloads_ok", degraded.payloads_ok ? 1.0 : 0.0},
                 {"region_blocks", static_cast<double>(mirror_region)}});

  // Acceptance gates: striped IOPS monotonically non-decreasing N = 1 -> 8, the N = 1 array
  // exactly matching the bare member (bit-for-bit clock identity implies bit-for-bit IOPS),
  // and every mirrored read — healthy and degraded — returning the right payload.
  bench::Note("");
  const bool n1_identity = iops_n1 == iops_bare;
  const bool payloads = healthy.payloads_ok && degraded.payloads_ok;
  const bool timeline_ok = array_windows >= 1;
  std::printf("striped IOPS monotonically non-decreasing in N: %s\n", monotonic ? "yes" : "NO");
  std::printf("N=1 array IOPS == bare VLD exactly: %s (%.3f vs %.3f)\n",
              n1_identity ? "yes" : "NO", iops_n1, iops_bare);
  std::printf("mirrored read payloads correct (healthy and degraded): %s\n",
              payloads ? "yes" : "NO");
  std::printf("N=2 per-member timeline has windows: %s (%zu)\n", timeline_ok ? "yes" : "NO",
              array_windows);
  if (!monotonic || !n1_identity || !payloads || !timeline_ok) {
    std::fprintf(stderr, "FATAL: array acceptance gates failed\n");
    return 1;
  }

  bench::Note("\nStriping spreads the eager-write fan-out so a deep queue's batch lands as one");
  bench::Note("packed commit per member behind the cross-disk barrier; mirroring trades that");
  bench::Note("scaling for redundancy, and a failed replica only removes the read balance.");
  report.MaybeWrite(flags);
  bench::MaybeWriteTimeline(flags, array_timeline_json);
  return 0;
}
