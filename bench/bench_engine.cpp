// Engine wall-clock throughput: how many *simulated* operations (or crash points) the
// simulator retires per wall-second. Every other bench in this directory measures the
// modeled disk; this one measures us — the cost of running a sweep, a saturation curve, or a
// million-op trace on a developer machine or a CI runner. Four legs cover the hot paths
// the engine spends its life in:
//
//   queue:  deep-queue mixed read/write on a bare VLD with a TraceRecorder attached — the
//           virtual-log append path (map index, packed commits), the SPTF picker, and the
//           span/event recording path all in one loop;
//   array:  an 8-member striped VldArray run — eight per-member stacks, cross-disk group
//           commit, the multi-disk completion barrier;
//   sweep:  a cached-disk crash sweep (torn/corrupt/reorder points) — per-point disk-image
//           reconstruction plus full scan recovery, the inner loop of every crashsim ctest.
//           Run once serial (workers=1) and once with the configured worker pool; the two
//           reports must be byte-identical (the determinism contract), and the speedup is
//           reported alongside;
//   governed: the open-loop diurnal driver with a duty-cycled CompactionGovernor and a live
//           timeline — the long-horizon steady-state loop of bench_queue_depth (idle jumps,
//           per-batch governor decisions, preemptible compaction bursts, window polls).
//
// Output is the unified vlog-bench/1 JSON (one row per leg; wall-clock rates in "extra")
// plus acceptance gates under --smoke: generous ops/wall-second floors that catch an
// order-of-magnitude engine regression without flaking on a noisy shared runner, and the
// exact parallel==serial sweep-report identity at any worker count.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/array/vld_array.h"
#include "src/common/time.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/queue_sweep.h"

namespace {

using namespace vlog;

constexpr uint64_t kSeed = 2;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One member's full stack, heap-held so the disk's clock pointer stays valid.
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

void PrintRate(const char* leg, double units, const char* unit, double wall_s) {
  std::printf("%-8s %10.0f %-12s %8.2fs wall %12.0f %s/wall-s\n", leg, units, unit, wall_s,
              wall_s > 0 ? units / wall_s : 0, unit);
}

// A generous floor: catches an order-of-magnitude regression, tolerates a slow CI runner.
void GateFloor(const char* leg, double rate, double floor) {
  if (rate < floor) {
    std::fprintf(stderr, "FATAL bench_engine gate: %s leg ran at %.0f ops/wall-s, floor %.0f\n",
                 leg, rate, floor);
    std::exit(1);
  }
  std::printf("gate ok: %s >= %.0f ops/wall-s (measured %.0f)\n", leg, floor, rate);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  uint32_t workers = std::thread::hardware_concurrency();
  if (workers == 0) {
    workers = 1;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<uint32_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s (known: --smoke --json=PATH --workers=N)\n",
                   argv[i]);
      return 2;
    }
  }
  bench::BenchFlags flags;
  flags.smoke = smoke;
  flags.json_path = json_path;

  bench::Header("Engine throughput: simulated ops per wall-second");
  bench::MetricsReport report("engine");

  // --- Leg 1: deep-queue mixed read/write, bare VLD, tracer attached ---
  {
    const int ops = smoke ? 4000 : 40000;
    auto stacks = MakeStacks(1);
    Stack& s = *stacks[0];
    obs::TraceRecorder tracer(&s.clock);
    s.disk->set_tracer(&tracer);
    bench::Check(s.vld->Format(), "queue leg format");
    workload::MixedStreamOptions options;
    options.streams = 16;
    options.ops = ops;
    options.warmup = ops / 10;
    options.seed = kSeed;
    options.stream_configs = {workload::StreamConfig{.read_fraction = 0.5}};
    const auto t0 = std::chrono::steady_clock::now();
    const workload::MixedStreamResult r =
        bench::CheckOk(workload::RunMixedStreams(*s.vld, options), "queue leg");
    const double wall = Seconds(std::chrono::steady_clock::now() - t0);
    const double rate = wall > 0 ? static_cast<double>(r.ops) / wall : 0;
    PrintRate("queue", static_cast<double>(r.ops), "ops", wall);
    report.AddRow("queue", r.iops, r.latency_hist, r.breakdown,
                  {{"ops", static_cast<double>(r.ops)},
                   {"wall_seconds", wall},
                   {"ops_per_wall_s", rate},
                   {"spans", static_cast<double>(tracer.spans().size())}});
    if (smoke) {
      GateFloor("queue", rate, 500);
    }
  }

  // --- Leg 2: 8-member striped array ---
  {
    const int updates = smoke ? 1200 : 8000;
    auto stacks = MakeStacks(8);
    array::VldArray array(Members(stacks), {.mode = array::ArrayMode::kStriped});
    bench::Check(array.Format(), "array leg format");
    const uint32_t region_blocks =
        static_cast<uint32_t>(array.SectorCount() / array.block_sectors()) / 2;
    const auto t0 = std::chrono::steady_clock::now();
    const workload::QueueDepthResult r = bench::CheckOk(
        workload::RunClosedLoopUpdates(array, 16, updates, updates / 10, kSeed, region_blocks),
        "array leg");
    const double wall = Seconds(std::chrono::steady_clock::now() - t0);
    const double rate = wall > 0 ? static_cast<double>(r.requests) / wall : 0;
    PrintRate("array", static_cast<double>(r.requests), "ops", wall);
    report.AddRow("array", r.iops, r.latency_hist, obs::TimeBreakdown{},
                  {{"ops", static_cast<double>(r.requests)},
                   {"wall_seconds", wall},
                   {"ops_per_wall_s", rate},
                   {"members", 8.0}});
    if (smoke) {
      GateFloor("array", rate, 150);
    }
  }

  // --- Leg 3: crash sweep, serial vs worker pool, byte-identical reports required ---
  {
    crashsim::CrashSweepOptions options;
    options.enumerate.seed = 1;
    options.reorder.seed = 1;
    if (smoke) {
      options.reorder.samples_per_epoch = 6;
    }
    const auto sweep_once = [&](uint32_t n_workers) {
      crashsim::VldCrashSim sim(crashsim::CrashSimCachedDiskParams(),
                                crashsim::CrashSimVldConfig());
      bench::Check(
          crashsim::RecordVldScenario(crashsim::VldScenario::kQueuedGroupCommit, sim),
          "sweep record");
      crashsim::CrashSweepOptions run = options;
      run.workers = n_workers;
      return sim.Sweep(run);
    };

    const auto t_serial = std::chrono::steady_clock::now();
    const crashsim::CrashSweepReport serial = sweep_once(1);
    const double wall_serial = Seconds(std::chrono::steady_clock::now() - t_serial);

    const auto t_par = std::chrono::steady_clock::now();
    const crashsim::CrashSweepReport parallel = sweep_once(workers);
    const double wall_par = Seconds(std::chrono::steady_clock::now() - t_par);

    if (!serial.ok() || !parallel.ok()) {
      std::fprintf(stderr, "FATAL sweep leg: invariant violations\n%s\n",
                   (!serial.ok() ? serial : parallel).Summary().c_str());
      return 1;
    }
    if (serial.Summary() != parallel.Summary()) {
      std::fprintf(stderr,
                   "FATAL sweep leg: parallel (workers=%u) report differs from serial\n"
                   "--- serial ---\n%s\n--- parallel ---\n%s\n",
                   workers, serial.Summary().c_str(), parallel.Summary().c_str());
      return 1;
    }
    const double rate_serial =
        wall_serial > 0 ? static_cast<double>(serial.points) / wall_serial : 0;
    const double rate_par = wall_par > 0 ? static_cast<double>(parallel.points) / wall_par : 0;
    PrintRate("sweep/1", static_cast<double>(serial.points), "points", wall_serial);
    char label[32];
    std::snprintf(label, sizeof(label), "sweep/%u", workers);
    PrintRate(label, static_cast<double>(parallel.points), "points", wall_par);
    std::printf("sweep parallel==serial report: identical (%llu points, workers=%u)\n",
                static_cast<unsigned long long>(serial.points), workers);
    report.AddRow("sweep", rate_serial, obs::LatencyHistogram{}, obs::TimeBreakdown{},
                  {{"points", static_cast<double>(serial.points)},
                   {"wall_seconds_serial", wall_serial},
                   {"points_per_wall_s_serial", rate_serial},
                   {"workers", static_cast<double>(workers)},
                   {"wall_seconds_parallel", wall_par},
                   {"points_per_wall_s_parallel", rate_par}});
    if (smoke) {
      GateFloor("sweep", rate_serial, 150);
    }
  }

  // --- Leg 4: duty-cycled governed compaction under open-loop diurnal arrivals ---
  //
  // The long-horizon bench_queue_depth leg's hot loop: arrival pre-generation, idle jumps
  // with trough grants, per-batch governor decisions, preemptible compaction bursts with
  // mid-track resume, and timeline polls — the path a million-op steady-state run lives in.
  {
    const int arrivals = smoke ? 3000 : 30000;
    auto stacks = MakeStacks(1);
    Stack& s = *stacks[0];
    bench::Check(s.vld->Format(), "governed leg format");
    const uint32_t region = static_cast<uint32_t>(s.vld->logical_blocks() * 0.55);
    std::vector<std::byte> payload(4096);
    for (uint32_t b = 0; b < region; ++b) {
      bench::Check(s.vld->Write(static_cast<simdisk::Lba>(b) * 8, payload),
                   "governed leg prepopulate");
    }
    workload::OpenLoopOptions options;
    options.process = workload::ArrivalProcess::kDiurnal;
    options.rate_ops_per_s = 24;
    options.diurnal_period = common::Seconds(2);
    options.diurnal_amplitude = 0.75;
    options.arrivals = arrivals;
    options.region_blocks = region;
    options.max_batch = 8;
    options.seed = kSeed;
    obs::Timeline timeline(obs::TimelineConfig{.window = common::Seconds(2),
                                               .start = s.clock.Now()});
    obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
    s.vld->RegisterTimelineProbes(timeline, "");
    core::GovernorConfig gov_config;
    gov_config.slo_budget = common::Milliseconds(400);
    gov_config.target_empty_tracks = 8;
    core::CompactionGovernor governor(s.vld.get(), &timeline, gov_config);
    governor.RegisterTimelineProbes(timeline, "");
    const auto t0 = std::chrono::steady_clock::now();
    const workload::OpenLoopResult r = bench::CheckOk(
        workload::RunGovernedOpenLoop(*s.vld, options, &governor, &timeline, &latency),
        "governed leg");
    const double wall = Seconds(std::chrono::steady_clock::now() - t0);
    timeline.Finish(s.clock.Now());
    const double rate = wall > 0 ? static_cast<double>(r.ops) / wall : 0;
    PrintRate("governed", static_cast<double>(r.ops), "ops", wall);
    std::printf("governed %10llu tracks compacted, %llu governor decisions\n",
                static_cast<unsigned long long>(s.vld->compactor().stats().tracks_compacted),
                static_cast<unsigned long long>(governor.stats().decisions));
    report.AddRow("governed", r.achieved_iops, r.latency_hist, r.breakdown,
                  {{"ops", static_cast<double>(r.ops)},
                   {"wall_seconds", wall},
                   {"ops_per_wall_s", rate},
                   {"tracks_compacted",
                    static_cast<double>(s.vld->compactor().stats().tracks_compacted)},
                   {"decisions", static_cast<double>(governor.stats().decisions)}});
    if (smoke) {
      // The governed loop must compact (an idle governor would measure the wrong path) and
      // hold the same order-of-magnitude floor as the other legs.
      if (s.vld->compactor().stats().tracks_compacted == 0) {
        std::fprintf(stderr, "FATAL bench_engine gate: governed leg never compacted\n");
        return 1;
      }
      GateFloor("governed", rate, 500);
    }
  }

  report.MaybeWrite(flags);
  return 0;
}
