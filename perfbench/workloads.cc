#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <utility>

#include "perfbench/spans.h"
#include "src/array/vld_array.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/crashsim/shadow_vld.h"
#include "src/nvm/nvm_stage.h"
#include "src/obs/timeline.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"

namespace perfbench {

using namespace vlog;

namespace {

// --- Sizes. One round of each workload takes roughly 0.5-2 wall-seconds on a 4-core Xeon. ---

constexpr uint32_t kBlockSectors = 8;  // 4 KB ops on 512 B sectors.
constexpr size_t kBlockBytes = kBlockSectors * 512;
constexpr uint32_t kQueueDepth = 32;
constexpr size_t kMaxErrors = 8;

constexpr int kGovernedArrivals = 50000;
constexpr double kGovernedPrefill = 0.55;  // Fraction of logical blocks written before timing.
constexpr double kDiurnalBaseRate = 24;    // Arrivals per simulated second.
constexpr double kDiurnalAmplitude = 0.75;
constexpr common::Duration kDiurnalPeriod = common::Seconds(2);
constexpr uint32_t kGovernedBatch = 8;

constexpr uint32_t kArrayMembers = 4;
constexpr uint32_t kArrayStripeBlocks = 8;
constexpr uint32_t kArrayClients = 16;
constexpr int kArrayOps = 150000;
constexpr double kArrayReadFraction = 0.5;
constexpr double kArrayZipfTheta = 0.9;

constexpr int kStagedOps = 100000;
constexpr double kStagedWriteFraction = 0.7;
constexpr double kStagedZipfTheta = 0.99;
constexpr common::Duration kStagedThink = common::Milliseconds(2);
// A destage burst starts in the think time once this many records are staged (about half the
// 1 MiB stage), so hot sectors are rewritten in NVM (coalesced) before they reach the disk.
// Its budget lets it empty the log, which resets the linear log before it can overflow.
constexpr uint64_t kDestageWatermark = 128;
constexpr common::Duration kDestageBudget = common::Seconds(5);

constexpr int kCrashSteps = 60;
constexpr uint32_t kCrashGovernorTarget = 64;

using WallClock = std::chrono::steady_clock;

double WallSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

simdisk::Lba LbaOf(uint32_t block) { return static_cast<simdisk::Lba>(block) * kBlockSectors; }

// Block contents are a function of (block, version), so the expected-content map is one
// version number per block.
void FillBlock(std::span<std::byte> out, uint32_t block, uint32_t version) {
  uint64_t x = ((static_cast<uint64_t>(block) << 32) | version) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 31;
  for (size_t i = 0; i + 8 <= out.size(); i += 8) {
    const uint64_t word = x + i * 0xbf58476d1ce4e5b9ULL;
    std::memcpy(out.data() + i, &word, sizeof(word));
  }
}

class ExpectedContents {
 public:
  explicit ExpectedContents(uint32_t blocks) : versions_(blocks, 0) {}
  uint32_t version(uint32_t block) const { return versions_[block]; }
  uint32_t Bump(uint32_t block) { return ++versions_[block]; }
  // True when `got` holds `block`'s contents at `version`.
  bool Matches(std::span<const std::byte> got, uint32_t block, uint32_t version) {
    scratch_.resize(got.size());
    FillBlock(scratch_, block, version);
    return std::memcmp(got.data(), scratch_.data(), got.size()) == 0;
  }

 private:
  std::vector<uint32_t> versions_;
  std::vector<std::byte> scratch_;
};

// Zipf(theta) over ranks [0, n), mapped to blocks through a seeded permutation so the hot
// blocks are spread over the region (and over the array's members) instead of packed at its
// start.
class ZipfBlocks {
 public:
  ZipfBlocks(uint32_t n, double theta, common::Rng& rng) : cdf_(n), block_of_rank_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i) + 1.0, theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
    for (uint32_t i = 0; i < n; ++i) {
      block_of_rank_[i] = i;
    }
    for (uint32_t i = n; i > 1; --i) {
      std::swap(block_of_rank_[i - 1], block_of_rank_[rng.Below(i)]);
    }
  }
  uint32_t Sample(common::Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t rank = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return block_of_rank_[std::min(rank, cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> block_of_rank_;
};

// Opens a client step: tags the spans below it with the step id and times the harness's own
// work (generation and verification) as bench.client self time.
class ClientStep {
 public:
  explicit ClientStep(uint64_t step) : span_(SpanName::kBenchClient) {
    if (g_spans != nullptr) {
      g_spans->set_step(step);
    }
  }

 private:
  ScopedSpan span_;
};

// Runs `call` inside a span named `name`.
template <typename Call>
auto Timed(SpanName name, Call&& call) {
  ScopedSpan s(name);
  return call();
}

// Median and the p99 (or, with fewer than 1000 samples, the highest percentile that leaves
// at least ten samples beyond it) of simulated latencies.
void SetLatency(std::vector<common::Duration> latencies, RoundResult& r) {
  r.sim_samples = latencies.size();
  if (latencies.empty()) {
    return;
  }
  std::sort(latencies.begin(), latencies.end());
  const double n = static_cast<double>(latencies.size());
  const auto rank = [&](double q) {
    const size_t idx = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
    return common::ToMilliseconds(latencies[std::min(idx, latencies.size()) - 1]);
  };
  r.sim_tail_pct = std::max(50.0, std::min(99.0, 100.0 * (1.0 - 10.0 / n)));
  r.sim_p50_ms = rank(0.50);
  r.sim_p99_ms = rank(r.sim_tail_pct / 100.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Everything the per-layer counts are read from. Null / empty members report 0.
struct Layers {
  std::vector<core::Vld*> vlds;
  const core::CompactionGovernor* governor = nullptr;
  const core::NvmStage* stage = nullptr;
  uint64_t host_ops = 0;
  uint64_t host_sectors_written = 0;
  uint64_t stage_read_sectors = 0;
};

void ReadLayerCounts(const Layers& layers, std::map<std::string, double>& c) {
  core::VldStats vs;
  core::VirtualLogStats ls;
  core::AllocatorStats as;
  core::CompactorStats cs;
  simdisk::DiskStats ds;
  for (core::Vld* v : layers.vlds) {
    vs.blocks_written += v->stats().blocks_written;
    vs.group_commits += v->stats().group_commits;
    vs.forwarded_read_sectors += v->stats().forwarded_read_sectors;
    ls.appends += v->vlog().stats().appends;
    ls.packed_sectors += v->vlog().stats().packed_sectors;
    ls.checkpoints += v->vlog().stats().checkpoints;
    ls.auto_checkpoints += v->vlog().stats().auto_checkpoints;
    as.allocations += v->allocator().stats().allocations;
    as.same_track += v->allocator().stats().same_track;
    as.greedy_fallbacks += v->allocator().stats().greedy_fallbacks;
    cs.tracks_compacted += v->compactor().stats().tracks_compacted;
    cs.data_blocks_moved += v->compactor().stats().data_blocks_moved;
    cs.map_sectors_rewritten += v->compactor().stats().map_sectors_rewritten;
    cs.bursts_preempted += v->compactor().stats().bursts_preempted;
    cs.busy_time += v->compactor().stats().busy_time;
    const simdisk::DiskStats& d = v->disk().stats();
    ds.seeks += d.seeks;
    ds.buffer_hits += d.buffer_hits;
    ds.sectors_written += d.sectors_written;
    ds.breakdown += d.breakdown;
  }
  const auto num = [](uint64_t v) { return static_cast<double>(v); };
  c["vld.blocks_written"] = num(vs.blocks_written);
  c["vld.group_commits"] = num(vs.group_commits);
  c["vld.forwarded_read_sectors"] = num(vs.forwarded_read_sectors);
  c["vlog.appends"] = num(ls.appends);
  c["vlog.packed_sectors"] = num(ls.packed_sectors);
  c["vlog.checkpoints"] = num(ls.checkpoints);
  c["vlog.auto_checkpoints"] = num(ls.auto_checkpoints);
  c["vlog.checkpoints_per_kop"] = Ratio(num(ls.checkpoints) * 1000, num(layers.host_ops));
  c["alloc.allocations"] = num(as.allocations);
  c["alloc.same_track_ratio"] = Ratio(num(as.same_track), num(as.allocations));
  c["alloc.greedy_fallbacks"] = num(as.greedy_fallbacks);
  c["compactor.tracks_compacted"] = num(cs.tracks_compacted);
  c["compactor.data_blocks_moved"] = num(cs.data_blocks_moved);
  c["compactor.moved_per_track"] = Ratio(num(cs.data_blocks_moved), num(cs.tracks_compacted));
  c["compactor.map_sectors_rewritten"] = num(cs.map_sectors_rewritten);
  c["compactor.bursts_preempted"] = num(cs.bursts_preempted);
  c["compactor.busy_sim_s"] = common::ToSeconds(cs.busy_time);
  if (layers.governor != nullptr) {
    const core::GovernorStats& g = layers.governor->stats();
    c["governor.decisions"] = num(g.decisions);
    c["governor.bursts"] = num(g.bursts);
    c["governor.pressure_overrides"] = num(g.pressure_overrides);
    c["governor.granted_sim_s"] = static_cast<double>(g.granted_ns) / 1e9;
  }
  if (layers.stage != nullptr) {
    const core::NvmStageStats& n = layers.stage->stats();
    c["nvm.staged_writes"] = num(n.staged_writes);
    c["nvm.destaged_sectors"] = num(n.destaged_sectors);
    c["nvm.read_hit_ratio"] = Ratio(num(n.read_hit_sectors), num(layers.stage_read_sectors));
    c["nvm.destage_coalesce"] = Ratio(num(n.staged_bytes) / 512, num(n.destaged_sectors));
    c["nvm.conflict_destages"] = num(n.conflict_destages);
    c["nvm.overflow_drains"] = num(n.overflow_drains);
  }
  c["disk.seeks"] = num(ds.seeks);
  c["disk.buffer_hits"] = num(ds.buffer_hits);
  c["disk.sectors_written"] = num(ds.sectors_written);
  c["disk.write_amp"] = Ratio(num(ds.sectors_written), num(layers.host_sectors_written));
  c["disk.sim_locate_s"] = common::ToSeconds(ds.breakdown.locate);
  c["disk.sim_transfer_s"] = common::ToSeconds(ds.breakdown.transfer);
  c["disk.sim_controller_s"] = common::ToSeconds(ds.breakdown.scsi_overhead);
}

// A path guard: the workload fails loudly when it skipped the layer it exists for.
void Guard(bool taken, const std::string& what, RoundResult& r) {
  if (!taken) {
    r.Fail("path guard: " + what);
  }
}

bool Ok(const common::Status& status, const char* what, RoundResult& r) {
  if (!status.ok()) {
    r.Fail(std::string(what) + ": " + status.ToString());
  }
  return status.ok();
}

// Writes version 1 of every block in [0, blocks) through the device's synchronous path.
// `span` names the span around each write, if it is one the benchmark reports.
template <typename Device>
bool Prefill(Device& dev, std::optional<SpanName> span, uint32_t blocks,
             ExpectedContents& expected, Layers& layers, RoundResult& r) {
  std::vector<std::byte> payload(kBlockBytes);
  for (uint32_t b = 0; b < blocks; ++b) {
    FillBlock(payload, b, expected.Bump(b));
    const common::Status st = span ? Timed(*span, [&] { return dev.Write(LbaOf(b), payload); })
                                   : dev.Write(LbaOf(b), payload);
    if (!Ok(st, "prefill write", r)) {
      return false;
    }
  }
  layers.host_ops += blocks;
  layers.host_sectors_written += static_cast<uint64_t>(blocks) * kBlockSectors;
  return true;
}

// Reads back every block in [0, blocks) and checks it against the expected contents.
template <typename Device>
void VerifyRegion(Device& dev, uint32_t blocks, ExpectedContents& expected, const char* what,
                  RoundResult& r) {
  std::vector<std::byte> got(kBlockBytes);
  r.attempted += blocks;
  for (uint32_t b = 0; b < blocks; ++b) {
    const common::Status st = dev.Read(LbaOf(b), got);
    if (!st.ok()) {
      r.Fail(std::string(what) + " read-back: " + st.ToString());
    } else if (!expected.Matches(got, b, expected.version(b))) {
      r.Fail(std::string(what) + " read-back mismatch at block " + std::to_string(b));
    }
  }
}

// Lewis-Shedler thinning of a Poisson stream at the peak rate against the diurnal rate
// base * (1 + amplitude * sin(2 pi t / period)). Depends only on the seed.
std::vector<common::Time> DiurnalArrivals(common::Rng& rng, common::Time start, int count) {
  const double peak = kDiurnalBaseRate * (1.0 + kDiurnalAmplitude);
  std::vector<common::Time> out;
  out.reserve(static_cast<size_t>(count));
  common::Time t = start;
  while (out.size() < static_cast<size_t>(count)) {
    t += static_cast<common::Duration>(-std::log1p(-rng.NextDouble()) * 1e9 / peak) + 1;
    const double phase =
        static_cast<double>((t - start) % kDiurnalPeriod) / static_cast<double>(kDiurnalPeriod);
    const double rate =
        kDiurnalBaseRate * (1.0 + kDiurnalAmplitude * std::sin(2.0 * std::numbers::pi * phase));
    if (rng.NextDouble() * peak < rate) {
      out.push_back(t);
    }
  }
  return out;
}

// Recovers fresh VLDs over `live`'s final image, unparked (scan) and then parked, and checks
// that each recovered logical map equals the live one.
void CheckRecovery(simdisk::SimDisk& disk, const core::Vld& live, core::VldConfig config,
                   RoundResult& r) {
  r.attempted += 2;
  core::Vld scanned(&disk, config);
  common::StatusOr<core::VldRecoveryInfo> info =
      Timed(SpanName::kVldRecoverScan, [&] { return scanned.Recover(); });
  if (!Ok(info.status(), "scan recovery", r)) {
    return;
  }
  Guard(info->used_scan, "unparked recovery scanned the disk", r);
  if (scanned.logical_map() != live.logical_map()) {
    r.Fail("scan-recovered logical map differs from the live map");
  }
  if (!Ok(scanned.Park(), "park", r)) {
    return;
  }
  core::Vld parked(&disk, config);
  info = Timed(SpanName::kVldRecoverPark, [&] { return parked.Recover(); });
  if (!Ok(info.status(), "parked recovery", r)) {
    return;
  }
  Guard(!info->used_scan, "parked recovery used the park record", r);
  if (parked.logical_map() != live.logical_map()) {
    r.Fail("park-recovered logical map differs from the live map");
  }
}

simdisk::DiskParams RequestDisk() {
  // Write-through (no volatile cache): the request workloads measure eager writing itself.
  return simdisk::Truncated(simdisk::Hp97560(), 36);
}

// --- governed_diurnal ---

RoundResult GovernedDiurnal(uint64_t seed, bool setup_only) {
  RoundResult r;
  r.units = kGovernedArrivals;
  r.attempted = kGovernedArrivals;
  const auto setup_start = WallClock::now();
  common::Clock clock;
  simdisk::SimDisk disk(RequestDisk(), &clock);
  const core::VldConfig config{.queue_depth = kQueueDepth};
  core::Vld vld(&disk, config);
  if (!Ok(vld.Format(), "format", r)) {
    return r;
  }
  const uint32_t region = static_cast<uint32_t>(vld.logical_blocks() * kGovernedPrefill);
  ExpectedContents expected(region);
  Layers layers{.vlds = {&vld}};
  if (!Prefill(vld, SpanName::kVldWrite, region, expected, layers, r)) {
    return r;
  }
  obs::Timeline timeline(obs::TimelineConfig{.window = kDiurnalPeriod, .start = clock.Now()});
  obs::WindowedHistogram& window_latency = timeline.AddHistogram("latency");
  vld.RegisterTimelineProbes(timeline, "");
  core::GovernorConfig gov_config;
  gov_config.slo_budget = common::Milliseconds(400);
  gov_config.target_empty_tracks = 8;
  core::CompactionGovernor governor(&vld, &timeline, gov_config);
  governor.RegisterTimelineProbes(timeline, "");
  layers.governor = &governor;
  r.setup_s = WallSince(setup_start);
  if (setup_only) {
    return r;
  }

  common::Rng rng(seed);
  const std::vector<common::Time> arrivals = DiurnalArrivals(rng, clock.Now(), kGovernedArrivals);
  const auto poll = [&] {
    ScopedSpan s(SpanName::kTimelinePoll);
    timeline.Poll(clock.Now());
  };
  const auto burst = [&](common::Duration idle_hint) {
    ScopedSpan s(SpanName::kGovernorRunBurst);
    return governor.RunBurst(idle_hint);
  };

  struct Inflight {
    uint64_t id;
    common::Time arrival;
  };
  std::vector<Inflight> inflight;
  std::vector<common::Duration> latencies;
  latencies.reserve(arrivals.size());
  std::vector<std::byte> payload(kBlockBytes);
  size_t next_arrival = 0;  // First arrival not yet in the backlog.
  size_t next_submit = 0;   // First arrival not yet submitted to the device.
  uint64_t max_backlog = 0;
  uint64_t step = 0;
  std::string error;
  const common::Time sim_start = clock.Now();
  const auto timed_start = WallClock::now();
  while (error.empty() && latencies.size() < arrivals.size()) {
    ClientStep client(++step);
    while (next_arrival < arrivals.size() && arrivals[next_arrival] <= clock.Now()) {
      ++next_arrival;
    }
    max_backlog = std::max<uint64_t>(max_backlog, next_arrival - next_submit);
    if (next_submit == next_arrival) {
      // An arrival trough: offer the whole gap to the governor, then jump to the next arrival.
      const common::Duration gap = arrivals[next_arrival] - clock.Now();
      if (gap > 0 && burst(gap) > 0) {
        poll();
      }
      clock.AdvanceTo(arrivals[next_arrival]);
      poll();
      continue;
    }
    const size_t n = std::min<size_t>(kGovernedBatch, next_arrival - next_submit);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t block = static_cast<uint32_t>(rng.Below(region));
      FillBlock(payload, block, expected.Bump(block));
      common::StatusOr<uint64_t> id =
          Timed(SpanName::kVldSubmit, [&] { return vld.SubmitWrite(LbaOf(block), payload); });
      if (!id.ok()) {
        error = "submit: " + id.status().ToString();
        break;
      }
      inflight.push_back(Inflight{*id, arrivals[next_submit++]});
    }
    if (!error.empty()) {
      break;
    }
    common::StatusOr<std::vector<core::Vld::QueuedCompletion>> done =
        Timed(SpanName::kVldFlushQueue, [&] { return vld.FlushQueue(); });
    if (!done.ok()) {
      error = "flush queue: " + done.status().ToString();
      break;
    }
    for (const core::Vld::QueuedCompletion& c : *done) {
      const auto it = std::find_if(inflight.begin(), inflight.end(),
                                   [&](const Inflight& f) { return f.id == c.id; });
      if (it == inflight.end()) {
        error = "unknown completion id";
        break;
      }
      const common::Duration latency = c.complete_time - it->arrival;
      *it = inflight.back();
      inflight.pop_back();
      latencies.push_back(latency);
      window_latency.Record(latency);
    }
    poll();
    // Between batches the device queue is empty: the natural point for a governed burst.
    if (burst(0) > 0) {
      poll();
    }
  }
  r.timed_s = WallSince(timed_start);
  const uint64_t completed = latencies.size();
  if (!error.empty()) {
    r.Fail(error);
    r.failed += arrivals.size() - completed;
  }
  timeline.Finish(clock.Now());
  r.sim_iops = Ratio(static_cast<double>(completed), common::ToSeconds(clock.Now() - sim_start));
  SetLatency(std::move(latencies), r);
  r.sim_max_backlog = static_cast<double>(max_backlog);
  layers.host_ops += completed;
  layers.host_sectors_written += completed * kBlockSectors;
  ReadLayerCounts(layers, r.counts);
  Guard(vld.compactor().stats().tracks_compacted > 0, "governed compaction emptied tracks", r);
  Guard(vld.vlog().stats().checkpoints > 0, "the virtual log checkpointed", r);
  VerifyRegion(vld, region, expected, "vld", r);
  CheckRecovery(disk, vld, config, r);
  return r;
}

// --- mixed_array ---

struct Member {
  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<core::Vld> vld;
};

RoundResult MixedArray(uint64_t seed, bool setup_only) {
  RoundResult r;
  r.units = kArrayOps;
  r.attempted = kArrayOps;
  const auto setup_start = WallClock::now();
  std::vector<std::unique_ptr<Member>> members;
  std::vector<core::Vld*> vlds;
  for (uint32_t i = 0; i < kArrayMembers; ++i) {
    auto m = std::make_unique<Member>();
    m->disk = std::make_unique<simdisk::SimDisk>(RequestDisk(), &m->clock);
    m->vld =
        std::make_unique<core::Vld>(m->disk.get(), core::VldConfig{.queue_depth = kQueueDepth});
    vlds.push_back(m->vld.get());
    members.push_back(std::move(m));
  }
  array::VldArray array(vlds, {.mode = array::ArrayMode::kStriped,
                               .stripe_blocks = kArrayStripeBlocks});
  if (!Ok(array.Format(), "array format", r)) {
    return r;
  }
  const uint32_t region = static_cast<uint32_t>(array.SectorCount() / kBlockSectors / 2);
  ExpectedContents expected(region);
  Layers layers{.vlds = vlds};
  // array.write is not one of the reported spans: prefill is set-up, measured as setup_s.
  if (!Prefill(array, std::nullopt, region, expected, layers, r)) {
    return r;
  }
  r.setup_s = WallSince(setup_start);
  if (setup_only) {
    return r;
  }

  common::Rng rng(seed);
  const ZipfBlocks zipf(region, kArrayZipfTheta, rng);
  struct Pending {
    uint64_t id;
    uint32_t block;
    uint32_t version;  // Contents a read must return (RAW order within the batch).
    bool is_write;
  };
  std::vector<Pending> pending;
  std::vector<common::Duration> latencies;
  latencies.reserve(kArrayOps);
  std::vector<std::byte> payload(kBlockBytes);
  uint64_t max_backlog = 0;
  uint64_t step = 0;
  uint64_t reads = 0;
  std::string error;
  const common::Time sim_start = array.now();
  const auto timed_start = WallClock::now();
  while (error.empty() && latencies.size() < static_cast<size_t>(kArrayOps)) {
    ClientStep client(++step);
    // Every client's previous op completed with the last batch, so each submits its next one.
    const size_t n = std::min<size_t>(kArrayClients, kArrayOps - latencies.size());
    pending.clear();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t block = zipf.Sample(rng);
      const bool is_write = !rng.Chance(kArrayReadFraction);
      uint32_t version = expected.version(block);
      if (is_write) {
        version = expected.Bump(block);
        FillBlock(payload, block, version);
      }
      common::StatusOr<uint64_t> id = Timed(SpanName::kArraySubmit, [&] {
        return is_write ? array.SubmitWrite(LbaOf(block), payload)
                        : array.SubmitRead(LbaOf(block), kBlockSectors);
      });
      if (!id.ok()) {
        error = "array submit: " + id.status().ToString();
        break;
      }
      pending.push_back(Pending{*id, block, version, is_write});
    }
    if (!error.empty()) {
      break;
    }
    max_backlog = std::max<uint64_t>(max_backlog, array.QueuedRequests());
    common::StatusOr<std::vector<array::VldArray::QueuedCompletion>> done =
        Timed(SpanName::kArrayFlushQueue, [&] { return array.FlushQueue(); });
    if (!done.ok()) {
      error = "array flush queue: " + done.status().ToString();
      break;
    }
    if (done->size() != pending.size()) {
      error = "array flush queue returned the wrong number of completions";
      break;
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      const array::VldArray::QueuedCompletion& c = (*done)[i];
      const Pending& p = pending[i];
      if (c.id != p.id) {
        error = "array completions out of submission order";
        break;
      }
      if (!p.is_write) {
        ++reads;
        if (!expected.Matches(c.data, p.block, p.version)) {
          r.Fail("array read payload mismatch at block " + std::to_string(p.block));
        }
      }
      latencies.push_back(c.Latency());
    }
  }
  r.timed_s = WallSince(timed_start);
  const uint64_t completed = latencies.size();
  if (!error.empty()) {
    r.Fail(error);
    r.failed += kArrayOps - completed;
  }
  r.sim_iops =
      Ratio(static_cast<double>(completed), common::ToSeconds(array.now() - sim_start));
  SetLatency(std::move(latencies), r);
  r.sim_max_backlog = static_cast<double>(max_backlog);
  const uint64_t writes = completed - reads;
  layers.host_ops += completed;
  layers.host_sectors_written += writes * kBlockSectors;
  ReadLayerCounts(layers, r.counts);
  uint64_t min_written = UINT64_MAX;
  uint64_t max_written = 0;
  uint64_t min_reads = UINT64_MAX;
  for (const core::Vld* v : vlds) {
    min_written = std::min(min_written, v->stats().blocks_written);
    max_written = std::max(max_written, v->stats().blocks_written);
    min_reads = std::min(min_reads, v->stats().queued_reads);
  }
  r.counts["array.member_write_imbalance"] =
      Ratio(static_cast<double>(max_written), static_cast<double>(min_written));
  r.counts["array.min_member_reads"] = static_cast<double>(min_reads);
  Guard(min_reads > 0, "every array member served queued reads", r);
  VerifyRegion(array, region, expected, "array", r);
  return r;
}

// --- staged_sync ---

RoundResult StagedSync(uint64_t seed, bool setup_only) {
  RoundResult r;
  r.units = kStagedOps;
  r.attempted = kStagedOps;
  const auto setup_start = WallClock::now();
  common::Clock clock;
  simdisk::SimDisk disk(RequestDisk(), &clock);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = kQueueDepth});
  if (!Ok(vld.Format(), "format", r)) {
    return r;
  }
  const uint32_t region = vld.logical_blocks() / 2;
  ExpectedContents expected(region);
  Layers layers{.vlds = {&vld}};
  if (!Prefill(vld, SpanName::kVldWrite, region, expected, layers, r)) {
    return r;
  }
  simdisk::NvmDevice nvm(simdisk::NvmDeviceParams{}, &clock);
  core::NvmStage stage(&nvm, &vld);
  if (!Ok(stage.Format(), "stage format", r)) {
    return r;
  }
  layers.stage = &stage;
  r.setup_s = WallSince(setup_start);
  if (setup_only) {
    return r;
  }

  common::Rng rng(seed);
  const ZipfBlocks zipf(region, kStagedZipfTheta, rng);
  std::vector<common::Duration> latencies;
  latencies.reserve(kStagedOps);
  std::vector<std::byte> buf(kBlockBytes);
  uint64_t reads = 0;
  std::string error;
  const common::Time sim_start = clock.Now();
  const auto timed_start = WallClock::now();
  for (int op = 0; op < kStagedOps && error.empty(); ++op) {
    ClientStep client(static_cast<uint64_t>(op) + 1);
    const uint32_t block = zipf.Sample(rng);
    const common::Time t0 = clock.Now();
    common::Status st;
    if (rng.Chance(kStagedWriteFraction)) {
      FillBlock(buf, block, expected.Bump(block));
      st = Timed(SpanName::kNvmWrite, [&] { return stage.Write(LbaOf(block), buf); });
    } else {
      ++reads;
      st = Timed(SpanName::kNvmRead, [&] { return stage.Read(LbaOf(block), buf); });
      if (st.ok() && !expected.Matches(buf, block, expected.version(block))) {
        r.Fail("staged read payload mismatch at block " + std::to_string(block));
      }
    }
    if (!st.ok()) {
      error = "staged op: " + st.ToString();
      break;
    }
    latencies.push_back(clock.Now() - t0);
    // Think time; destage bursts run inside it once enough records are staged.
    const common::Time wake = clock.Now() + kStagedThink;
    if (stage.log_records() >= kDestageWatermark) {
      const common::StatusOr<uint64_t> retired =
          Timed(SpanName::kNvmDestageBurst, [&] { return stage.RunDestageBurst(kDestageBudget); });
      if (!retired.ok()) {
        error = "destage burst: " + retired.status().ToString();
      }
    }
    clock.AdvanceTo(wake);
  }
  r.timed_s = WallSince(timed_start);
  const uint64_t completed = latencies.size();
  if (!error.empty()) {
    r.Fail(error);
    r.failed += kStagedOps - completed;
  }
  r.sim_iops = Ratio(static_cast<double>(completed), common::ToSeconds(clock.Now() - sim_start));
  SetLatency(std::move(latencies), r);
  r.sim_max_backlog = 1;  // One synchronous client.
  layers.host_ops += completed;
  layers.host_sectors_written += (completed - reads) * kBlockSectors;
  layers.stage_read_sectors = reads * kBlockSectors;
  ReadLayerCounts(layers, r.counts);
  Guard(stage.stats().staged_writes > 0, "the NVM stage absorbed writes", r);
  Guard(stage.stats().destaged_sectors > 0, "the NVM stage destaged to the VLD", r);
  VerifyRegion(stage, region, expected, "stage", r);
  Ok(stage.Drain(), "stage drain", r);
  VerifyRegion(vld, region, expected, "drained vld", r);
  return r;
}

// --- crash_sweep ---

// The recorded script: sync writes, queued batches, mixed read/write batches, checkpoints and
// governed compaction bursts over a 60%-full disk, then a verified read-back of every block.
common::Status CrashScript(crashsim::ShadowVld& dev, uint64_t seed, uint64_t* max_batch,
                           std::map<std::string, double>& counts) {
  common::Rng rng(seed);
  Layers layers{.vlds = {&dev.vld()}};
  const uint32_t blocks = dev.vld().logical_blocks();
  std::vector<uint32_t> versions(blocks, 0);
  std::vector<std::vector<std::byte>> payloads;
  std::vector<core::Vld::AtomicWrite> writes;
  const auto add_write = [&](uint32_t block) {
    payloads.emplace_back(kBlockBytes);
    FillBlock(payloads.back(), block, ++versions[block]);
    layers.host_ops += 1;
    layers.host_sectors_written += kBlockSectors;
  };
  for (uint32_t b = 0; b < blocks * 3 / 5; ++b) {
    payloads.clear();
    add_write(b);
    RETURN_IF_ERROR(dev.Write(LbaOf(b), payloads.back()));
  }
  core::GovernorConfig config;
  config.max_burst = common::Milliseconds(8);
  config.min_burst = common::Microseconds(500);
  // Far above what the small disk can reach, so every grant path stays live.
  config.target_empty_tracks = kCrashGovernorTarget;
  core::CompactionGovernor governor(&dev.vld(), /*timeline=*/nullptr, config);
  uint32_t bursts = 0;
  for (int step = 0; step < kCrashSteps; ++step) {
    const uint64_t kind = rng.Below(10);
    payloads.clear();
    writes.clear();
    if (kind < 3) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      add_write(b);
      RETURN_IF_ERROR(dev.Write(LbaOf(b), payloads.back()));
    } else if (kind < 8) {
      const bool mixed = kind >= 6;
      const size_t depth = (mixed ? 2 : 1) + rng.Below(6);
      payloads.reserve(depth);
      std::vector<uint32_t> read_blocks;
      for (size_t i = 0; i < depth; ++i) {
        const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
        add_write(b);
        writes.push_back(core::Vld::AtomicWrite{LbaOf(b), payloads.back()});
        // Every other read targets the same batch's write: a same-batch RAW.
        read_blocks.push_back(i % 2 == 0 ? b : static_cast<uint32_t>(rng.Below(blocks)));
      }
      if (mixed) {
        *max_batch = std::max<uint64_t>(*max_batch, 2 * depth);
        RETURN_IF_ERROR(dev.QueuedMixedBatch(writes, read_blocks));
      } else {
        *max_batch = std::max<uint64_t>(*max_batch, depth);
        RETURN_IF_ERROR(dev.WriteQueuedBatch(writes));
      }
    } else if (kind == 8) {
      RETURN_IF_ERROR(dev.Checkpoint());
    } else {
      // Alternate trough grants (the idle hint is the whole gap) with credit grants.
      const common::Duration hint = bursts++ % 2 == 0 ? common::Milliseconds(60) : 0;
      const common::Duration grant = governor.Grant(hint);
      if (grant > 0) {
        dev.RunGovernedBurst(grant, kCrashGovernorTarget);
      }
    }
  }
  // ShadowVld::Read verifies every block against the shadow model.
  std::vector<std::byte> got(kBlockBytes);
  for (uint32_t b = 0; b < blocks; ++b) {
    RETURN_IF_ERROR(dev.Read(LbaOf(b), got));
  }
  layers.governor = &governor;
  ReadLayerCounts(layers, counts);
  return common::OkStatus();
}

RoundResult CrashSweep(uint64_t seed, bool setup_only) {
  RoundResult r;
  const auto setup_start = WallClock::now();
  // Recorded on the write-back-cached disk: the VLD issues its own barriers, and the sweep
  // reorders writes within each barrier epoch.
  crashsim::VldCrashSim sim(crashsim::CrashSimCachedDiskParams(), crashsim::CrashSimVldConfig());
  uint64_t max_batch = 0;
  const common::Status recorded = Timed(SpanName::kCrashsimRecord, [&] {
    return sim.Record([&](crashsim::ShadowVld& dev) {
      return CrashScript(dev, seed, &max_batch, r.counts);
    });
  });
  r.setup_s = WallSince(setup_start);
  if (!Ok(recorded, "record", r)) {
    r.attempted = 1;
    return r;
  }
  if (setup_only) {
    return r;
  }
  crashsim::CrashSweepOptions options;
  options.enumerate.seed = seed;
  options.reorder.seed = seed;
  options.workers = 1;
  const auto timed_start = WallClock::now();
  const crashsim::CrashSweepReport report =
      Timed(SpanName::kCrashsimSweep, [&] { return sim.Sweep(options); });
  r.timed_s = WallSince(timed_start);

  ClientStep client(1);
  r.units = report.points;
  r.attempted = report.points;
  r.failed += report.violations;
  for (const std::string& detail : report.violation_details) {
    if (r.errors.size() < kMaxErrors) {
      r.errors.push_back(detail);
    }
  }
  common::Duration recovery_total = 0;
  for (const common::Duration d : report.recovery_times) {
    recovery_total += d;
  }
  r.sim_iops = Ratio(static_cast<double>(report.recovery_times.size()),
                     common::ToSeconds(recovery_total));
  SetLatency(report.recovery_times, r);
  r.sim_max_backlog = static_cast<double>(max_batch);
  r.counts["crashsim.points"] = static_cast<double>(report.points);
  r.counts["crashsim.reorder_points"] = static_cast<double>(report.reorder_points);
  r.counts["crashsim.scan_recoveries"] = static_cast<double>(report.scan_recoveries);
  r.counts["crashsim.checkpoint_recoveries"] = static_cast<double>(report.checkpoint_recoveries);
  r.counts["crashsim.trace_writes"] = static_cast<double>(sim.trace().size());
  Guard(report.points > 0, "the sweep enumerated crash points", r);
  Guard(report.reorder_points > 0, "the sweep reordered write-back epochs", r);
  return r;
}

}  // namespace

void RoundResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrors) {
    errors.push_back(what);
  }
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"governed_diurnal", GovernedDiurnal},
      {"mixed_array", MixedArray},
      {"staged_sync", StagedSync},
      {"crash_sweep", CrashSweep},
  };
  return workloads;
}

const std::vector<std::pair<std::string, std::string>>& CountMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"vld.blocks_written", "count"},
      {"vld.group_commits", "count"},
      {"vld.forwarded_read_sectors", "count"},
      {"vlog.appends", "count"},
      {"vlog.packed_sectors", "count"},
      {"vlog.checkpoints", "count"},
      {"vlog.auto_checkpoints", "count"},
      {"vlog.checkpoints_per_kop", "count/kop"},
      {"alloc.allocations", "count"},
      {"alloc.same_track_ratio", "ratio"},
      {"alloc.greedy_fallbacks", "count"},
      {"compactor.tracks_compacted", "count"},
      {"compactor.data_blocks_moved", "count"},
      {"compactor.moved_per_track", "ratio"},
      {"compactor.map_sectors_rewritten", "count"},
      {"compactor.bursts_preempted", "count"},
      {"compactor.busy_sim_s", "sim-s"},
      {"governor.decisions", "count"},
      {"governor.bursts", "count"},
      {"governor.pressure_overrides", "count"},
      {"governor.granted_sim_s", "sim-s"},
      {"array.member_write_imbalance", "ratio"},
      {"array.min_member_reads", "count"},
      {"nvm.staged_writes", "count"},
      {"nvm.destaged_sectors", "count"},
      {"nvm.read_hit_ratio", "ratio"},
      {"nvm.destage_coalesce", "ratio"},
      {"nvm.conflict_destages", "count"},
      {"nvm.overflow_drains", "count"},
      {"disk.seeks", "count"},
      {"disk.buffer_hits", "count"},
      {"disk.sectors_written", "count"},
      {"disk.write_amp", "ratio"},
      {"disk.sim_locate_s", "sim-s"},
      {"disk.sim_transfer_s", "sim-s"},
      {"disk.sim_controller_s", "sim-s"},
      {"crashsim.points", "count"},
      {"crashsim.reorder_points", "count"},
      {"crashsim.scan_recoveries", "count"},
      {"crashsim.checkpoint_recoveries", "count"},
      {"crashsim.trace_writes", "count"},
  };
  return metrics;
}

}  // namespace perfbench
