// The queued read path: SubmitRead/FlushQueue through the shared request queue.
//
// Covers the acceptance gates for the queued-read engine: depth-1 clock/data identity with the
// synchronous Read path, same-batch RAW forwarding (full and partial overlap), submission-order
// visibility (a read never sees a later-submitted write), read-only batches committing nothing,
// SPTF determinism and bounded-age starvation promotion, the shared queue-depth budget, and a
// differential check of seeded randomized SubmitRead/SubmitWrite/FlushQueue/Flush interleavings
// against a synchronous-replay oracle device (bit-identical read payloads and final contents),
// with and without a volatile write-back drive cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "tests/queued_payload_support.h"

namespace vlog::core {
namespace {

constexpr size_t kBlockBytes = 4096;
constexpr uint32_t kBlockSectors = 8;
constexpr uint32_t kSectorBytes = 512;

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 7));
  }
  return v;
}

// A self-contained device rig, so tests can run identical histories on independent instances.
struct Rig {
  explicit Rig(VldConfig config = VldConfig{.queue_depth = 16}, uint64_t cache_sectors = 0,
               bool trace = false) {
    simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 3);
    params.cache.capacity_sectors = cache_sectors;
    disk = std::make_unique<simdisk::SimDisk>(params, &clock);
    if (trace) {
      tracer = std::make_unique<obs::TraceRecorder>(&clock);
      disk->set_tracer(tracer.get());
    }
    vld = std::make_unique<Vld>(disk.get(), config);
    EXPECT_TRUE(vld->Format().ok());
  }

  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<obs::TraceRecorder> tracer;
  std::unique_ptr<Vld> vld;
};

// Acceptance gate: with exactly one queued request, the queued read must be indistinguishable
// from the synchronous path — same bytes, same clock advance, same per-span time breakdown.
TEST(QueuedReadTest, DepthOneMatchesSynchronousReadExactly) {
  Rig sync(VldConfig{.queue_depth = 16}, /*cache_sectors=*/0, /*trace=*/true);
  Rig queued(VldConfig{.queue_depth = 16}, /*cache_sectors=*/0, /*trace=*/true);
  for (uint32_t b = 0; b < 8; ++b) {
    const auto data = Pattern(kBlockBytes, b + 1);
    ASSERT_TRUE(sync.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, data).ok());
    ASSERT_TRUE(queued.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, data).ok());
  }
  ASSERT_EQ(sync.clock.Now(), queued.clock.Now()) << "identical histories must stay in step";

  const simdisk::Lba lba = 3 * kBlockSectors;
  const common::Time start = sync.clock.Now();
  std::vector<std::byte> sync_out(kBlockBytes);
  ASSERT_TRUE(sync.vld->Read(lba, sync_out).ok());
  const common::Duration sync_elapsed = sync.clock.Now() - start;

  auto id = queued.vld->SubmitRead(lba, kBlockSectors);
  ASSERT_TRUE(id.ok());
  auto done = queued.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 1u);
  const Vld::QueuedCompletion& c = (*done)[0];
  EXPECT_FALSE(c.is_write);
  EXPECT_EQ(c.data, sync_out) << "depth-1 queued read must return the synchronous bytes";
  EXPECT_EQ(queued.clock.Now(), sync.clock.Now())
      << "depth-1 queued read must charge exactly the synchronous time";
  EXPECT_EQ(c.Latency(), sync_elapsed);
  EXPECT_EQ(c.complete_time, queued.clock.Now());

  // The traced spans must match component by component, and each must satisfy the breakdown
  // identity (accounted + queueing == latency).
  auto read_span = [](const obs::TraceRecorder& tracer) -> const obs::TraceRecorder::Span* {
    const obs::TraceRecorder::Span* found = nullptr;
    for (const auto& span : tracer.spans()) {
      if (span.layer == obs::Layer::kVld && span.kind == obs::SpanKind::kRead) {
        EXPECT_EQ(found, nullptr) << "exactly one VLD read span expected";
        found = &span;
      }
    }
    return found;
  };
  const obs::TraceRecorder::Span* ss = read_span(*sync.tracer);
  const obs::TraceRecorder::Span* qs = read_span(*queued.tracer);
  ASSERT_NE(ss, nullptr);
  ASSERT_NE(qs, nullptr);
  EXPECT_EQ(qs->submit, ss->submit);
  EXPECT_EQ(qs->complete, ss->complete);
  EXPECT_EQ(qs->breakdown.host_cpu, ss->breakdown.host_cpu);
  EXPECT_EQ(qs->breakdown.controller, ss->breakdown.controller);
  EXPECT_EQ(qs->breakdown.seek, ss->breakdown.seek);
  EXPECT_EQ(qs->breakdown.head_switch, ss->breakdown.head_switch);
  EXPECT_EQ(qs->breakdown.rotation, ss->breakdown.rotation);
  EXPECT_EQ(qs->breakdown.transfer, ss->breakdown.transfer);
  EXPECT_EQ(qs->breakdown.flush, ss->breakdown.flush);
  EXPECT_EQ(qs->breakdown.queueing, ss->breakdown.queueing);
  EXPECT_EQ(qs->breakdown.Total(), qs->Latency()) << "breakdown must sum to the latency";
  EXPECT_EQ(ss->breakdown.Total(), ss->Latency());
}

// Same-batch RAW, full overlap: a read submitted after a write to the same block must return
// the pending (not yet committed) payload, served through the forwarding path.
TEST(QueuedReadTest, SameBatchRawServesPendingWriteData) {
  Rig rig;
  const simdisk::Lba lba = 5 * kBlockSectors;
  const auto v1 = Pattern(kBlockBytes, 1);
  const auto v2 = Pattern(kBlockBytes, 2);
  ASSERT_TRUE(rig.vld->Write(lba, v1).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  ASSERT_TRUE(rig.vld->SubmitWrite(lba, v2).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(lba, kBlockSectors).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  EXPECT_TRUE((*done)[0].is_write);
  ASSERT_FALSE((*done)[1].is_write);
  EXPECT_EQ((*done)[1].data, v2) << "same-batch RAW must see the pending write";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, kBlockSectors);

  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(lba, out).ok());
  EXPECT_EQ(out, v2);
}

// Partial overlap: only the sectors the pending write covers are forwarded; the rest of the
// extent comes off the media through the (still pre-batch) map.
TEST(QueuedReadTest, SameBatchRawPartialOverlapForwardsOnlyCoveredSectors) {
  Rig rig;
  const auto v1a = Pattern(kBlockBytes, 10);
  const auto v1b = Pattern(kBlockBytes, 11);
  const auto v2 = Pattern(kBlockBytes, 12);
  ASSERT_TRUE(rig.vld->Write(10 * kBlockSectors, v1a).ok());
  ASSERT_TRUE(rig.vld->Write(11 * kBlockSectors, v1b).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  // Write block 10; read sectors straddling the blocks: last 4 of block 10 (forwarded from the
  // pending payload) + first 4 of block 11 (served from the media).
  ASSERT_TRUE(rig.vld->SubmitWrite(10 * kBlockSectors, v2).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(10 * kBlockSectors + 4, 8).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  ASSERT_FALSE((*done)[1].is_write);
  const std::vector<std::byte>& got = (*done)[1].data;
  ASSERT_EQ(got.size(), 8u * kSectorBytes);
  EXPECT_EQ(std::memcmp(got.data(), v2.data() + 4 * kSectorBytes, 4 * kSectorBytes), 0)
      << "overlapping sectors must come from the pending write";
  EXPECT_EQ(std::memcmp(got.data() + 4 * kSectorBytes, v1b.data(), 4 * kSectorBytes), 0)
      << "non-overlapping sectors must come from the committed block";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, 4u);
}

// Submission order defines visibility: a read never sees a later-submitted write, whatever
// order SPTF actually services the batch in (the map commits only after the batch).
TEST(QueuedReadTest, ReadSubmittedBeforeWriteSeesPreBatchData) {
  Rig rig;
  const simdisk::Lba lba = 3 * kBlockSectors;
  const auto v1 = Pattern(kBlockBytes, 1);
  const auto v2 = Pattern(kBlockBytes, 2);
  ASSERT_TRUE(rig.vld->Write(lba, v1).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  ASSERT_TRUE(rig.vld->SubmitRead(lba, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(lba, v2).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  ASSERT_FALSE((*done)[0].is_write);
  EXPECT_EQ((*done)[0].data, v1) << "a read must never observe a later-submitted write";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, 0u);

  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(lba, out).ok());
  EXPECT_EQ(out, v2) << "the write itself must still commit with the batch";
}

TEST(QueuedReadTest, QueuedReadOfUnmappedBlockReturnsZeros) {
  Rig rig;
  const uint64_t unmapped_before = rig.vld->stats().unmapped_reads;
  ASSERT_TRUE(rig.vld->SubmitRead(100 * kBlockSectors, kBlockSectors).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 1u);
  EXPECT_EQ((*done)[0].data, std::vector<std::byte>(kBlockBytes));
  EXPECT_GT(rig.vld->stats().unmapped_reads, unmapped_before);
}

// A read-only batch must leave no trace behind: no map change, no commit, no media write.
TEST(QueuedReadTest, ReadOnlyFlushQueueCommitsNothing) {
  Rig rig;
  for (uint32_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(
        rig.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(kBlockBytes, b))
            .ok());
  }
  const std::vector<uint32_t> map_before = rig.vld->logical_map();
  const VldStats before = rig.vld->stats();

  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors,
                                    kBlockSectors).ok());
  }
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->size(), 4u);
  EXPECT_EQ(rig.vld->QueuedRequests(), 0u);

  const VldStats delta = rig.vld->stats() - before;
  EXPECT_EQ(rig.vld->logical_map(), map_before) << "reads must not change the map";
  EXPECT_EQ(delta.blocks_written, 0u);
  EXPECT_EQ(delta.host_writes, 0u);
  EXPECT_EQ(delta.atomic_commits, 0u);
  EXPECT_EQ(delta.group_commits, 0u);
  EXPECT_EQ(delta.queued_reads, 4u);
  EXPECT_EQ(delta.host_reads, 4u);
}

// Reads and writes draw from one queue-depth budget.
TEST(QueuedReadTest, SharedQueueDepthAcrossReadsAndWrites) {
  Rig rig(VldConfig{.queue_depth = 4});
  const auto payload = Pattern(kBlockBytes, 1);
  ASSERT_TRUE(rig.vld->SubmitWrite(0, payload).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(kBlockSectors, payload).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(0, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(kBlockSectors, kBlockSectors).ok());
  EXPECT_EQ(rig.vld->QueuedRequests(), 4u);
  EXPECT_EQ(rig.vld->QueuedWrites(), 2u);
  EXPECT_EQ(rig.vld->QueuedReads(), 2u);

  auto read_overflow = rig.vld->SubmitRead(0, kBlockSectors);
  ASSERT_FALSE(read_overflow.ok());
  EXPECT_EQ(read_overflow.status().code(), common::StatusCode::kFailedPrecondition);
  auto write_overflow = rig.vld->SubmitWrite(0, payload);
  ASSERT_FALSE(write_overflow.ok());
  EXPECT_EQ(write_overflow.status().code(), common::StatusCode::kFailedPrecondition);

  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 4u);
  for (size_t i = 1; i < done->size(); ++i) {
    EXPECT_LT((*done)[i - 1].id, (*done)[i].id) << "completions arrive in submission order";
  }
  EXPECT_EQ(rig.vld->QueuedRequests(), 0u);
  EXPECT_TRUE(rig.vld->SubmitRead(0, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->FlushQueue().ok());
}

// Satellite (d): the SPTF schedule is a pure function of the request set — two identical runs
// must produce identical service times — and differs from FCFS only in service order, never in
// returned bytes.
TEST(QueuedReadTest, SptfServiceOrderIsDeterministic) {
  auto run = [](simdisk::SchedulerPolicy policy) {
    Rig rig(VldConfig{.queue_depth = 16, .read_policy = policy});
    for (uint32_t b = 0; b < 32; ++b) {
      EXPECT_TRUE(
          rig.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(kBlockBytes, b))
              .ok());
    }
    std::vector<std::pair<uint64_t, std::vector<std::byte>>> outcome;
    for (int round = 0; round < 3; ++round) {
      const auto payload = Pattern(kBlockBytes, 90 + static_cast<uint32_t>(round));
      for (const uint32_t b : {0u, 17u, 3u, 29u, 8u, 23u}) {
        EXPECT_TRUE(
            rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors)
                .ok());
      }
      EXPECT_TRUE(rig.vld->SubmitWrite(5 * kBlockSectors, payload).ok());
      auto done = rig.vld->FlushQueue();
      EXPECT_TRUE(done.ok());
      for (const Vld::QueuedCompletion& c : *done) {
        // dispatch/complete times pin the service schedule; data pins correctness.
        std::vector<std::byte> record(16);
        std::memcpy(record.data(), &c.dispatch_time, sizeof(c.dispatch_time));
        std::memcpy(record.data() + 8, &c.complete_time, sizeof(c.complete_time));
        record.insert(record.end(), c.data.begin(), c.data.end());
        outcome.emplace_back(c.id, std::move(record));
      }
    }
    return outcome;
  };

  const auto sptf1 = run(simdisk::SchedulerPolicy::kSptf);
  const auto sptf2 = run(simdisk::SchedulerPolicy::kSptf);
  EXPECT_EQ(sptf1, sptf2) << "SPTF must be deterministic across identical runs";

  const auto fcfs = run(simdisk::SchedulerPolicy::kFcfs);
  ASSERT_EQ(fcfs.size(), sptf1.size());
  for (size_t i = 0; i < fcfs.size(); ++i) {
    EXPECT_EQ(fcfs[i].first, sptf1[i].first);
    const std::vector<std::byte> fcfs_data(fcfs[i].second.begin() + 16, fcfs[i].second.end());
    const std::vector<std::byte> sptf_data(sptf1[i].second.begin() + 16,
                                           sptf1[i].second.end());
    EXPECT_EQ(fcfs_data, sptf_data) << "scheduling policy must never change returned bytes";
  }
}

// Satellite (d): bounded-age promotion. An expensive mapped read submitted first would lose to
// cost-0 unmapped reads under pure SPTF; once its age crosses the bound it must go first.
TEST(QueuedReadTest, ReadStarvationBoundPromotesOldestRead) {
  auto dispatch_rank = [](common::Duration bound) {
    Rig rig(VldConfig{.queue_depth = 16,
                      .read_policy = simdisk::SchedulerPolicy::kSptf,
                      .read_starvation_bound = bound});
    EXPECT_TRUE(rig.vld->Write(0, Pattern(kBlockBytes, 1)).ok());
    auto first = rig.vld->SubmitRead(0, kBlockSectors);  // Mapped: positive media cost.
    EXPECT_TRUE(first.ok());
    rig.clock.Advance(common::Milliseconds(2));
    for (uint32_t b = 100; b < 103; ++b) {
      // Unmapped reads: zero positioning cost, so SPTF always prefers them.
      EXPECT_TRUE(
          rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors)
              .ok());
    }
    auto done = rig.vld->FlushQueue();
    EXPECT_TRUE(done.ok());
    size_t rank = 0;
    for (const Vld::QueuedCompletion& c : *done) {
      if (c.id != *first && c.dispatch_time < (*done)[0].dispatch_time) {
        ++rank;
      }
    }
    return rank;  // How many other requests were dispatched before the oldest one.
  };

  EXPECT_EQ(dispatch_rank(0), 3u)
      << "without a bound, the cost-0 reads all jump the expensive oldest read";
  EXPECT_EQ(dispatch_rank(common::Milliseconds(1)), 0u)
      << "past the bound, the oldest read must be serviced first";
}

// The differential suite: seeded randomized interleavings of SubmitRead / SubmitWrite /
// FlushQueue / Flush on the queued device, replayed synchronously on an identical oracle
// device. Every queued read must return bit-identical bytes to the oracle's synchronous read
// at its submission point, and the final logical contents must match block for block.
void RunDifferential(uint64_t seed, uint64_t cache_sectors) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " cache " + std::to_string(cache_sectors));
  Rig queued(VldConfig{.queue_depth = 16}, cache_sectors);
  Rig oracle(VldConfig{.queue_depth = 16}, cache_sectors);
  const uint32_t region = std::min<uint32_t>(queued.vld->logical_blocks(), 96);
  common::Rng rng(seed);
  uint64_t reads_checked = 0;

  for (int round = 0; round < 25; ++round) {
    const size_t batch = 1 + rng.Below(12);
    std::map<uint64_t, std::vector<std::byte>> expected;  // Read id -> oracle bytes.
    std::set<uint32_t> written;  // One write per block per batch (WAW is out of scope here).
    for (size_t i = 0; i < batch; ++i) {
      if (rng.Chance(0.45)) {
        // Reads may be unaligned and sub-block: any extent inside the region.
        const uint64_t sectors = 1 + rng.Below(16);
        const simdisk::Lba lba =
            rng.Below(static_cast<uint64_t>(region) * kBlockSectors - sectors);
        auto id = queued.vld->SubmitRead(lba, sectors);
        ASSERT_TRUE(id.ok());
        std::vector<std::byte> want(sectors * kSectorBytes);
        ASSERT_TRUE(oracle.vld->Read(lba, want).ok());
        expected.emplace(*id, std::move(want));
      } else {
        uint32_t b = static_cast<uint32_t>(rng.Below(region));
        while (written.count(b) != 0) {
          b = static_cast<uint32_t>(rng.Below(region));
        }
        written.insert(b);
        const auto payload =
            Pattern(kBlockBytes, static_cast<uint32_t>(seed * 1000 + round * 37 + i));
        ASSERT_TRUE(
            queued.vld->SubmitWrite(static_cast<simdisk::Lba>(b) * kBlockSectors, payload)
                .ok());
        ASSERT_TRUE(
            oracle.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, payload).ok());
      }
    }
    auto done = queued.vld->FlushQueue();
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->size(), batch);
    for (const Vld::QueuedCompletion& c : *done) {
      if (c.is_write) {
        continue;
      }
      const auto it = expected.find(c.id);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(c.data, it->second)
          << "queued read diverged from the synchronous oracle at lba " << c.lba;
      ++reads_checked;
    }
    if (rng.Chance(0.2)) {
      ASSERT_TRUE(queued.vld->Flush().ok());
      ASSERT_TRUE(oracle.vld->Flush().ok());
    }
  }
  EXPECT_GT(reads_checked, 20u) << "the schedule must actually exercise reads";

  std::vector<std::byte> got(kBlockBytes), want(kBlockBytes);
  for (uint32_t b = 0; b < region; ++b) {
    ASSERT_TRUE(queued.vld->Read(static_cast<simdisk::Lba>(b) * kBlockSectors, got).ok());
    ASSERT_TRUE(oracle.vld->Read(static_cast<simdisk::Lba>(b) * kBlockSectors, want).ok());
    ASSERT_EQ(got, want) << "final contents diverged at block " << b;
  }
}

// Write buffers are recycled across batches: after a batch of 4-block writes, shorter writes
// (sub-block ones included) and same-batch read-after-write reads must see exactly their own
// bytes, with no tail of an earlier, longer payload.
TEST(QueuedReadTest, RecycledWritePayloadsLeakNoStaleBytes) {
  Rig rig(VldConfig{.queue_depth = 16});
  testing_support::ExpectQueuedPayloadsIntact(*rig.vld, 64 * kBlockSectors, /*batch_size=*/16,
                                              /*long_sectors=*/4 * kBlockSectors,
                                              /*rounds=*/30, /*seed=*/15);
  EXPECT_GT(rig.vld->stats().forwarded_read_sectors, 0u);
  EXPECT_GT(rig.vld->stats().read_modify_writes, 0u);
}

TEST(QueuedReadDifferentialTest, MatchesSyncOracleAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunDifferential(seed, /*cache_sectors=*/0);
  }
}

TEST(QueuedReadDifferentialTest, MatchesSyncOracleWithWriteBackCache) {
  for (uint64_t seed = 5; seed <= 6; ++seed) {
    RunDifferential(seed, /*cache_sectors=*/1024);
  }
}

}  // namespace
}  // namespace vlog::core
