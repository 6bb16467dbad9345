// Differential durability suite for the NVM staging tier.
//
// The stage's contract is observational equivalence: once drained, a stage-on stack must be
// bit-identical at the block-device level to a stage-off stack that ran the same logical
// workload — the NVM tier may reorder and coalesce, but never change what the device stores.
// These tests drive both stacks with the same seeded mixed workload (small staged writes,
// large direct writes, overlapping overwrites, trims, atomic batches, queued rounds, and
// duty-cycled destage bursts at arbitrary interior points) and compare every touched block.
// The backing device is a VLD or a 2-member striped VldArray: the stage fronts any block
// device, and the array input drops only the two extensions an array does not have (trim and
// atomic batches).
//
// The second half checks the tracing contract: depth-1 sync writes through a traced stage
// still satisfy the exact breakdown identity (Accounted + queueing == latency, summed), with
// the new `nvm` component carrying the staged-path time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "src/array/vld_array.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/nvm/nvm_stage.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr uint32_t kBlockSectors = 8;
constexpr size_t kBlockBytes = 4096;

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 197 + i * 11 + 5));
  }
  return v;
}

// One stack: a VLD on its own small disk — or, with `striped`, a 2-member striped array of
// two such VLDs, each with its own disk and clock — optionally fronted by an NVM stage. The
// two stacks in a differential run get independent clocks deliberately — NVM acks shift all
// subsequent timing, so identical content despite divergent clocks is exactly the property
// under test.
struct Stack {
  explicit Stack(bool staged, bool striped = false) {
    disk = std::make_unique<simdisk::SimDisk>(
        simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock);
    vld = std::make_unique<Vld>(disk.get(), VldConfig{.queue_depth = 16});
    backing = vld.get();
    if (striped) {
      disk2 = std::make_unique<simdisk::SimDisk>(
          simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock2);
      vld2 = std::make_unique<Vld>(disk2.get(), VldConfig{.queue_depth = 16});
      array = std::make_unique<array::VldArray>(std::vector<Vld*>{vld.get(), vld2.get()},
                                                array::VldArrayConfig{});
      backing = array.get();
      EXPECT_TRUE(array->Format().ok());
    } else {
      EXPECT_TRUE(vld->Format().ok());
    }
    front = backing;
    if (staged) {
      nvm = std::make_unique<simdisk::NvmDevice>(simdisk::NvmDeviceParams{}, &clock);
      stage = std::make_unique<NvmStage>(nvm.get(), backing, NvmStageConfig{});
      EXPECT_TRUE(stage->Format().ok());
      front = stage.get();
    }
  }

  // A queued round: every write submitted, then one FlushQueue.
  common::Status QueuedRound(std::span<const simdisk::AtomicWrite> writes) {
    for (const simdisk::AtomicWrite& w : writes) {
      RETURN_IF_ERROR(front->SubmitWrite(w.lba, w.data).status());
    }
    return front->FlushQueue().status();
  }
  // Host writes that reached the members through their queues.
  uint64_t QueuedWrites() const {
    return vld->stats().queued_writes + (vld2 != nullptr ? vld2->stats().queued_writes : 0);
  }

  common::Clock clock;   // Member 0's disk and the NVM device.
  common::Clock clock2;  // Member 1's disk (striped only).
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<simdisk::SimDisk> disk2;
  std::unique_ptr<Vld> vld;
  std::unique_ptr<Vld> vld2;
  std::unique_ptr<array::VldArray> array;
  std::unique_ptr<simdisk::NvmDevice> nvm;
  std::unique_ptr<NvmStage> stage;
  simdisk::BlockDevice* backing = nullptr;  // The VLD or the array.
  simdisk::BlockDevice* front = nullptr;    // The stage when there is one, else `backing`.
};

// Drives `plain` and `staged` through the same seeded workload, recording which blocks were
// logically written (and not subsequently trimmed) in `live`.
void RunMixedWorkload(Stack& plain, Stack& staged, uint64_t seed,
                      std::map<uint32_t, uint32_t>& live) {
  common::Rng rng(seed);
  const uint32_t blocks = static_cast<uint32_t>(plain.front->SectorCount() / kBlockSectors);
  ASSERT_EQ(blocks, staged.front->SectorCount() / kBlockSectors);
  const uint32_t span = blocks - 8;  // Headroom for 4-block extents.
  // An array has no trim or atomic batch: its input skips those two ops (the draw still
  // happens, so a VLD input's sequence is independent of this).
  const bool extensions = plain.array == nullptr;
  uint32_t version = 1;
  for (int op = 0; op < 240; ++op) {
    const uint32_t roll = static_cast<uint32_t>(rng.Below(100));
    if (!extensions && roll >= 65 && roll < 83) {
      continue;
    }
    if (roll < 50) {
      // Small sync write: staged on one side, eager on the other.
      const uint32_t b = static_cast<uint32_t>(rng.Below(span));
      const auto data = Pattern(kBlockBytes, version);
      ASSERT_TRUE(plain.front->Write(b * kBlockSectors, data).ok());
      ASSERT_TRUE(staged.front->Write(b * kBlockSectors, data).ok());
      live[b] = version++;
    } else if (roll < 65) {
      // Large write: 4 blocks, above the staging threshold, routed around the stage. It
      // regularly overlaps previously staged blocks, exercising the conflict/invalidate path.
      const uint32_t b = static_cast<uint32_t>(rng.Below(span));
      const auto data = Pattern(4 * kBlockBytes, version);
      ASSERT_TRUE(plain.front->Write(b * kBlockSectors, data).ok());
      ASSERT_TRUE(staged.front->Write(b * kBlockSectors, data).ok());
      for (uint32_t i = 0; i < 4; ++i) {
        live[b + i] = version;  // All four blocks carry the same versioned pattern.
      }
      ++version;
    } else if (roll < 75) {
      // Trim of 2 blocks — another staged-conflict source; trimmed blocks leave the model.
      const uint32_t b = static_cast<uint32_t>(rng.Below(span));
      ASSERT_TRUE(plain.front->Trim(b * kBlockSectors, 2 * kBlockSectors).ok());
      ASSERT_TRUE(staged.front->Trim(b * kBlockSectors, 2 * kBlockSectors).ok());
      live.erase(b);
      live.erase(b + 1);
    } else if (roll < 83) {
      // Two-extent atomic write. Distinct extents: overlapping extents in one transaction
      // would make the final content an ordering question, not a durability one.
      const uint32_t b0 = static_cast<uint32_t>(rng.Below(span));
      const uint32_t b1 = b0 == span - 1 ? 0 : b0 + 1 + static_cast<uint32_t>(
                                                            rng.Below(span - b0 - 1));
      const auto d0 = Pattern(kBlockBytes, version);
      const auto d1 = Pattern(kBlockBytes, version + 1);
      const Vld::AtomicWrite writes[] = {{b0 * kBlockSectors, d0}, {b1 * kBlockSectors, d1}};
      ASSERT_TRUE(plain.front->WriteAtomic(writes).ok());
      ASSERT_TRUE(staged.front->WriteAtomic(writes).ok());
      live[b0] = version;
      live[b1] = version + 1;
      version += 2;
    } else if (roll < 91) {
      // A queued group-commit round of 4 writes to DISTINCT blocks. Same-batch duplicates
      // would be serviced in SPTF order, which legitimately differs between the two stacks
      // (their clocks diverge), turning the comparison into an ordering lottery.
      std::vector<std::vector<std::byte>> payloads;
      std::vector<Vld::AtomicWrite> writes;
      std::vector<uint32_t> targets;
      while (targets.size() < 4) {
        const uint32_t b = static_cast<uint32_t>(rng.Below(span));
        if (std::find(targets.begin(), targets.end(), b) == targets.end()) {
          targets.push_back(b);
          payloads.push_back(
              Pattern(kBlockBytes, version + static_cast<uint32_t>(payloads.size())));
        }
      }
      for (size_t i = 0; i < payloads.size(); ++i) {
        writes.push_back({targets[i] * kBlockSectors, payloads[i]});
      }
      ASSERT_TRUE(plain.QueuedRound(writes).ok());
      ASSERT_TRUE(staged.QueuedRound(writes).ok());
      for (size_t i = 0; i < targets.size(); ++i) {
        live[targets[i]] = version + static_cast<uint32_t>(i);
      }
      version += 4;
    } else {
      // Duty-cycled background destage on the staged side only: the stage may retire any
      // prefix of its log here, so interior destage points are interleaved with live traffic.
      if (staged.stage != nullptr) {
        ASSERT_TRUE(staged.stage->RunDestageBurst(common::Milliseconds(1)).ok());
      }
    }
  }
}

// Every live block must read back byte-identical across the two stacks — through the stage,
// AND from the staged stack's backing device directly (the block-device-level identity: after
// Drain() the stage must have pushed everything down, not merely be masking differences with
// its overlay).
void ExpectBitIdentical(Stack& plain, Stack& staged,
                        const std::map<uint32_t, uint32_t>& live) {
  ASSERT_TRUE(staged.stage->Drain().ok());
  EXPECT_EQ(staged.stage->staged_sectors(), 0u);
  EXPECT_EQ(staged.stage->log_records(), 0u);
  std::vector<std::byte> want(kBlockBytes);
  std::vector<std::byte> via_stage(kBlockBytes);
  std::vector<std::byte> via_backing(kBlockBytes);
  for (const auto& [block, version] : live) {
    const simdisk::Lba lba = block * kBlockSectors;
    ASSERT_TRUE(plain.front->Read(lba, want).ok()) << "block " << block;
    ASSERT_TRUE(staged.front->Read(lba, via_stage).ok()) << "block " << block;
    ASSERT_TRUE(staged.backing->Read(lba, via_backing).ok()) << "block " << block;
    EXPECT_EQ(want, via_stage) << "stage-on read diverged at block " << block << " (version "
                               << version << ")";
    EXPECT_EQ(want, via_backing) << "backing device diverged at block " << block
                                 << " (version " << version << ") after Drain";
    EXPECT_EQ(want, Pattern(kBlockBytes, version)) << "model diverged at block " << block;
  }
}

TEST(NvmDifferentialTest, DrainedStageIsBitIdenticalToStageOff) {
  Stack plain(/*staged=*/false);
  Stack staged(/*staged=*/true);
  std::map<uint32_t, uint32_t> live;
  RunMixedWorkload(plain, staged, /*seed=*/1234, live);
  ASSERT_FALSE(live.empty());
  // The workload must actually have exercised the staged paths, or the comparison is vacuous.
  EXPECT_GT(staged.stage->stats().staged_writes, 0u);
  EXPECT_GT(staged.stage->stats().direct_writes, 0u);
  EXPECT_GT(staged.stage->stats().invalidates + staged.stage->stats().conflict_destages, 0u);
  ExpectBitIdentical(plain, staged, live);
}

TEST(NvmDifferentialTest, BitIdentityHoldsAcrossSeeds) {
  // Each seed runs over a VLD and over a 2-member striped array: the stage fronts either.
  for (const bool striped : {false, true}) {
    uint64_t conflict_destages = 0;  // Summed over seeds: the array's 2x span makes overlaps rarer.
    for (uint64_t seed : {7u, 99u, 4242u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << (striped ? ", striped array" : ""));
      Stack plain(/*staged=*/false, striped);
      Stack staged(/*staged=*/true, striped);
      std::map<uint32_t, uint32_t> live;
      RunMixedWorkload(plain, staged, seed, live);
      conflict_destages += staged.stage->stats().conflict_destages;
      // The queued rounds reached every member's queue through the stage, one member write per
      // host write (each round's extents are single blocks, inside one stripe unit).
      EXPECT_GT(staged.vld->stats().queued_writes, 0u);
      EXPECT_TRUE(staged.vld2 == nullptr || staged.vld2->stats().queued_writes > 0);
      EXPECT_EQ(staged.QueuedWrites(), plain.QueuedWrites());
      ExpectBitIdentical(plain, staged, live);
    }
    EXPECT_GT(conflict_destages, 0u);
  }
}

TEST(NvmDifferentialTest, RecoveredStageStillConvergesToStageOff) {
  // Crash the staged stack mid-workload (drop the DRAM overlay, keep NVM + disk), recover a
  // fresh stage from the NVM image, finish the workload's logical effect via Drain, and the
  // block-device contents must still match the stage-off run. This is the durability half of
  // the differential contract: an acked staged write survives on NVM alone.
  Stack plain(/*staged=*/false);
  Stack staged(/*staged=*/true);
  std::map<uint32_t, uint32_t> live;
  RunMixedWorkload(plain, staged, /*seed=*/5150, live);
  // "Crash": adopt the NVM media into a new device + stage; the old overlay is gone.
  auto nvm2 = std::make_unique<simdisk::NvmDevice>(simdisk::NvmDeviceParams{}, &staged.clock,
                                                   staged.nvm->Snapshot());
  auto stage2 = std::make_unique<NvmStage>(nvm2.get(), staged.backing, NvmStageConfig{});
  auto info = stage2->Recover();
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_FALSE(info->torn_tail_dropped);
  staged.nvm = std::move(nvm2);
  staged.stage = std::move(stage2);
  staged.front = staged.stage.get();
  ExpectBitIdentical(plain, staged, live);
}

// --- Tracing: the breakdown identity survives the new nvm component -----------------------

struct TracedRun {
  common::Duration latency_sum = 0;
  common::Duration breakdown_total = 0;
  common::Duration nvm_total = 0;
  common::Duration disk_total = 0;
  uint64_t completed_spans = 0;
};

// `writes` depth-1 sync writes through a traced stage: `small` selects staged one-block
// writes or direct four-block writes.
TracedRun RunTracedSync(int writes, bool small) {
  Stack staged(/*staged=*/true);
  obs::TraceRecorder tracer(&staged.clock);
  staged.disk->set_tracer(&tracer);
  staged.stage->set_tracer(&tracer);
  common::Rng rng(42);
  const uint32_t span = staged.vld->logical_blocks() - 8;
  const size_t bytes = small ? kBlockBytes : 4 * kBlockBytes;
  for (int i = 0; i < writes; ++i) {
    const auto data = Pattern(bytes, static_cast<uint32_t>(i));
    EXPECT_TRUE(
        staged.front->Write(static_cast<simdisk::Lba>(rng.Below(span)) * kBlockSectors, data).ok());
  }
  TracedRun run;
  run.latency_sum = tracer.latency_hist().Sum();
  run.breakdown_total = tracer.totals().Total();
  run.nvm_total = tracer.totals().nvm;
  const obs::TimeBreakdown& t = tracer.totals();
  run.disk_total = t.seek + t.rotation + t.transfer + t.head_switch;
  run.completed_spans = tracer.completed_spans();
  return run;
}

TEST(NvmBreakdownTest, StagedSyncWritesSumToLatencyWithNvmComponent) {
  const TracedRun run = RunTracedSync(/*writes=*/64, /*small=*/true);
  EXPECT_EQ(run.completed_spans, 64u);
  // The exact identity: every nanosecond of every span is attributed to a component (the new
  // nvm bucket included) or to the queueing residual — no slop term, no double counting.
  EXPECT_EQ(run.breakdown_total, run.latency_sum);
  // Staged acks are pure NVM time: the nvm component is live and mechanical components absent.
  EXPECT_GT(run.nvm_total, 0);
  EXPECT_EQ(run.disk_total, 0);
}

TEST(NvmBreakdownTest, DirectWritesThroughStageKeepIdentityWithoutNvmTime) {
  const TracedRun run = RunTracedSync(/*writes=*/16, /*small=*/false);
  EXPECT_EQ(run.breakdown_total, run.latency_sum);
  // Above-threshold writes bypass the NVM log entirely (no staged overlap existed here), so
  // their spans carry mechanical disk time and zero nvm time.
  EXPECT_EQ(run.nvm_total, 0);
  EXPECT_GT(run.disk_total, 0);
}

TEST(NvmBreakdownTest, DestageBurstsAndDrainPreserveIdentity) {
  Stack staged(/*staged=*/true);
  obs::TraceRecorder tracer(&staged.clock);
  staged.disk->set_tracer(&tracer);
  staged.stage->set_tracer(&tracer);
  common::Rng rng(7);
  const uint32_t span = staged.vld->logical_blocks() - 8;
  for (int i = 0; i < 32; ++i) {
    const auto data = Pattern(kBlockBytes, static_cast<uint32_t>(i));
    ASSERT_TRUE(
        staged.front->Write(static_cast<simdisk::Lba>(rng.Below(span)) * kBlockSectors, data).ok());
    if (i % 8 == 7) {
      ASSERT_TRUE(staged.stage->RunDestageBurst(common::Milliseconds(1)).ok());
    }
  }
  ASSERT_TRUE(staged.stage->Drain().ok());
  // Destage/drain spans mix NVM reads, disk writes, and flushes; the identity must still be
  // exact over the whole run.
  EXPECT_EQ(tracer.totals().Total(), tracer.latency_hist().Sum());
  EXPECT_GT(tracer.totals().nvm, 0);
  EXPECT_GT(staged.stage->stats().destage_batches, 0u);
}

TEST(NvmBreakdownTest, StagedAckIsCheaperThanEagerWrite) {
  // The latency story the stage exists for: a one-block sync write acked from NVM costs orders
  // of magnitude less virtual time than the same write eagerly placed on the disk.
  Stack staged(/*staged=*/true);
  Stack plain(/*staged=*/false);
  const auto data = Pattern(kBlockBytes, 3);
  const common::Time s0 = staged.clock.Now();
  ASSERT_TRUE(staged.front->Write(0, data).ok());
  const common::Duration staged_cost = staged.clock.Now() - s0;
  const common::Time p0 = plain.clock.Now();
  ASSERT_TRUE(plain.front->Write(0, data).ok());
  const common::Duration eager_cost = plain.clock.Now() - p0;
  EXPECT_LT(staged_cost, eager_cost / 10);
}

}  // namespace
}  // namespace vlog::core
