// Property tests for the NVM staging tier's log recovery: torn tails are detected via
// per-record CRCs and dropped without losing earlier records, swept exhaustively at every
// cache-line boundary of the final append; stale prior-epoch bytes never replay.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/nvm/nvm_stage.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr uint32_t kSectorBytes = 512;

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 7 + 13));
  }
  return v;
}

class NvmStageTest : public ::testing::Test {
 protected:
  NvmStageTest() {
    disk_ = std::make_unique<simdisk::SimDisk>(
        simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock_);
    vld_ = std::make_unique<Vld>(disk_.get(), VldConfig{});
    EXPECT_TRUE(vld_->Format().ok());
    nvm_ = std::make_unique<simdisk::NvmDevice>(nvm_params_, &clock_);
    stage_ = std::make_unique<NvmStage>(nvm_.get(), vld_.get(), config_);
    EXPECT_TRUE(stage_->Format().ok());
  }

  // A fresh stage over the same backing VLD, adopting `image` as the NVM contents — the
  // post-crash recovery path.
  std::pair<std::unique_ptr<simdisk::NvmDevice>, std::unique_ptr<NvmStage>> Reopen(
      std::vector<std::byte> image) {
    auto nvm = std::make_unique<simdisk::NvmDevice>(nvm_params_, &clock_, std::move(image));
    auto stage = std::make_unique<NvmStage>(nvm.get(), vld_.get(), config_);
    return {std::move(nvm), std::move(stage)};
  }

  common::Clock clock_;
  simdisk::NvmDeviceParams nvm_params_;
  NvmStageConfig config_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<Vld> vld_;
  std::unique_ptr<simdisk::NvmDevice> nvm_;
  std::unique_ptr<NvmStage> stage_;
};

TEST_F(NvmStageTest, RecordBytesPadsToCacheLines) {
  EXPECT_EQ(NvmStage::RecordBytes(0, 64), 64u);       // Header alone fits one line.
  EXPECT_EQ(NvmStage::RecordBytes(16, 64), 64u);      // 48 + 16 = exactly one line.
  EXPECT_EQ(NvmStage::RecordBytes(17, 64), 128u);
  EXPECT_EQ(NvmStage::RecordBytes(512, 64), 576u);    // 48 + 512 = 560 -> 9 lines.
  EXPECT_EQ(NvmStage::RecordBytes(4096, 64), 4160u);  // 48 + 4096 = 4144 -> 65 lines.
}

TEST_F(NvmStageTest, SmallWriteIsStagedAndReadBack) {
  const auto data = Pattern(kSectorBytes, 1);
  ASSERT_TRUE(stage_->Write(10, data).ok());
  EXPECT_EQ(stage_->staged_sectors(), 1u);
  EXPECT_EQ(stage_->stats().staged_writes, 1u);
  std::vector<std::byte> out(kSectorBytes);
  ASSERT_TRUE(stage_->Read(10, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(stage_->stats().read_hit_sectors, 1u);
  // The backing device has not seen the write yet.
  std::vector<std::byte> backing(kSectorBytes);
  ASSERT_TRUE(vld_->Read(10, backing).ok());
  EXPECT_NE(backing, data);
}

TEST_F(NvmStageTest, LargeWriteGoesDirect) {
  const auto data = Pattern(kSectorBytes * (config_.stage_threshold_sectors + 1), 2);
  ASSERT_TRUE(stage_->Write(64, data).ok());
  EXPECT_EQ(stage_->staged_sectors(), 0u);
  EXPECT_EQ(stage_->stats().direct_writes, 1u);
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(vld_->Read(64, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(NvmStageTest, ReadMergesStagedAndBackingSectors) {
  const auto base = Pattern(kSectorBytes * 8, 3);
  ASSERT_TRUE(stage_->Write(0, base).ok());  // 8 sectors: staged (== threshold).
  ASSERT_TRUE(stage_->Drain().ok());         // Now on the backing device.
  const auto patch = Pattern(kSectorBytes, 4);
  ASSERT_TRUE(stage_->Write(3, patch).ok());  // Staged overlay over sector 3.
  std::vector<std::byte> out(kSectorBytes * 8);
  ASSERT_TRUE(stage_->Read(0, out).ok());
  auto expect = base;
  std::memcpy(expect.data() + 3 * kSectorBytes, patch.data(), kSectorBytes);
  EXPECT_EQ(out, expect);
}

TEST_F(NvmStageTest, DrainDestagesEverythingAndResetsTheLog) {
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(stage_->Write(i * 4, Pattern(kSectorBytes * 2, 10 + i)).ok());
  }
  const uint64_t epoch_before = stage_->epoch();
  ASSERT_TRUE(stage_->Drain().ok());
  EXPECT_EQ(stage_->staged_sectors(), 0u);
  EXPECT_EQ(stage_->log_records(), 0u);
  EXPECT_EQ(stage_->log_bytes(), 0u);
  EXPECT_GT(stage_->epoch(), epoch_before);
  for (uint32_t i = 0; i < 20; ++i) {
    std::vector<std::byte> out(kSectorBytes * 2);
    ASSERT_TRUE(vld_->Read(i * 4, out).ok());
    EXPECT_EQ(out, Pattern(kSectorBytes * 2, 10 + i)) << "block " << i;
  }
}

TEST_F(NvmStageTest, OverlappingDirectWriteInvalidatesStagedCopy) {
  ASSERT_TRUE(stage_->Write(100, Pattern(kSectorBytes, 5)).ok());
  // A 9-sector direct write overlapping the staged sector must win.
  const auto big = Pattern(kSectorBytes * 9, 6);
  ASSERT_TRUE(stage_->Write(96, big).ok());
  EXPECT_EQ(stage_->staged_sectors(), 0u);
  EXPECT_GE(stage_->stats().invalidates, 1u);
  EXPECT_GE(stage_->stats().conflict_destages, 1u);
  std::vector<std::byte> out(big.size());
  ASSERT_TRUE(stage_->Read(96, out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(NvmStageTest, RunDestageBurstRetiresOldestRecordsUnderBudget) {
  for (uint32_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(stage_->Write(i * 2, Pattern(kSectorBytes, 20 + i)).ok());
  }
  ASSERT_EQ(stage_->log_records(), 32u);
  auto retired = stage_->RunDestageBurst(common::Milliseconds(5));
  ASSERT_TRUE(retired.ok());
  EXPECT_GT(*retired, 0u);
  EXPECT_LT(stage_->log_records(), 32u);
  // Everything retired so far must already be readable (and durable) on the backing device.
  for (uint32_t i = 0; i < *retired && i < 32; ++i) {
    std::vector<std::byte> out(kSectorBytes);
    ASSERT_TRUE(vld_->Read(i * 2, out).ok());
    EXPECT_EQ(out, Pattern(kSectorBytes, 20 + i)) << "record " << i;
  }
}

TEST_F(NvmStageTest, OverflowTriggersDrainAndEpochReset) {
  simdisk::NvmDeviceParams tiny = nvm_params_;
  tiny.size_bytes = 8 * 1024;  // Room for a handful of records only.
  auto nvm = std::make_unique<simdisk::NvmDevice>(tiny, &clock_);
  NvmStage stage(nvm.get(), vld_.get(), config_);
  ASSERT_TRUE(stage.Format().ok());
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(stage.Write(i * 2, Pattern(kSectorBytes, i)).ok());
  }
  EXPECT_GT(stage.stats().overflow_drains, 0u);
  ASSERT_TRUE(stage.Drain().ok());
  for (uint32_t i = 0; i < 64; ++i) {
    std::vector<std::byte> out(kSectorBytes);
    ASSERT_TRUE(vld_->Read(i * 2, out).ok());
    EXPECT_EQ(out, Pattern(kSectorBytes, i)) << "write " << i;
  }
}

TEST_F(NvmStageTest, ConflictThatOverflowsTheLogDestagesEachSectorOnce) {
  // Room for exactly four one-sector records: a conflict's invalidate record does not fit, so
  // the conflict path falls back to a full drain. The drain must not write the sector the
  // conflict already destaged a second time.
  simdisk::NvmDeviceParams tiny = nvm_params_;
  tiny.size_bytes = NvmStage::kSuperblockBytes + 4 * NvmStage::RecordBytes(kSectorBytes, 64);
  auto nvm = std::make_unique<simdisk::NvmDevice>(tiny, &clock_);
  NvmStage stage(nvm.get(), vld_.get(), config_);
  ASSERT_TRUE(stage.Format().ok());
  const simdisk::Lba staged_lbas[] = {100, 116, 132, 148};
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(stage.Write(staged_lbas[i], Pattern(kSectorBytes, 70 + i)).ok());
  }
  ASSERT_EQ(stage.log_records(), 4u);
  const uint64_t destaged_before = stage.stats().destaged_sectors;
  const uint64_t host_writes_before = vld_->stats().host_writes;
  // A 9-sector direct write over the staged sector at 100 only.
  const auto big = Pattern(kSectorBytes * 9, 80);
  ASSERT_TRUE(stage.Write(100, big).ok());
  EXPECT_EQ(stage.stats().overflow_drains, 1u);
  // Sector 100 by the conflict, 116/132/148 by the drain; then the direct write itself.
  EXPECT_EQ(stage.stats().destaged_sectors - destaged_before, 4u);
  EXPECT_EQ(vld_->stats().host_writes - host_writes_before, 5u);
  EXPECT_EQ(stage.staged_sectors(), 0u);
  std::vector<std::byte> out(big.size());
  ASSERT_TRUE(stage.Read(100, out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(vld_->Read(100, out).ok());
  EXPECT_EQ(out, big);
  std::vector<std::byte> sector(kSectorBytes);
  for (uint32_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(stage.Read(staged_lbas[i], sector).ok());
    EXPECT_EQ(sector, Pattern(kSectorBytes, 70 + i)) << "lba " << staged_lbas[i];
    ASSERT_TRUE(vld_->Read(staged_lbas[i], sector).ok());
    EXPECT_EQ(sector, Pattern(kSectorBytes, 70 + i)) << "lba " << staged_lbas[i];
  }
}

TEST_F(NvmStageTest, QueuedPassthroughsRequireAVldBacking) {
  auto nvm = std::make_unique<simdisk::NvmDevice>(nvm_params_, &clock_);
  NvmStage raw(nvm.get(), static_cast<simdisk::BlockDevice*>(disk_.get()), config_);
  ASSERT_TRUE(raw.Format().ok());
  EXPECT_FALSE(raw.Trim(0, 8).ok());
  EXPECT_FALSE(raw.SubmitWrite(0, Pattern(kSectorBytes, 1)).ok());
  EXPECT_FALSE(raw.SubmitRead(0, 8).ok());
  EXPECT_FALSE(raw.FlushQueue().ok());
}

TEST_F(NvmStageTest, RecoverReplaysAcknowledgedStagedWrites) {
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(stage_->Write(i * 8, Pattern(kSectorBytes * 2, 40 + i)).ok());
  }
  auto [nvm2, stage2] = Reopen(nvm_->Snapshot());
  auto info = stage2->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->data_records, 8u);
  EXPECT_FALSE(info->torn_tail_dropped);
  EXPECT_EQ(info->staged_sectors, 16u);
  for (uint32_t i = 0; i < 8; ++i) {
    std::vector<std::byte> out(kSectorBytes * 2);
    ASSERT_TRUE(stage2->Read(i * 8, out).ok());
    EXPECT_EQ(out, Pattern(kSectorBytes * 2, 40 + i)) << "record " << i;
  }
}

TEST_F(NvmStageTest, RecoverAfterPartialDestageReplaysFromTheMidLogHead) {
  for (uint32_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(stage_->Write(i * 4, Pattern(kSectorBytes, 50 + i)).ok());
  }
  // Retire one batch: the persisted head now points at a mid-log record whose sequence
  // number is far from 1.
  auto retired = stage_->RunDestageBurst(common::Milliseconds(1));
  ASSERT_TRUE(retired.ok());
  ASSERT_GT(*retired, 0u);
  ASSERT_LT(*retired, 24u);
  auto [nvm2, stage2] = Reopen(nvm_->Snapshot());
  auto info = stage2->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->data_records, 24u - *retired);
  EXPECT_FALSE(info->torn_tail_dropped);
  // Every acknowledged write is readable: destaged ones from the backing device, live ones
  // from the replayed overlay.
  for (uint32_t i = 0; i < 24; ++i) {
    std::vector<std::byte> out(kSectorBytes);
    ASSERT_TRUE(stage2->Read(i * 4, out).ok());
    EXPECT_EQ(out, Pattern(kSectorBytes, 50 + i)) << "record " << i;
  }
}

TEST_F(NvmStageTest, RecoverHonorsInvalidateRecords) {
  ASSERT_TRUE(stage_->Write(200, Pattern(kSectorBytes, 7)).ok());
  // A direct overlapping write destages + invalidates; the overlay must not resurrect the
  // staged copy over it after recovery.
  const auto winner = Pattern(kSectorBytes * 9, 8);
  ASSERT_TRUE(stage_->Write(200, winner).ok());
  auto [nvm2, stage2] = Reopen(nvm_->Snapshot());
  auto info = stage2->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->invalidate_records, 1u);
  EXPECT_EQ(info->staged_sectors, 0u);
  std::vector<std::byte> out(winner.size());
  ASSERT_TRUE(stage2->Read(200, out).ok());
  EXPECT_EQ(out, winner);
}

TEST_F(NvmStageTest, RecoverRejectsStalePriorEpochRecords) {
  // Fill and drain: the log resets and the epoch bumps, but the old records' bytes are still
  // physically present past the reset point.
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(stage_->Write(i * 4, Pattern(kSectorBytes * 2, 60 + i)).ok());
  }
  ASSERT_TRUE(stage_->Drain().ok());
  ASSERT_TRUE(stage_->Write(300, Pattern(kSectorBytes, 70)).ok());
  auto [nvm2, stage2] = Reopen(nvm_->Snapshot());
  auto info = stage2->Recover();
  ASSERT_TRUE(info.ok());
  // Only the fresh-epoch record replays; the stale bytes beyond it fail the epoch check and
  // read as a clean log end, not a torn tail.
  EXPECT_EQ(info->data_records, 1u);
  EXPECT_FALSE(info->torn_tail_dropped);
  EXPECT_EQ(info->staged_sectors, 1u);
}

TEST_F(NvmStageTest, RecoverOnUnformattedNvmStartsEmpty) {
  auto nvm = std::make_unique<simdisk::NvmDevice>(nvm_params_, &clock_);
  NvmStage stage(nvm.get(), vld_.get(), config_);
  auto info = stage.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->data_records, 0u);
  EXPECT_EQ(info->staged_sectors, 0u);
  EXPECT_GT(info->epoch, 0u);
  // And the stage is usable immediately.
  ASSERT_TRUE(stage.Write(0, Pattern(kSectorBytes, 1)).ok());
  EXPECT_EQ(stage.staged_sectors(), 1u);
}

// The exhaustive tear sweep: a crash mid-append persists a line-aligned prefix of the new
// record while the bytes beyond keep their pre-append contents. Every cut must recover all
// earlier records and never replay a partial one.
TEST_F(NvmStageTest, ExhaustiveCacheLineTearSweepOverFinalAppend) {
  const uint32_t line = nvm_params_.cache_line_bytes;
  constexpr uint32_t kPriorRecords = 5;
  for (uint32_t i = 0; i < kPriorRecords; ++i) {
    ASSERT_TRUE(stage_->Write(i * 8, Pattern(kSectorBytes, 80 + i)).ok());
  }
  const auto pre = nvm_->Snapshot();
  const uint64_t record_offset = NvmStage::kSuperblockBytes + stage_->log_bytes();
  const auto final_data = Pattern(kSectorBytes * 3, 90);  // Multi-line payload.
  ASSERT_TRUE(stage_->Write(400, final_data).ok());
  const auto post = nvm_->Snapshot();
  const uint64_t total = NvmStage::RecordBytes(final_data.size(), line);

  uint32_t torn_cuts = 0;
  for (uint64_t cut = 0; cut <= total; cut += line) {
    auto torn = pre;
    std::memcpy(torn.data() + record_offset, post.data() + record_offset, cut);
    auto [nvm2, stage2] = Reopen(std::move(torn));
    auto info = stage2->Recover();
    ASSERT_TRUE(info.ok()) << "cut " << cut;
    if (cut == total) {
      // Fully persisted: the final record replays.
      EXPECT_EQ(info->data_records, kPriorRecords + 1) << "cut " << cut;
      EXPECT_FALSE(info->torn_tail_dropped) << "cut " << cut;
      std::vector<std::byte> out(final_data.size());
      ASSERT_TRUE(stage2->Read(400, out).ok());
      EXPECT_EQ(out, final_data) << "cut " << cut;
    } else {
      // Torn: exactly the final record is dropped — all-or-nothing, never a partial replay.
      EXPECT_EQ(info->data_records, kPriorRecords) << "cut " << cut;
      if (cut > 0) {
        // The header line persisted but the payload is incomplete: the CRC must catch it.
        EXPECT_TRUE(info->torn_tail_dropped) << "cut " << cut;
        ++torn_cuts;
      }
    }
    // Every earlier acknowledged record survives every cut.
    for (uint32_t i = 0; i < kPriorRecords; ++i) {
      std::vector<std::byte> out(kSectorBytes);
      ASSERT_TRUE(stage2->Read(i * 8, out).ok());
      EXPECT_EQ(out, Pattern(kSectorBytes, 80 + i)) << "cut " << cut << " record " << i;
    }
  }
  EXPECT_GT(torn_cuts, 0u);
}

// Single-bit payload corruption anywhere in any record is caught by the per-record CRC: the
// damaged record and everything after it are dropped, everything before survives.
TEST_F(NvmStageTest, PayloadCorruptionDropsTheDamagedRecordAndItsSuffix) {
  constexpr uint32_t kRecords = 4;
  for (uint32_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(stage_->Write(i * 8, Pattern(kSectorBytes, 100 + i)).ok());
  }
  const uint64_t record_total = NvmStage::RecordBytes(kSectorBytes, nvm_params_.cache_line_bytes);
  common::Rng rng(0x7a11);
  for (uint32_t victim = 0; victim < kRecords; ++victim) {
    auto image = nvm_->Snapshot();
    const uint64_t payload_off = NvmStage::kSuperblockBytes + victim * record_total +
                                 NvmStage::kHeaderBytes + rng.Next() % kSectorBytes;
    image[payload_off] ^= std::byte{0x40};
    auto [nvm2, stage2] = Reopen(std::move(image));
    auto info = stage2->Recover();
    ASSERT_TRUE(info.ok()) << "victim " << victim;
    EXPECT_EQ(info->data_records, victim) << "victim " << victim;
    EXPECT_TRUE(info->torn_tail_dropped) << "victim " << victim;
    for (uint32_t i = 0; i < victim; ++i) {
      std::vector<std::byte> out(kSectorBytes);
      ASSERT_TRUE(stage2->Read(i * 8, out).ok());
      EXPECT_EQ(out, Pattern(kSectorBytes, 100 + i)) << "victim " << victim << " record " << i;
    }
  }
}

// A record whose CRCs are valid but whose LBA range runs past the top of the 64-bit LBA space
// (so lba + count wraps to a small number) is not a record of this device: recovery ends the
// log there instead of replaying it. Covers a data record at LBA ~0 and an invalidate record
// whose range wraps.
TEST_F(NvmStageTest, RecoverStopsAtRecordRangesThatWrapTheLbaSpace) {
  ASSERT_TRUE(stage_->Write(200, Pattern(kSectorBytes, 1)).ok());
  ASSERT_TRUE(stage_->Write(300, Pattern(kSectorBytes, 2)).ok());
  ASSERT_TRUE(stage_->Write(300, Pattern(kSectorBytes * 9, 3)).ok());  // Direct: invalidate.
  const uint64_t data_total = NvmStage::RecordBytes(kSectorBytes, nvm_params_.cache_line_bytes);
  const uint64_t second = NvmStage::kSuperblockBytes + data_total;
  const uint64_t invalidate = second + data_total;
  for (const auto& [offset, lba] : {std::pair{second, ~uint64_t{0}},
                                    std::pair{invalidate, ~uint64_t{0} - 3}}) {
    auto image = nvm_->Snapshot();
    const std::span<std::byte> header(image.data() + offset, NvmStage::kHeaderBytes);
    common::StoreLe<uint64_t>(header, 24, lba);
    common::StoreLe<uint32_t>(header, 44, common::Crc32c(header.first(44)));
    auto [nvm2, stage2] = Reopen(std::move(image));
    auto info = stage2->Recover();
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->data_records, offset == second ? 1u : 2u) << "offset " << offset;
    EXPECT_EQ(info->invalidate_records, 0u) << "offset " << offset;
    EXPECT_EQ(info->staged_sectors, offset == second ? 1u : 2u) << "offset " << offset;
    EXPECT_FALSE(info->torn_tail_dropped) << "offset " << offset;
  }
}

}  // namespace
}  // namespace vlog::core
