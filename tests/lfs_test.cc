#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/lfs/log_disk.h"
#include "src/lfs/simple_fs.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::lfs {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 53 + i * 3));
  }
  return v;
}

class LogDiskTest : public ::testing::Test {
 protected:
  LogDiskTest()
      : disk_(simdisk::Truncated(simdisk::SeagateSt19101(), 6), &clock_), lld_(&disk_) {
    EXPECT_TRUE(lld_.Format().ok());
  }
  common::Clock clock_;
  simdisk::SimDisk disk_;
  LogStructuredDisk lld_;
};

TEST_F(LogDiskTest, LayoutExportsMostOfTheDisk) {
  // 12 MB disk -> 24 segments; 3 reserved.
  EXPECT_EQ(lld_.LogicalBlocks(), (24u - 3u) * 127u);
}

TEST_F(LogDiskTest, WriteReadRoundTripThroughBuffer) {
  const auto data = Pattern(4096, 1);
  ASSERT_TRUE(lld_.WriteBlock(5, data).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lld_.ReadBlock(5, out).ok());  // Still in the open segment buffer.
  EXPECT_EQ(out, data);
  EXPECT_GE(lld_.stats().buffer_read_hits, 1u);
}

TEST_F(LogDiskTest, WriteReadRoundTripThroughDisk) {
  const auto data = Pattern(4096, 2);
  ASSERT_TRUE(lld_.WriteBlock(7, data).ok());
  ASSERT_TRUE(lld_.Sync().ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lld_.ReadBlock(7, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(LogDiskTest, UnwrittenBlocksReadZero) {
  std::vector<std::byte> out(4096, std::byte{0xAA});
  ASSERT_TRUE(lld_.ReadBlock(100, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(4096));
}

TEST_F(LogDiskTest, OverwritesAbsorbedInBuffer) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(lld_.WriteBlock(3, Pattern(4096, i)).ok());
  }
  EXPECT_EQ(lld_.stats().blocks_absorbed, 9u);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lld_.ReadBlock(3, out).ok());
  EXPECT_EQ(out, Pattern(4096, 9));
}

TEST_F(LogDiskTest, SegmentSealsWhenFull) {
  for (uint32_t b = 0; b < 127; ++b) {
    ASSERT_TRUE(lld_.WriteBlock(b, Pattern(4096, b)).ok());
  }
  ASSERT_TRUE(lld_.WriteBlock(127, Pattern(4096, 127)).ok());  // Forces a seal + new segment.
  EXPECT_EQ(lld_.stats().segment_writes, 1u);
}

TEST_F(LogDiskTest, PartialSegmentRuleOnSync) {
  // Below the 75% threshold: the segment stays open and keeps absorbing.
  for (uint32_t b = 0; b < 10; ++b) {
    ASSERT_TRUE(lld_.WriteBlock(b, Pattern(4096, b)).ok());
  }
  ASSERT_TRUE(lld_.Sync().ok());
  EXPECT_EQ(lld_.stats().partial_segment_writes, 1u);
  EXPECT_EQ(lld_.stats().segment_writes, 0u);
  // A second sync after more writes appends the delta to the same segment.
  ASSERT_TRUE(lld_.WriteBlock(50, Pattern(4096, 50)).ok());
  ASSERT_TRUE(lld_.Sync().ok());
  EXPECT_EQ(lld_.stats().partial_segment_writes, 2u);

  // Above the threshold: sealed as if full.
  for (uint32_t b = 0; b < 100; ++b) {
    ASSERT_TRUE(lld_.WriteBlock(200 + b, Pattern(4096, b)).ok());
  }
  ASSERT_TRUE(lld_.Sync().ok());
  EXPECT_EQ(lld_.stats().segment_writes, 1u);
}

TEST_F(LogDiskTest, TrimmedBlocksReadZeroAndFreeSpace) {
  ASSERT_TRUE(lld_.WriteBlock(9, Pattern(4096, 9)).ok());
  ASSERT_TRUE(lld_.Sync().ok());
  ASSERT_TRUE(lld_.TrimBlock(9).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(lld_.ReadBlock(9, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(4096));
}

TEST_F(LogDiskTest, CleanerReclaimsDeadSegments) {
  // Fill most of the logical space, then overwrite everything to create dead segments; the
  // cleaner must keep the disk writable throughout.
  const uint32_t blocks = lld_.LogicalBlocks() * 3 / 4;
  std::vector<uint32_t> version(blocks, 0);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(lld_.WriteBlock(b, Pattern(4096, b)).ok());
    version[b] = b;
  }
  ASSERT_TRUE(lld_.Sync().ok());
  // Strided overwrites kill blocks scattered across many segments, so free segments can only
  // come from the cleaner.
  for (uint32_t i = 0; i < blocks * 3; ++i) {
    const uint32_t b = (i * 37) % blocks;
    version[b] = blocks + i;
    ASSERT_TRUE(lld_.WriteBlock(b, Pattern(4096, version[b])).ok()) << i;
  }
  ASSERT_TRUE(lld_.Sync().ok());
  EXPECT_GT(lld_.stats().cleaner_runs, 0u);
  EXPECT_GT(lld_.stats().segments_cleaned, 0u);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 0; b < blocks; b += 13) {
    ASSERT_TRUE(lld_.ReadBlock(b, out).ok());
    ASSERT_EQ(out, Pattern(4096, version[b])) << b;
  }
}

TEST_F(LogDiskTest, IdleCleaningCreatesFreeSegments) {
  const uint32_t blocks = lld_.LogicalBlocks();  // Fill everything so free segments are scarce.
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(lld_.WriteBlock(b, Pattern(4096, b)).ok());
  }
  ASSERT_TRUE(lld_.Sync().ok());
  // Punch holes.
  for (uint32_t b = 0; b < blocks; b += 2) {
    ASSERT_TRUE(lld_.TrimBlock(b).ok());
  }
  const uint32_t before = lld_.FreeSegments();
  ASSERT_TRUE(lld_.CleanDuringIdle(clock_.Now() + common::Seconds(2), &clock_).ok());
  EXPECT_GT(lld_.FreeSegments(), before);
}

class SimpleFsTest : public ::testing::Test {
 protected:
  SimpleFsTest()
      : disk_(simdisk::Truncated(simdisk::SeagateSt19101(), 6), &clock_),
        lld_(&disk_),
        host_(simdisk::ZeroCostHost(), &clock_),
        fs_(&lld_, &host_) {
    EXPECT_TRUE(lld_.Format().ok());
    EXPECT_TRUE(fs_.Format().ok());
  }
  common::Clock clock_;
  simdisk::SimDisk disk_;
  LogStructuredDisk lld_;
  simdisk::HostModel host_;
  SimpleFs fs_;
};

TEST_F(SimpleFsTest, CreateWriteReadRemove) {
  ASSERT_TRUE(fs_.Create("/a").ok());
  const auto data = Pattern(10000, 1);
  ASSERT_TRUE(fs_.Write("/a", 0, data, fs::WritePolicy::kAsync).ok());
  std::vector<std::byte> out(data.size());
  auto n = fs_.Read("/a", 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(fs_.Remove("/a").ok());
  EXPECT_FALSE(fs_.Stat("/a").ok());
}

TEST_F(SimpleFsTest, AsyncWritesStayInCache) {
  ASSERT_TRUE(fs_.Create("/buf").ok());
  const uint64_t before = disk_.stats().write_requests;
  ASSERT_TRUE(fs_.Write("/buf", 0, Pattern(65536, 2), fs::WritePolicy::kAsync).ok());
  EXPECT_EQ(disk_.stats().write_requests, before);
  ASSERT_TRUE(fs_.Sync().ok());
  EXPECT_GT(disk_.stats().write_requests, before);
}

TEST_F(SimpleFsTest, SyncWriteForcesPartialSegment) {
  ASSERT_TRUE(fs_.Create("/s").ok());
  ASSERT_TRUE(fs_.Write("/s", 0, Pattern(4096, 3), fs::WritePolicy::kSync).ok());
  EXPECT_GE(lld_.stats().partial_segment_writes + lld_.stats().segment_writes, 1u);
}

TEST_F(SimpleFsTest, SurvivesDropCaches) {
  ASSERT_TRUE(fs_.Create("/d").ok());
  const auto data = Pattern(30000, 4);
  ASSERT_TRUE(fs_.Write("/d", 0, data, fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(fs_.DropCaches().ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs_.Read("/d", 0, out).ok());
  EXPECT_EQ(out, data);
}

// RunIdle's write-back and cleaning passes are best effort, so their failures are counted in
// SimpleFsStats rather than returned. With the disk failing every write, both passes fail: the
// flush seals a full segment of dirty buffers, and the cleaner, with free segments below its
// target, copies live blocks out of the half-dead segments left by the removed files.
TEST_F(SimpleFsTest, FailedIdleFlushAndCleanAreCounted) {
  constexpr size_t kFileBytes = 127 * 4096;  // One segment's worth of data blocks.
  constexpr size_t kChunk = 16 * 4096;
  constexpr int kFiles = 18;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs_.Create("/f" + std::to_string(i)).ok());
  }
  // Interleaved chunks, so every segment holds blocks of several files.
  for (size_t off = 0; off < kFileBytes; off += kChunk) {
    for (int i = 0; i < kFiles; ++i) {
      const size_t n = std::min(kChunk, kFileBytes - off);
      ASSERT_TRUE(fs_.Write("/f" + std::to_string(i), off, Pattern(n, i), fs::WritePolicy::kAsync)
                      .ok());
    }
  }
  ASSERT_TRUE(fs_.Sync().ok());
  for (int i = 0; i < kFiles; i += 2) {
    ASSERT_TRUE(fs_.Remove("/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fs_.Create("/dirty").ok());
  ASSERT_TRUE(fs_.Write("/dirty", 0, Pattern(2 * kFileBytes, 99), fs::WritePolicy::kAsync).ok());
  ASSERT_LT(lld_.FreeSegments(), LldConfig{}.idle_clean_target);
  EXPECT_EQ(fs_.stats().idle_flush_failures, 0u);
  EXPECT_EQ(fs_.stats().idle_clean_failures, 0u);

  disk_.SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kFailStop, .after_writes = 0});
  fs_.RunIdle(clock_.Now() + common::Seconds(2), &clock_);
  EXPECT_EQ(fs_.stats().idle_flush_failures, 1u);
  EXPECT_EQ(fs_.stats().idle_clean_failures, 1u);
  EXPECT_EQ(fs_.stats().trim_failures, 0u);
}

TEST_F(SimpleFsTest, ManyFilesAndDirectories) {
  ASSERT_TRUE(fs_.Mkdir("/dir").ok());
  for (int i = 0; i < 150; ++i) {
    const std::string path = "/dir/f" + std::to_string(i);
    ASSERT_TRUE(fs_.Create(path).ok());
    ASSERT_TRUE(fs_.Write(path, 0, Pattern(1024, i), fs::WritePolicy::kAsync).ok());
  }
  ASSERT_TRUE(fs_.DropCaches().ok());
  auto names = fs_.List("/dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 150u);
  std::vector<std::byte> out(1024);
  for (int i = 0; i < 150; i += 11) {
    ASSERT_TRUE(fs_.Read("/dir/f" + std::to_string(i), 0, out).ok());
    EXPECT_EQ(out, Pattern(1024, i)) << i;
  }
}

TEST_F(SimpleFsTest, RandomizedAgainstShadow) {
  common::Rng rng(99);
  ASSERT_TRUE(fs_.Create("/r").ok());
  std::vector<std::byte> shadow(512 * 1024, std::byte{0});
  uint64_t file_size = 0;
  for (int op = 0; op < 400; ++op) {
    const uint64_t max_off = std::min<uint64_t>(file_size, shadow.size() - 8192);
    const uint64_t off = rng.Below(max_off + 1);
    const size_t len = 1 + rng.Below(8191);
    const auto data = Pattern(len, op);
    ASSERT_TRUE(fs_.Write("/r", off, data,
                          rng.Chance(0.2) ? fs::WritePolicy::kSync : fs::WritePolicy::kAsync)
                    .ok());
    std::memcpy(shadow.data() + off, data.data(), len);
    file_size = std::max<uint64_t>(file_size, off + len);
    if (rng.Chance(0.1)) {
      const uint64_t roff = rng.Below(file_size);
      std::vector<std::byte> out(std::min<uint64_t>(4096, file_size - roff));
      auto n = fs_.Read("/r", roff, out);
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(*n, out.size());
      ASSERT_TRUE(std::equal(out.begin(), out.end(), shadow.begin() + roff)) << "op " << op;
    }
  }
  ASSERT_TRUE(fs_.DropCaches().ok());
  std::vector<std::byte> out(file_size);
  ASSERT_TRUE(fs_.Read("/r", 0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), shadow.begin()));
}

TEST_F(SimpleFsTest, SteadyStateOverwriteChurnStaysFunctional) {
  // Something like Figure 8's workload: a large file, random 4 KB overwrites, cache pressure,
  // cleaner activity — and the data must stay right.
  ASSERT_TRUE(fs_.Create("/churn").ok());
  const uint32_t blocks = 1800;  // ~7 MB file on a ~10 MB logical disk.
  std::vector<uint32_t> version(blocks, 0);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(fs_.Write("/churn", static_cast<uint64_t>(b) * 4096, Pattern(4096, b),
                          fs::WritePolicy::kAsync).ok());
    version[b] = b;
  }
  ASSERT_TRUE(fs_.Sync().ok());
  common::Rng rng(5);
  for (int i = 0; i < 6000; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    version[b] = 10000 + i;
    ASSERT_TRUE(fs_.Write("/churn", static_cast<uint64_t>(b) * 4096,
                          Pattern(4096, version[b]), fs::WritePolicy::kAsync).ok());
  }
  ASSERT_TRUE(fs_.DropCaches().ok());
  EXPECT_GT(lld_.stats().cleaner_runs, 0u);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 0; b < blocks; b += 37) {
    ASSERT_TRUE(fs_.Read("/churn", static_cast<uint64_t>(b) * 4096, out).ok());
    ASSERT_EQ(out, Pattern(4096, version[b])) << b;
  }
}

// LFS runs unmodified on the VLD too (the paper's fourth configuration).
TEST(LfsOnVld, FunctionalRoundTrip) {
  common::Clock clock;
  simdisk::SimDisk raw(simdisk::Truncated(simdisk::SeagateSt19101(), 6), &clock);
  core::Vld* vld_ptr = nullptr;
  (void)vld_ptr;
  auto vld = std::make_unique<core::Vld>(&raw);
  ASSERT_TRUE(vld->Format().ok());
  LogStructuredDisk lld(vld.get());
  ASSERT_TRUE(lld.Format().ok());
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  SimpleFs fs(&lld, &host);
  ASSERT_TRUE(fs.Format().ok());
  ASSERT_TRUE(fs.Create("/x").ok());
  const auto data = Pattern(100000, 6);
  ASSERT_TRUE(fs.Write("/x", 0, data, fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(fs.DropCaches().ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs.Read("/x", 0, out).ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace vlog::lfs
