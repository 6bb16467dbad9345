#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/map_sector.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/layout.h"
#include "src/vlfs/vlfs.h"

namespace vlog::vlfs {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 41 + i * 11));
  }
  return v;
}

class VlfsTest : public ::testing::Test {
 protected:
  VlfsTest() { Reset(); }

  void Reset() {
    clock_ = common::Clock();
    disk_ = std::make_unique<simdisk::SimDisk>(simdisk::Truncated(simdisk::SeagateSt19101(), 4),
                                               &clock_);
    host_ = std::make_unique<simdisk::HostModel>(simdisk::ZeroCostHost(), &clock_);
    fs_ = std::make_unique<Vlfs>(disk_.get(), host_.get());
    ASSERT_TRUE(fs_->Format().ok());
  }

  // Restart over the same media (crash if Park() was not called).
  void Reopen() { fs_ = std::make_unique<Vlfs>(disk_.get(), host_.get()); }

  // Rewrites in place, on the media, the inode of the one regular file whose size is `size`
  // after `edit` changes it: a hostile-image edit, seen only by a later recovery.
  void EditFileInode(uint64_t size, const std::function<void(ufs::Inode&)>& edit) {
    for (const uint32_t phys : fs_->inode_map()) {
      if (phys == core::kUnmappedBlock) {
        continue;
      }
      const simdisk::Lba lba = fs_->space().BlockToLba(phys);
      std::vector<std::byte> raw(ufs::kBlockBytes);
      ASSERT_TRUE(disk_->InternalRead(lba, raw).ok());
      for (uint32_t i = 0; i < ufs::kInodesPerBlock; ++i) {
        const std::span<std::byte> slot =
            std::span<std::byte>(raw).subspan(i * ufs::kInodeBytes, ufs::kInodeBytes);
        ufs::Inode inode = ufs::Inode::Decode(slot);
        if (inode.type == ufs::InodeType::kFile && inode.size == size) {
          edit(inode);
          inode.EncodeTo(slot);
          ASSERT_TRUE(disk_->InternalWrite(lba, raw).ok());
          return;
        }
      }
    }
    FAIL() << "no inode of size " << size;
  }

  common::Clock clock_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<simdisk::HostModel> host_;
  std::unique_ptr<Vlfs> fs_;
};

TEST_F(VlfsTest, CreateWriteReadRoundTrip) {
  ASSERT_TRUE(fs_->Create("/a").ok());
  const auto data = Pattern(10000, 1);
  ASSERT_TRUE(fs_->Write("/a", 0, data, fs::WritePolicy::kSync).ok());
  std::vector<std::byte> out(data.size());
  auto n = fs_->Read("/a", 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
}

TEST_F(VlfsTest, LargeFileThroughIndirect) {
  ASSERT_TRUE(fs_->Create("/big").ok());
  const auto data = Pattern(2 << 20, 2);  // 2 MB: well into the indirect range.
  ASSERT_TRUE(fs_->Write("/big", 0, data, fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(fs_->DropCaches().ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs_->Read("/big", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VlfsTest, DirectoriesAndRemoval) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  for (int i = 0; i < 100; ++i) {
    const std::string path = "/d/f" + std::to_string(i);
    ASSERT_TRUE(fs_->Create(path).ok());
    ASSERT_TRUE(fs_->Write(path, 0, Pattern(2048, i), fs::WritePolicy::kAsync).ok());
  }
  auto names = fs_->List("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 100u);
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(fs_->Remove("/d/f" + std::to_string(i)).ok());
  }
  EXPECT_EQ(fs_->List("/d")->size(), 50u);
  std::vector<std::byte> out(2048);
  ASSERT_TRUE(fs_->Read("/d/f1", 0, out).ok());
  EXPECT_EQ(out, Pattern(2048, 1));
}

TEST_F(VlfsTest, ParkRecoverRoundTrip) {
  ASSERT_TRUE(fs_->Create("/p").ok());
  const auto data = Pattern(100000, 3);
  ASSERT_TRUE(fs_->Write("/p", 0, data, fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs_->Park().ok());
  Reopen();
  auto info = fs_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->used_scan);
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs_->Read("/p", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VlfsTest, CrashRecoveryKeepsSyncedWrites) {
  ASSERT_TRUE(fs_->Create("/c").ok());
  const auto data = Pattern(8192, 4);
  ASSERT_TRUE(fs_->Write("/c", 0, data, fs::WritePolicy::kSync).ok());
  Reopen();  // No park: crash.
  auto info = fs_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->used_scan);
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs_->Read("/c", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VlfsTest, CrashBeforeCommitRollsBackWholeGroup) {
  ASSERT_TRUE(fs_->Create("/g").ok());
  ASSERT_TRUE(fs_->Write("/g", 0, Pattern(4096, 5), fs::WritePolicy::kSync).ok());
  // A group of async writes followed by a crash before any commit: all must vanish.
  ASSERT_TRUE(fs_->Write("/g", 0, Pattern(4096, 6), fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(fs_->Write("/g", 4096, Pattern(4096, 7), fs::WritePolicy::kAsync).ok());
  Reopen();
  ASSERT_TRUE(fs_->Recover().ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(fs_->Read("/g", 0, out).ok());
  EXPECT_EQ(out, Pattern(4096, 5)) << "uncommitted group must roll back";
  EXPECT_EQ(fs_->Stat("/g")->size, 4096u) << "size from the last commit";
}

TEST_F(VlfsTest, SyncWritesAreFastAndEager) {
  ASSERT_TRUE(fs_->Create("/fast").ok());
  std::vector<std::byte> block(4096);
  ASSERT_TRUE(fs_->Write("/fast", 0, block, fs::WritePolicy::kSync).ok());
  const common::Time start = clock_.Now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs_->Write("/fast", 0, block, fs::WritePolicy::kSync).ok());
  }
  const common::Duration per_write = (clock_.Now() - start) / 50;
  // Data block + inode block + map sector, all eager: well under a half rotation (3 ms).
  EXPECT_LT(per_write, common::Milliseconds(1.5))
      << common::ToMilliseconds(per_write) << " ms";
}

TEST_F(VlfsTest, CheckpointBoundsRecovery) {
  for (int i = 0; i < 30; ++i) {
    const std::string path = "/ck" + std::to_string(i);
    ASSERT_TRUE(fs_->Create(path).ok());
    ASSERT_TRUE(fs_->Write(path, 0, Pattern(4096, i), fs::WritePolicy::kSync).ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  ASSERT_TRUE(fs_->Write("/ck0", 0, Pattern(4096, 99), fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs_->Park().ok());
  Reopen();
  auto info = fs_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->from_checkpoint);
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(fs_->Read("/ck0", 0, out).ok());
  EXPECT_EQ(out, Pattern(4096, 99));
  ASSERT_TRUE(fs_->Read("/ck7", 0, out).ok());
  EXPECT_EQ(out, Pattern(4096, 7));
}

TEST_F(VlfsTest, IdleCompactionPreservesDataAndCreatesEmptyTracks) {
  // Fill most of the disk so that fill-to-threshold writing touches nearly every track, then
  // punch holes: only the compactor can produce empty tracks again.
  const int kCount = 480;
  for (int i = 0; i < kCount; ++i) {
    const std::string path = "/x" + std::to_string(i);
    ASSERT_TRUE(fs_->Create(path).ok());
    ASSERT_TRUE(fs_->Write(path, 0, Pattern(12288, i), fs::WritePolicy::kAsync).ok());
  }
  ASSERT_TRUE(fs_->Sync().ok());
  for (int i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(fs_->Remove("/x" + std::to_string(i)).ok());
  }
  fs_->RunIdle(common::Seconds(3));
  EXPECT_GT(fs_->compactor().stats().tracks_compacted, 0u);
  std::vector<std::byte> out(12288);
  for (int i = 1; i < kCount; i += 2) {
    ASSERT_TRUE(fs_->Read("/x" + std::to_string(i), 0, out).ok());
    ASSERT_EQ(out, Pattern(12288, i)) << i;
  }
}

// RunIdle's group commit and checkpoint report failure through stats instead of dropping it.
TEST_F(VlfsTest, FailedIdleCommitAndCheckpointAreCounted) {
  // Pinning needs several map pieces: each holds 104 inode blocks of 32 inodes, so 70
  // directories of 100 files reach into a third piece. Synced rewrites spread over the three
  // pieces soon obsolete a map sector that still carries a cover, pinning it.
  fs_ = std::make_unique<Vlfs>(disk_.get(), host_.get(), VlfsConfig{.inode_blocks = 312});
  ASSERT_TRUE(fs_->Format().ok());
  constexpr int kDirs = 70;
  constexpr int kFilesPerDir = 100;
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(fs_->Mkdir("/d" + std::to_string(d)).ok());
    for (int f = 0; f < kFilesPerDir; ++f) {
      ASSERT_TRUE(fs_->Create("/d" + std::to_string(d) + "/" + std::to_string(f)).ok());
    }
  }
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_EQ(fs_->vlog().config().pieces, 3u);
  common::Rng rng(11);
  for (uint32_t i = 0; i < 4000 && fs_->vlog().PinnedCount() == 0; ++i) {
    const int d = static_cast<int>(rng.Below(3)) * (kDirs - 1) / 2;  // Dirs 0, 34 and 69.
    const std::string path =
        "/d" + std::to_string(d) + "/" + std::to_string(rng.Below(kFilesPerDir));
    ASSERT_TRUE(fs_->Write(path, 0, Pattern(4096, i), fs::WritePolicy::kSync).ok());
  }
  // An unsynced write leaves a dirty inode block for the idle pass to commit.
  ASSERT_TRUE(fs_->Write("/d0/0", 0, Pattern(4096, 1), fs::WritePolicy::kAsync).ok());
  ASSERT_GT(fs_->vlog().PinnedCount(), 0u);
  EXPECT_EQ(fs_->stats().idle_failures, 0u);
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kFailStop, .after_writes = 0});
  fs_->RunIdle(common::Milliseconds(50));
  // The group commit fails, and so does the checkpoint, which commits the same group first.
  EXPECT_EQ(fs_->stats().idle_failures, 2u);
  EXPECT_GT(fs_->vlog().PinnedCount(), 0u) << "a failed checkpoint releases nothing";
}

// Vlfs::Recover treats CRC-valid media as untrusted input. An inode-map entry past the disk, on
// a system block, or aliasing another inode block's block, and an inode's direct or indirect
// pointer or indirect-table entry past the disk or on a system block, each make recovery return
// kCorruption instead of indexing its owner table out of range. Map sectors are planted signed
// with the current epoch, so they pass the CRC; inode and indirect blocks carry no checksum and
// are edited in place.
TEST_F(VlfsTest, RecoverRejectsHostileBlockPointers) {
  constexpr uint32_t kBlock = 4096;
  constexpr uint32_t kBigBlocks = ufs::kDirectPtrs + 2;  // Two entries in the indirect table.
  // Three map pieces reserve a second system block, which an inode pointer can name (block 0
  // doubles as ufs::kNoAddr).
  const VlfsConfig config{.inode_blocks = 312};
  // 40 files plus the root span two inode blocks; /big reaches its indirect block. Every write
  // is synchronous, so all of it is committed; nothing parks, so recovery scans.
  const auto prepare = [&] {
    Reset();
    fs_ = std::make_unique<Vlfs>(disk_.get(), host_.get(), config);
    ASSERT_TRUE(fs_->Format().ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(fs_->Create("/f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(fs_->Create("/big").ok());
    ASSERT_TRUE(
        fs_->Write("/big", 0, Pattern(kBigBlocks * kBlock, 3), fs::WritePolicy::kSync).ok());
    ASSERT_NE(fs_->inode_map()[1], core::kUnmappedBlock);
  };
  const auto reopen = [&] { fs_ = std::make_unique<Vlfs>(disk_.get(), host_.get(), config); };
  const auto expect_corruption = [&](const char* what) {
    reopen();
    const auto info = fs_->Recover();
    ASSERT_FALSE(info.ok()) << what;
    EXPECT_EQ(info.status().code(), common::StatusCode::kCorruption) << what;
  };
  const auto block_lba = [&](uint32_t block) { return fs_->space().BlockToLba(block); };
  // Plants a younger version of map piece 0 with `entry` for inode block 1.
  const auto plant_map = [&](uint32_t entry) {
    const uint32_t last = static_cast<uint32_t>(fs_->space().total_blocks() - 1);
    std::vector<std::byte> existing(kBlock);
    ASSERT_TRUE(disk_->InternalRead(block_lba(last), existing).ok());
    ASSERT_EQ(existing, std::vector<std::byte>(kBlock)) << "plant site must be unwritten";
    core::MapSector s;
    s.seq = fs_->vlog().NextSeq() + 1000;
    s.piece = 0;
    s.entries.assign(fs_->inode_map().begin(), fs_->inode_map().begin() + core::kEntriesPerSector);
    s.entries[1] = entry;
    ASSERT_TRUE(disk_->InternalWrite(block_lba(last), s.Serialize(fs_->vlog().Epoch())).ok());
  };
  const auto edit_big_inode = [&](const std::function<void(ufs::Inode&)>& edit) {
    EditFileInode(kBigBlocks * kBlock, edit);
  };

  prepare();
  const uint32_t total = static_cast<uint32_t>(fs_->space().total_blocks());
  const uint32_t system = static_cast<uint32_t>(fs_->space().system_blocks());
  ASSERT_GE(system, 2u);

  const uint32_t inode_block0 = fs_->inode_map()[0];
  for (const uint32_t entry : {total, total + 100000, 0u, inode_block0}) {
    prepare();
    plant_map(entry);
    expect_corruption(("inode-map entry " + std::to_string(entry)).c_str());
  }
  // An entry naming the planted sector's own block (plant_map writes it at total - 1) is
  // refused when the live map-sector blocks are marked, before that block is read as inodes.
  prepare();
  plant_map(total - 1);
  reopen();
  const auto aliased = fs_->Recover();
  ASSERT_FALSE(aliased.ok());
  EXPECT_EQ(aliased.status().code(), common::StatusCode::kCorruption);
  EXPECT_NE(aliased.status().message().find("map sector"), std::string::npos)
      << aliased.status().ToString();
  for (const uint32_t bad : {total, total + 100000, system - 1}) {
    const std::string which = " = " + std::to_string(bad);
    prepare();
    edit_big_inode([&](ufs::Inode& inode) { inode.direct[1] = bad; });
    expect_corruption(("direct pointer" + which).c_str());
    prepare();
    edit_big_inode([&](ufs::Inode& inode) { inode.indirect = bad; });
    expect_corruption(("indirect pointer" + which).c_str());
    prepare();
    uint32_t indirect = ufs::kNoAddr;
    edit_big_inode([&](ufs::Inode& inode) { indirect = inode.indirect; });
    ASSERT_NE(indirect, ufs::kNoAddr);
    std::vector<std::byte> table(kBlock);
    ASSERT_TRUE(disk_->InternalRead(block_lba(indirect), table).ok());
    common::StoreLe<uint32_t>(table, 4, bad);  // Entry for file block kDirectPtrs + 1.
    ASSERT_TRUE(disk_->InternalWrite(block_lba(indirect), table).ok());
    expect_corruption(("indirect-table entry" + which).c_str());
  }

  // Control: the same younger map sector with inode block 1's own entry recovers, and every
  // file reads back.
  prepare();
  plant_map(fs_->inode_map()[1]);
  reopen();
  const auto info = fs_->Recover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  std::vector<std::byte> out(kBigBlocks * kBlock);
  ASSERT_TRUE(fs_->Read("/big", 0, out).ok());
  EXPECT_EQ(out, Pattern(kBigBlocks * kBlock, 3));
  EXPECT_TRUE(fs_->Stat("/f39").ok());
}

TEST_F(VlfsTest, RecoverRejectsAliasedBlockPointers) {
  constexpr uint32_t kBlock = 4096;
  constexpr uint64_t kBigBytes = (ufs::kDirectPtrs + 2) * kBlock;  // Reaches its indirect block.
  constexpr uint64_t kSmallBytes = 2 * kBlock;
  // Every write is synchronous, so all of it is committed; nothing parks, so recovery scans.
  const auto prepare = [&] {
    Reset();
    ASSERT_TRUE(fs_->Create("/big").ok());
    ASSERT_TRUE(fs_->Write("/big", 0, Pattern(kBigBytes, 3), fs::WritePolicy::kSync).ok());
    ASSERT_TRUE(fs_->Create("/small").ok());
    ASSERT_TRUE(fs_->Write("/small", 0, Pattern(kSmallBytes, 4), fs::WritePolicy::kSync).ok());
  };
  const auto expect_corruption = [&](const char* what) {
    Reopen();
    const auto info = fs_->Recover();
    ASSERT_FALSE(info.ok()) << what;
    EXPECT_EQ(info.status().code(), common::StatusCode::kCorruption) << what;
  };

  // A direct pointer naming a live inode block, then one naming a live map-sector block.
  prepare();
  const uint32_t inode_block = fs_->inode_map()[0];
  ASSERT_NE(inode_block, core::kUnmappedBlock);
  EditFileInode(kBigBytes, [&](ufs::Inode& inode) { inode.direct[1] = inode_block; });
  expect_corruption("direct pointer to an inode block");
  prepare();
  const auto map_block = fs_->vlog().LiveBlockOfPiece(0);
  ASSERT_TRUE(map_block.has_value());
  EditFileInode(kBigBytes, [&](ufs::Inode& inode) { inode.direct[1] = *map_block; });
  expect_corruption("direct pointer to a map-sector block");

  // An indirect-table entry naming /small's first data block.
  prepare();
  uint32_t small_block = ufs::kNoAddr;
  uint32_t indirect = ufs::kNoAddr;
  EditFileInode(kSmallBytes, [&](ufs::Inode& inode) { small_block = inode.direct[0]; });
  EditFileInode(kBigBytes, [&](ufs::Inode& inode) { indirect = inode.indirect; });
  ASSERT_NE(small_block, ufs::kNoAddr);
  ASSERT_NE(indirect, ufs::kNoAddr);
  std::vector<std::byte> table(kBlock);
  const simdisk::Lba table_lba = fs_->space().BlockToLba(indirect);
  ASSERT_TRUE(disk_->InternalRead(table_lba, table).ok());
  common::StoreLe<uint32_t>(table, 4, small_block);  // Entry for file block kDirectPtrs + 1.
  ASSERT_TRUE(disk_->InternalWrite(table_lba, table).ok());
  expect_corruption("indirect entry to another file's block");

  // Control: the same image, unedited, recovers and both files read back.
  prepare();
  Reopen();
  const auto info = fs_->Recover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  std::vector<std::byte> big(kBigBytes);
  std::vector<std::byte> small(kSmallBytes);
  ASSERT_TRUE(fs_->Read("/big", 0, big).ok());
  ASSERT_TRUE(fs_->Read("/small", 0, small).ok());
  EXPECT_EQ(big, Pattern(kBigBytes, 3));
  EXPECT_EQ(small, Pattern(kSmallBytes, 4));
}

TEST_F(VlfsTest, RandomizedWorkloadWithCrashes) {
  common::Rng rng(7777);
  const int kFiles = 12;
  std::vector<std::vector<std::byte>> shadow(kFiles);  // Shadow of committed contents.
  std::vector<std::vector<std::byte>> pending = shadow;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs_->Create("/r" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fs_->Park().ok());
  Reopen();
  ASSERT_TRUE(fs_->Recover().ok());
  shadow.assign(kFiles, {});
  pending = shadow;

  for (int round = 0; round < 12; ++round) {
    const int ops = 5 + static_cast<int>(rng.Below(20));
    for (int op = 0; op < ops; ++op) {
      const int f = static_cast<int>(rng.Below(kFiles));
      const std::string path = "/r" + std::to_string(f);
      const uint64_t max_off = pending[f].size();
      const uint64_t off = rng.Below(max_off + 1);
      const size_t len = 1 + rng.Below(12000);
      const auto data = Pattern(len, round * 100 + op);
      const bool sync = rng.Chance(0.4);
      ASSERT_TRUE(fs_->Write(path, off, data,
                             sync ? fs::WritePolicy::kSync : fs::WritePolicy::kAsync).ok());
      if (pending[f].size() < off + len) {
        pending[f].resize(off + len);
      }
      std::memcpy(pending[f].data() + off, data.data(), len);
      if (sync) {
        shadow = pending;
      }
    }
    if (rng.Chance(0.3)) {
      ASSERT_TRUE(fs_->Sync().ok());
      shadow = pending;
    }
    if (rng.Chance(0.3)) {
      fs_->RunIdle(common::Milliseconds(200));
    }
    const bool clean = rng.Chance(0.5);
    if (clean) {
      ASSERT_TRUE(fs_->Park().ok());
      shadow = pending;  // Park commits the open group.
    }
    Reopen();
    ASSERT_TRUE(fs_->Recover().ok());
    // After recovery, contents must be at least the last committed state. (Async data beyond
    // the last commit may or may not survive is NOT true here: uncommitted groups roll back
    // entirely, so contents equal the shadow exactly.)
    for (int f = 0; f < kFiles; ++f) {
      const std::string path = "/r" + std::to_string(f);
      auto stat = fs_->Stat(path);
      ASSERT_TRUE(stat.ok()) << path;
      ASSERT_EQ(stat->size, shadow[f].size()) << "round " << round << " file " << f;
      std::vector<std::byte> out(shadow[f].size());
      if (!out.empty()) {
        ASSERT_TRUE(fs_->Read(path, 0, out).ok());
        ASSERT_EQ(out, shadow[f]) << "round " << round << " file " << f;
      }
    }
    pending = shadow;
  }
}

}  // namespace
}  // namespace vlog::vlfs
