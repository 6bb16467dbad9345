// A checkpoint serializes each map piece straight from the owner's flat map, or restamps the
// previous checkpoint's bytes for a piece whose entries have not changed. These tests pin the
// bytes it lays down to the per-piece reference: for every piece, including the short last one,
// the sector on disk equals MapSector{seq, piece, entries}.Serialize(epoch), whichever way it
// was built.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/map_sector.h"
#include "src/core/vld.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/layout.h"
#include "src/vlfs/vlfs.h"

namespace vlog::core {
namespace {

// Finds the checkpoint slot holding the newest checkpoint and compares its body, piece by
// piece, with the reference serialization of the matching slice of `flat_map`.
void ExpectCheckpointBodyMatches(const simdisk::SimDisk& disk, const VirtualLog& vlog,
                                 std::span<const uint32_t> flat_map) {
  const uint32_t pieces = vlog.config().pieces;
  ASSERT_GT(pieces, 1u);
  ASSERT_NE(flat_map.size() % kEntriesPerSector, 0u) << "the last piece should be short";
  const uint64_t seq = vlog.CheckpointSeq();
  ASSERT_NE(seq, 0u) << "no checkpoint taken";
  std::vector<std::byte> raw(disk.SectorBytes());
  for (uint32_t slot = 0; slot < 2; ++slot) {
    const simdisk::Lba body =
        vlog.config().checkpoint_lba + slot * vlog.CheckpointSlotSectors() + 1;
    disk.PeekMedia(body, raw);
    const auto first = MapSector::Parse(raw, vlog.Epoch());
    if (!first.ok() || first->seq != seq) {
      continue;
    }
    for (uint32_t k = 0; k < pieces; ++k) {
      const size_t begin = static_cast<size_t>(k) * kEntriesPerSector;
      const size_t end = std::min<size_t>(begin + kEntriesPerSector, flat_map.size());
      MapSector expected;
      expected.seq = seq;
      expected.piece = k;
      expected.entries.assign(flat_map.begin() + begin, flat_map.begin() + end);
      disk.PeekMedia(body + k, raw);
      EXPECT_EQ(raw, expected.Serialize(vlog.Epoch())) << "piece " << k;
    }
    return;
  }
  ADD_FAILURE() << "no checkpoint slot holds sequence " << seq;
}

// Takes one checkpoint and checks it: its body matches the per-piece reference, and it
// restamped exactly the pieces whose slice of `flat_map` (read after the checkpoint) equals the
// same slice of `previous`, the map the last checkpoint under the current epoch wrote (empty
// when there is none). Returns how many pieces it restamped; leaves `previous` = `flat_map`.
uint64_t CheckpointAndCheck(const std::function<common::Status()>& checkpoint,
                            const simdisk::SimDisk& disk, const VirtualLog& vlog,
                            const std::vector<uint32_t>& flat_map,
                            std::vector<uint32_t>& previous) {
  const VirtualLogStats before = vlog.stats();
  EXPECT_TRUE(checkpoint().ok());
  const VirtualLogStats delta = vlog.stats() - before;
  EXPECT_EQ(delta.checkpoints, 1u) << "an automatic checkpoint ran in between";
  ExpectCheckpointBodyMatches(disk, vlog, flat_map);
  uint64_t unchanged = 0;
  for (size_t begin = 0; !previous.empty() && begin < flat_map.size();
       begin += kEntriesPerSector) {
    const size_t end = std::min<size_t>(begin + kEntriesPerSector, flat_map.size());
    unchanged += std::equal(flat_map.begin() + begin, flat_map.begin() + end,
                            previous.begin() + begin)
                     ? 1
                     : 0;
  }
  EXPECT_EQ(delta.checkpoint_pieces_reused, unchanged);
  previous = flat_map;
  return delta.checkpoint_pieces_reused;
}

TEST(CheckpointBytes, VldFlatMapMatchesPerPieceSerialization) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock);
  Vld vld(&disk, VldConfig{});
  ASSERT_TRUE(vld.Format().ok());
  const uint32_t blocks = vld.logical_blocks();
  const std::vector<std::byte> data(4096, std::byte{0x5a});
  // Map blocks in every piece, the last logical block (in the short last piece) included.
  for (uint32_t b = 0; b < blocks; b += 37) {
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, data).ok());
  }
  ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(blocks - 1) * 8, data).ok());
  ASSERT_TRUE(vld.Checkpoint().ok());
  ExpectCheckpointBodyMatches(disk, vld.vlog(), vld.logical_map());
  // A second checkpoint goes to the other slot.
  for (uint32_t b = 5; b < blocks; b += 53) {
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, data).ok());
  }
  ASSERT_TRUE(vld.Checkpoint().ok());
  ExpectCheckpointBodyMatches(disk, vld.vlog(), vld.logical_map());
}

TEST(CheckpointBytes, VlfsFlatMapMatchesPerPieceSerialization) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::SeagateSt19101(), 4), &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  vlfs::VlfsConfig config;
  config.inode_blocks = 250;  // Three pieces, the last holding 42 entries.
  vlfs::Vlfs fs(&disk, &host, config);
  ASSERT_TRUE(fs.Format().ok());
  const std::vector<std::byte> data(3000, std::byte{0x3c});
  for (int i = 0; i < 80; ++i) {
    const std::string path = "/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.Write(path, 0, data, fs::WritePolicy::kSync).ok());
  }
  ASSERT_TRUE(fs.Checkpoint().ok());
  ExpectCheckpointBodyMatches(disk, fs.vlog(), fs.inode_map());
}

// Consecutive checkpoints on one Vld: the first (nothing to reuse), then none, some and all
// pieces changed, one after Recover (the memo outlives the rebuilt log state) and one after a
// re-Format (a new epoch: pieces whose entries still match must be serialized afresh).
TEST(CheckpointBytes, VldReusesExactlyTheUnchangedPieces) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock);
  Vld vld(&disk, VldConfig{});
  ASSERT_TRUE(vld.Format().ok());
  const uint32_t blocks = vld.logical_blocks();
  const uint64_t pieces = vld.vlog().config().pieces;
  ASSERT_GE(pieces, 4u);
  const std::vector<std::byte> data(4096, std::byte{0x5a});
  const auto write_in_piece = [&](uint64_t piece, uint32_t offset) {
    const uint32_t block = std::min<uint32_t>(
        static_cast<uint32_t>(piece * kEntriesPerSector) + offset, blocks - 1);
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(block) * 8, data).ok());
  };
  const auto checkpoint = [&] { return vld.Checkpoint(); };
  const auto check = [&](std::vector<uint32_t>& previous) {
    return CheckpointAndCheck(checkpoint, disk, vld.vlog(), vld.logical_map(), previous);
  };
  std::vector<uint32_t> previous;

  write_in_piece(0, 3);
  write_in_piece(2, 9);
  EXPECT_EQ(check(previous), 0u) << "first checkpoint";
  EXPECT_EQ(check(previous), pieces) << "nothing changed";
  write_in_piece(2, 10);
  EXPECT_EQ(check(previous), pieces - 1) << "one piece changed";

  ASSERT_TRUE(vld.Park().ok());
  ASSERT_TRUE(vld.Recover().ok());
  EXPECT_EQ(check(previous), pieces) << "after Recover";
  write_in_piece(0, 4);
  EXPECT_EQ(check(previous), pieces - 1) << "after Recover, one piece changed";

  // Every piece but 0 and 2 is still all-unmapped, in the memo and after the re-Format alike.
  const uint64_t epoch = vld.vlog().Epoch();
  ASSERT_TRUE(vld.Format().ok());
  ASSERT_GT(vld.vlog().Epoch(), epoch);
  previous.clear();
  EXPECT_EQ(check(previous), 0u) << "after re-Format";
  for (uint64_t k = 0; k < pieces; ++k) {
    write_in_piece(k, 1);
  }
  EXPECT_EQ(check(previous), 0u) << "every piece changed";
  EXPECT_EQ(check(previous), pieces) << "nothing changed";
}

// The same sequence on VLFS, whose map is the inode map: two pieces, the last holding 6 inode
// blocks, and files spread over both (32 inodes per inode block, allocated lowest first).
TEST(CheckpointBytes, VlfsReusesExactlyTheUnchangedPieces) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::SeagateSt19101(), 4), &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  vlfs::VlfsConfig config;
  config.inode_blocks = kEntriesPerSector + 6;
  vlfs::Vlfs fs(&disk, &host, config);
  ASSERT_TRUE(fs.Format().ok());
  const std::vector<std::byte> data(100, std::byte{0x3c});
  const auto path = [](int i) { return "/f" + std::to_string(i); };
  // Inode 0 is the root directory; file i gets inode i + 1. The last file's inode lands in the
  // second piece.
  const int files = static_cast<int>(kEntriesPerSector * ufs::kInodesPerBlock);
  const auto touch = [&](int i) {
    ASSERT_TRUE(fs.Write(path(i), 0, data, fs::WritePolicy::kSync).ok());
  };
  const auto checkpoint = [&] { return fs.Checkpoint(); };
  const auto check = [&](std::vector<uint32_t>& previous) {
    return CheckpointAndCheck(checkpoint, disk, fs.vlog(), fs.inode_map(), previous);
  };
  std::vector<uint32_t> previous;

  for (int i = 0; i < files; ++i) {
    ASSERT_TRUE(fs.Create(path(i)).ok()) << i;
  }
  ASSERT_TRUE(fs.Sync().ok());
  EXPECT_EQ(check(previous), 0u) << "first checkpoint";
  EXPECT_EQ(check(previous), 2u) << "nothing changed";
  touch(files - 1);
  EXPECT_EQ(check(previous), 1u) << "the second piece changed";
  touch(0);
  touch(files - 1);
  EXPECT_EQ(check(previous), 0u) << "both pieces changed";

  ASSERT_TRUE(fs.Park().ok());
  ASSERT_TRUE(fs.Recover().ok());
  EXPECT_EQ(check(previous), 2u) << "after Recover";
  touch(5);
  EXPECT_EQ(check(previous), 1u) << "after Recover, the first piece changed";

  ASSERT_TRUE(fs.Format().ok());
  previous.clear();
  EXPECT_EQ(check(previous), 0u) << "after re-Format";
  EXPECT_EQ(check(previous), 2u) << "nothing changed";
}

}  // namespace
}  // namespace vlog::core
