// A checkpoint serializes each map piece straight from the owner's flat map. These tests pin
// the bytes it lays down to the per-piece reference: for every piece, including the short last
// one, the sector on disk equals MapSector{seq, piece, entries}.Serialize(epoch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/map_sector.h"
#include "src/core/vld.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
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

}  // namespace
}  // namespace vlog::core
