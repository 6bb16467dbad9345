#include <gtest/gtest.h>

#include "src/core/free_space.h"
#include "src/simdisk/disk_params.h"

namespace vlog::core {
namespace {

simdisk::DiskGeometry SmallGeom() {
  // 4 cylinders x 2 tracks x 32 sectors; 4 blocks of 8 sectors per track.
  return simdisk::DiskGeometry{.cylinders = 4, .tracks_per_cylinder = 2, .sectors_per_track = 32,
                               .sector_bytes = 512};
}

TEST(FreeSpace, InitialStateAllFree) {
  FreeSpaceMap space(SmallGeom(), 8);
  EXPECT_EQ(space.blocks_per_track(), 4u);
  EXPECT_EQ(space.total_blocks(), 32u);
  EXPECT_EQ(space.free_blocks(), 32u);
  EXPECT_EQ(space.live_blocks(), 0u);
  EXPECT_TRUE(space.TrackEmpty(0));
  EXPECT_DOUBLE_EQ(space.Utilization(), 0.0);
}

TEST(FreeSpace, LbaBlockConversions) {
  FreeSpaceMap space(SmallGeom(), 8);
  EXPECT_EQ(space.BlockToLba(5), 40u);
  EXPECT_EQ(space.LbaToBlock(47), 5u);
  EXPECT_EQ(space.TrackOfBlock(5), 1u);
}

TEST(FreeSpace, MarkAndFreeUpdateCounters) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(3);
  EXPECT_EQ(space.state(3), BlockState::kLive);
  EXPECT_EQ(space.FreeInTrack(0), 3u);
  EXPECT_EQ(space.LiveInTrack(0), 1u);
  EXPECT_FALSE(space.TrackEmpty(0));
  space.Free(3);
  EXPECT_EQ(space.state(3), BlockState::kFree);
  EXPECT_TRUE(space.TrackEmpty(0));
}

TEST(FreeSpace, SystemBlocksExcludedFromUtilization) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkSystem(0);
  EXPECT_TRUE(space.TrackHasSystem(0));
  EXPECT_FALSE(space.TrackEmpty(0));
  // 31 usable blocks; one live = 1/31.
  space.MarkLive(1);
  EXPECT_NEAR(space.Utilization(), 1.0 / 31.0, 1e-12);
}

TEST(FreeSpace, NearestFreeScansCircularly) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(0);
  space.MarkLive(1);
  uint32_t skip = 0;
  // From sector 0: blocks 0,1 occupied; block 2 (sector 16) is nearest.
  auto block = space.NearestFreeInTrack(0, 0, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 2u);
  EXPECT_EQ(skip, 16u);
  // From sector 30 (inside block 3): block 3's start already passed; wraps to... block 3 starts
  // at 24, from 30 the next aligned start is block 0 (occupied), 1 (occupied), 2.
  block = space.NearestFreeInTrack(0, 30, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 2u);
  EXPECT_EQ(skip, (16 + 32 - 30) % 32u);
}

TEST(FreeSpace, NearestFreeExactBoundary) {
  FreeSpaceMap space(SmallGeom(), 8);
  uint32_t skip = 9;
  auto block = space.NearestFreeInTrack(0, 8, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 1u);  // Sector 8 is exactly block 1's start.
  EXPECT_EQ(skip, 0u);
}

TEST(FreeSpace, NearestFreeFullTrack) {
  FreeSpaceMap space(SmallGeom(), 8);
  for (uint32_t b = 0; b < 4; ++b) {
    space.MarkLive(b);
  }
  EXPECT_FALSE(space.NearestFreeInTrack(0, 0, nullptr).has_value());
  // Other tracks unaffected.
  EXPECT_TRUE(space.NearestFreeInTrack(1, 0, nullptr).has_value());
}

TEST(FreeSpace, SecondTrackIndexing) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(4);  // First block of track 1.
  EXPECT_EQ(space.LiveInTrack(1), 1u);
  EXPECT_EQ(space.LiveInTrack(0), 0u);
  uint32_t skip = 0;
  auto block = space.NearestFreeInTrack(1, 0, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 5u);
  EXPECT_EQ(skip, 8u);
}

TEST(FreeSpace, NearestFreeInCylinderTakesLowestHeadAtNearestSlot) {
  // Cylinder 1 holds tracks 2 (head 0) and 3 (head 1), blocks 8-11 and 12-15.
  FreeSpaceMap space(SmallGeom(), 8);
  EXPECT_EQ(space.AllHeads(), 0b11u);
  space.MarkLive(9);   // Head 0, slot 1.
  space.MarkLive(10);  // Head 0, slot 2.
  uint32_t skip = 0;
  // From sector 8 (slot 1): head 0's slot 1 is taken, head 1's is free.
  auto block = space.NearestFreeInCylinder(1, space.AllHeads(), 8, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 13u);
  EXPECT_EQ(skip, 0u);
  // Slot 3 is free on both heads: the lower head wins.
  block = space.NearestFreeInCylinder(1, space.AllHeads(), 20, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 11u);
  EXPECT_EQ(skip, 4u);
  // Head 0 alone from slot 1: slots 1 and 2 taken, slot 3 next.
  block = space.NearestFreeInCylinder(1, 0b01, 8, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 11u);
  EXPECT_EQ(skip, 16u);
  // No heads allowed, or a packed cylinder: nothing.
  EXPECT_FALSE(space.NearestFreeInCylinder(1, 0, 0, nullptr).has_value());
  for (uint32_t b = 0; b < 8; ++b) {
    space.MarkLive(b);
  }
  EXPECT_FALSE(space.NearestFreeInCylinder(0, space.AllHeads(), 0, nullptr).has_value());
  space.Free(6);  // Head 1, slot 2: found from slot 3 by wrapping around.
  block = space.NearestFreeInCylinder(0, space.AllHeads(), 24, &skip);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 6u);
  EXPECT_EQ(skip, 24u);
}

}  // namespace
}  // namespace vlog::core
