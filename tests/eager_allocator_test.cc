#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/eager_allocator.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

class EagerAllocatorTest : public ::testing::Test {
 protected:
  EagerAllocatorTest()
      : disk_(simdisk::Truncated(simdisk::Hp97560(), 8), &clock_),
        space_(disk_.geometry(), 8) {}

  EagerAllocator MakeGreedy() {
    return EagerAllocator(&disk_, &space_, AllocatorConfig{.fill_to_threshold = false});
  }
  EagerAllocator MakeFill(double threshold = 0.25) {
    return EagerAllocator(&disk_, &space_,
                          AllocatorConfig{.fill_to_threshold = true,
                                          .track_switch_threshold = threshold});
  }

  // Writes one block at the allocated location, as the VLD would.
  void WriteTo(uint32_t block) {
    std::vector<std::byte> data(8 * 512);
    ASSERT_TRUE(disk_.InternalWrite(space_.BlockToLba(block), data).ok());
  }

  common::Clock clock_;
  simdisk::SimDisk disk_;
  FreeSpaceMap space_;
};

TEST_F(EagerAllocatorTest, AllocatesFreeBlocksAndMarksThem) {
  EagerAllocator alloc = MakeGreedy();
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(space_.state(*block), BlockState::kLive);
  EXPECT_EQ(alloc.stats().allocations, 1u);
}

TEST_F(EagerAllocatorTest, PrefersCurrentTrack) {
  EagerAllocator alloc = MakeGreedy();
  // Arm starts at cylinder 0 head 0 with everything free: allocation stays on track 0.
  for (int i = 0; i < static_cast<int>(space_.blocks_per_track()); ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(space_.TrackOfBlock(*block), 0u) << i;
    WriteTo(*block);
  }
  EXPECT_EQ(alloc.stats().same_track, space_.blocks_per_track());
}

TEST_F(EagerAllocatorTest, SwitchesHeadWhenTrackFull) {
  EagerAllocator alloc = MakeGreedy();
  for (uint32_t i = 0; i < space_.blocks_per_track(); ++i) {
    WriteTo(*alloc.Allocate());
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  // Still cylinder 0, different surface.
  const auto phys = disk_.geometry().ToPhys(space_.BlockToLba(*block));
  EXPECT_EQ(phys.cylinder, 0u);
  EXPECT_NE(phys.head, 0u);
  EXPECT_GE(alloc.stats().same_cylinder, 1u);
}

TEST_F(EagerAllocatorTest, SeeksWhenCylinderFull) {
  EagerAllocator alloc = MakeGreedy();
  const uint64_t per_cyl = space_.blocks_per_track() * disk_.geometry().tracks_per_cylinder;
  for (uint64_t i = 0; i < per_cyl; ++i) {
    WriteTo(*alloc.Allocate());
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_GT(space_.TrackOfBlock(*block), disk_.geometry().tracks_per_cylinder - 1);
  EXPECT_GE(alloc.stats().cylinder_seeks, 1u);
}

TEST_F(EagerAllocatorTest, ReturnsNulloptWhenFull) {
  EagerAllocator alloc = MakeGreedy();
  while (space_.free_blocks() > 0) {
    ASSERT_TRUE(alloc.Allocate().has_value());
  }
  EXPECT_FALSE(alloc.Allocate().has_value());
}

TEST_F(EagerAllocatorTest, NeverReturnsOccupiedBlock) {
  EagerAllocator alloc = MakeGreedy();
  std::vector<bool> seen(space_.total_blocks(), false);
  while (space_.free_blocks() > 0) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_FALSE(seen[*block]);
    seen[*block] = true;
  }
}

TEST_F(EagerAllocatorTest, RespectsExcludedTrack) {
  EagerAllocator alloc = MakeGreedy();
  alloc.SetExcludedTrack(0);
  for (int i = 0; i < 20; ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_NE(space_.TrackOfBlock(*block), 0u);
  }
}

TEST_F(EagerAllocatorTest, FillModeReservesThresholdPerTrack) {
  EagerAllocator alloc = MakeFill(0.25);  // Reserve 25% of 9 blocks -> 2 blocks stay free.
  std::vector<uint32_t> track_fill(space_.total_tracks(), 0);
  for (int i = 0; i < 40; ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    ++track_fill[space_.TrackOfBlock(*block)];
    WriteTo(*block);
  }
  for (uint64_t t = 0; t < space_.total_tracks(); ++t) {
    EXPECT_LE(track_fill[t], space_.blocks_per_track() - 2) << "track " << t;
  }
  EXPECT_GE(alloc.stats().fill_track_switches, 40u / (space_.blocks_per_track() - 2));
}

TEST_F(EagerAllocatorTest, FillModeFallsBackToGreedyWithoutEmptyTracks) {
  EagerAllocator alloc = MakeFill(0.25);
  // Occupy one block in every track so no track is empty.
  for (uint64_t t = 0; t < space_.total_tracks(); ++t) {
    space_.MarkLive(static_cast<uint32_t>(t * space_.blocks_per_track()));
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_GE(alloc.stats().greedy_fallbacks, 1u);
}

TEST_F(EagerAllocatorTest, NotedEmptyTracksAreUsedFirst) {
  EagerAllocator alloc = MakeFill(0.25);
  alloc.NoteEmptyTrack(5);
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(space_.TrackOfBlock(*block), 5u);
}

// A test-local copy of the allocator as it was before the free-slot masks: every track probe
// recomputes the head position and walks the track slot by slot through state(). The
// differential below holds the indexed picks to it.
class ScanAllocator {
 public:
  ScanAllocator(simdisk::SimDisk* disk, FreeSpaceMap* space, AllocatorConfig config)
      : disk_(disk), space_(space), config_(config) {}

  std::optional<uint32_t> Allocate() {
    auto cand = compaction_mode_            ? HolePlugPick()
                : config_.fill_to_threshold ? FillPick()
                                            : GreedyPick();
    if (!cand && !compaction_mode_ && excluded_track_.has_value()) {
      const auto saved = excluded_track_;
      excluded_track_.reset();
      cand = config_.fill_to_threshold ? FillPick() : GreedyPick();
      excluded_track_ = saved;
    }
    if (!cand) {
      return std::nullopt;
    }
    space_->MarkLive(cand->block);
    ++stats_.allocations;
    stats_.estimated_locate += cand->cost;
    return cand->block;
  }
  void NoteEmptyTrack(uint64_t track) { empty_tracks_.push_back(track); }
  void SetExcludedTrack(std::optional<uint64_t> track) { excluded_track_ = track; }
  void SetCompactionMode(bool on) { compaction_mode_ = on; }
  void set_fill_to_threshold(bool on) { config_.fill_to_threshold = on; }
  const AllocatorStats& stats() const { return stats_; }

 private:
  struct Candidate {
    uint32_t block = 0;
    common::Duration cost = 0;
  };

  std::optional<uint32_t> NearestFreeByScan(uint64_t track, uint32_t from_sector,
                                            uint32_t* skip_sectors) const {
    const uint32_t bs = space_->block_sectors();
    const uint32_t bpt = space_->blocks_per_track();
    const uint32_t spt = bpt * bs;
    const uint32_t base = static_cast<uint32_t>(track * bpt);
    const uint32_t first = (from_sector + bs - 1) / bs;
    for (uint32_t i = 0; i < bpt; ++i) {
      const uint32_t slot = (first + i) % bpt;
      if (space_->state(base + slot) == BlockState::kFree) {
        *skip_sectors = (slot * bs + spt - from_sector) % spt;
        return base + slot;
      }
    }
    return std::nullopt;
  }

  std::optional<Candidate> BestInTrack(uint64_t track, common::Duration arm_move) const {
    if (excluded_track_ && *excluded_track_ == track) {
      return std::nullopt;
    }
    const uint32_t from = disk_->SectorUnderHead(disk_->clock()->Now() + arm_move);
    uint32_t skip = 0;
    const auto block = NearestFreeByScan(track, from, &skip);
    if (!block) {
      return std::nullopt;
    }
    return Candidate{*block, arm_move + disk_->params().SectorTime() * skip};
  }

  std::optional<Candidate> GreedyPick() {
    const auto& geom = disk_->geometry();
    const simdisk::PhysAddr arm = disk_->ArmPosition();
    const uint64_t current_track =
        static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder + arm.head;
    std::optional<Candidate> best = BestInTrack(current_track, 0);
    if (best) {
      ++stats_.same_track;
    }
    const uint64_t cyl_base = static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder;
    bool beaten_by_cylinder = false;
    for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
      if (h == arm.head) {
        continue;
      }
      const auto cand = BestInTrack(cyl_base + h, disk_->params().head_switch);
      if (cand && (!best || cand->cost < best->cost)) {
        if (best && !beaten_by_cylinder) {
          --stats_.same_track;
        }
        beaten_by_cylinder = true;
        best = cand;
      }
    }
    if (beaten_by_cylinder) {
      ++stats_.same_cylinder;
    }
    if (best) {
      return best;
    }
    for (uint32_t d = 1; d <= geom.cylinders; ++d) {
      const uint32_t cyl = (arm.cylinder + d) % geom.cylinders;
      const uint64_t base = static_cast<uint64_t>(cyl) * geom.tracks_per_cylinder;
      const uint32_t dist = cyl >= arm.cylinder ? cyl - arm.cylinder : arm.cylinder - cyl;
      const common::Duration seek = disk_->params().seek.SeekTime(dist);
      std::optional<Candidate> cyl_best;
      for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
        const common::Duration move =
            std::max(seek, h != arm.head ? disk_->params().head_switch : common::Duration{0});
        const auto cand = BestInTrack(base + h, move);
        if (cand && (!cyl_best || cand->cost < cyl_best->cost)) {
          cyl_best = cand;
        }
      }
      if (cyl_best) {
        ++stats_.cylinder_seeks;
        return cyl_best;
      }
    }
    return std::nullopt;
  }

  std::optional<uint64_t> NextEmptyTrack() {
    while (!empty_tracks_.empty()) {
      const uint64_t t = empty_tracks_.front();
      empty_tracks_.pop_front();
      if (space_->TrackEmpty(t) && !(excluded_track_ && *excluded_track_ == t)) {
        return t;
      }
    }
    const uint64_t tracks = space_->total_tracks();
    for (uint64_t i = 0; i < tracks; ++i) {
      const uint64_t t = (scan_cursor_ + i) % tracks;
      if (space_->TrackEmpty(t) && !(excluded_track_ && *excluded_track_ == t)) {
        scan_cursor_ = (t + 1) % tracks;
        return t;
      }
    }
    return std::nullopt;
  }

  std::optional<Candidate> FillPick() {
    const auto reserved = static_cast<uint32_t>(
        std::floor(config_.track_switch_threshold * space_->blocks_per_track()));
    if (fill_track_ && (space_->FreeInTrack(*fill_track_) <= reserved ||
                        (excluded_track_ && *excluded_track_ == *fill_track_))) {
      fill_track_.reset();
    }
    if (!fill_track_) {
      fill_track_ = NextEmptyTrack();
      if (fill_track_) {
        ++stats_.fill_track_switches;
      }
    }
    if (!fill_track_) {
      ++stats_.greedy_fallbacks;
      return GreedyPick();
    }
    const common::Duration move = disk_->ArmMoveCost(space_->BlockToLba(
        static_cast<uint32_t>(*fill_track_ * space_->blocks_per_track())));
    auto cand = BestInTrack(*fill_track_, move);
    if (!cand) {
      fill_track_.reset();
      ++stats_.greedy_fallbacks;
      return GreedyPick();
    }
    return cand;
  }

  std::optional<Candidate> HolePlugPick() {
    // The fullest track with holes, by a plain scan over every track.
    std::optional<uint64_t> track;
    for (uint64_t t = 0; t < space_->total_tracks(); ++t) {
      if (excluded_track_ && *excluded_track_ == t) {
        continue;
      }
      if (space_->LiveInTrack(t) > 0 && space_->FreeInTrack(t) > 0 &&
          (!track || space_->LiveInTrack(t) > space_->LiveInTrack(*track))) {
        track = t;
      }
    }
    if (!track) {
      return GreedyPick();
    }
    const common::Duration move = disk_->ArmMoveCost(space_->BlockToLba(
        static_cast<uint32_t>(*track * space_->blocks_per_track())));
    if (auto cand = BestInTrack(*track, move)) {
      return cand;
    }
    return GreedyPick();
  }

  simdisk::SimDisk* disk_;
  FreeSpaceMap* space_;
  AllocatorConfig config_;
  AllocatorStats stats_;
  std::deque<uint64_t> empty_tracks_;
  std::optional<uint64_t> fill_track_;
  std::optional<uint64_t> excluded_track_;
  bool compaction_mode_ = false;
  uint64_t scan_cursor_ = 0;
};

// Every block's free-slot bits agree with its state: probing the block's own start sector,
// through its track and through its cylinder with only its head allowed, finds the block at
// zero skip exactly when it is free.
void ExpectSlotBitsMatchStates(const FreeSpaceMap& space) {
  const uint32_t bpt = space.blocks_per_track();
  const uint32_t heads = space.tracks_per_cylinder();
  for (uint32_t block = 0; block < space.total_blocks(); ++block) {
    const uint64_t track = space.TrackOfBlock(block);
    const uint32_t from = (block % bpt) * space.block_sectors();
    const bool free = space.state(block) == BlockState::kFree;
    uint32_t skip = 1;
    const auto in_track = space.NearestFreeInTrack(track, from, &skip);
    ASSERT_EQ(in_track.has_value() && *in_track == block && skip == 0, free) << "block " << block;
    skip = 1;
    const auto in_cyl = space.NearestFreeInCylinder(static_cast<uint32_t>(track / heads),
                                                    uint64_t{1} << (track % heads), from, &skip);
    ASSERT_EQ(in_cyl.has_value() && *in_cyl == block && skip == 0, free) << "block " << block;
  }
}

// Seeded differential over one disk: random MarkLive / MarkSystem / Free traffic, excluded
// tracks (often in the arm's cylinder), noted empty tracks, greedy, fill and hole-plug modes,
// arm moves and clock advances. Each allocation must match the scan reference's block, and the
// stats (including the summed cost estimate) must agree after every step.
void RunPickDifferential(const simdisk::DiskParams& params, uint32_t block_sectors,
                         uint64_t seed, int ops) {
  common::Clock clock;
  simdisk::SimDisk disk(params, &clock);
  FreeSpaceMap space(disk.geometry(), block_sectors);
  FreeSpaceMap ref_space(disk.geometry(), block_sectors);
  EagerAllocator alloc(&disk, &space, AllocatorConfig{});
  ScanAllocator ref(&disk, &ref_space, AllocatorConfig{});
  common::Rng rng(seed);
  const auto blocks = static_cast<uint32_t>(space.total_blocks());
  const uint32_t heads = space.tracks_per_cylinder();
  std::vector<uint32_t> live;
  std::vector<std::byte> sector(disk.SectorBytes());
  const auto mark_both = [&](uint32_t block, bool system) {
    if (system) {
      space.MarkSystem(block);
      ref_space.MarkSystem(block);
    } else {
      space.MarkLive(block);
      ref_space.MarkLive(block);
      live.push_back(block);
    }
  };
  // Phases long enough to take the disk from drained to nearly full and back.
  const int phase = static_cast<int>(blocks + blocks / 2);
  for (int op = 0; op < ops; ++op) {
    // Alternate filling towards a full disk and draining, so packed cylinders force seeks and
    // fragmented ones exercise the rotational pick.
    const bool filling = (op / phase) % 2 == 0;
    const double used = 1.0 - static_cast<double>(space.free_blocks()) / blocks;
    const double r = rng.NextDouble();
    if (r < 0.01) {
      if (const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
          space.state(b) == BlockState::kFree && space.system_blocks() < blocks / 50) {
        mark_both(b, /*system=*/true);
      }
    } else if (r < 0.15) {
      if (const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
          space.state(b) == BlockState::kFree) {
        mark_both(b, /*system=*/false);
      }
    } else if (r < (filling ? 0.9 : 0.4) && used < (filling ? 0.995 : 0.6)) {
      const bool fill = rng.Chance(0.3);
      const bool compaction = rng.Chance(0.15);
      alloc.set_fill_to_threshold(fill);
      ref.set_fill_to_threshold(fill);
      alloc.SetCompactionMode(compaction);
      ref.SetCompactionMode(compaction);
      std::optional<uint64_t> excluded;
      if (rng.Chance(0.4)) {
        const simdisk::PhysAddr arm = disk.ArmPosition();
        excluded = rng.Chance(0.7)
                       ? static_cast<uint64_t>(arm.cylinder) * heads + rng.Below(heads)
                       : rng.Below(space.total_tracks());
      }
      alloc.SetExcludedTrack(excluded);
      ref.SetExcludedTrack(excluded);
      if (rng.Chance(0.05)) {
        const uint64_t t = rng.Below(space.total_tracks());
        alloc.NoteEmptyTrack(t);
        ref.NoteEmptyTrack(t);
      }
      const auto got = alloc.Allocate();
      const auto want = ref.Allocate();
      ASSERT_EQ(got, want) << "op " << op;
      if (got) {
        live.push_back(*got);
      }
    } else if (!live.empty()) {
      const size_t victim = rng.Below(live.size());
      space.Free(live[victim]);
      ref_space.Free(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    const AllocatorStats& a = alloc.stats();
    const AllocatorStats& b = ref.stats();
    ASSERT_EQ(a.allocations, b.allocations) << "op " << op;
    ASSERT_EQ(a.same_track, b.same_track) << "op " << op;
    ASSERT_EQ(a.same_cylinder, b.same_cylinder) << "op " << op;
    ASSERT_EQ(a.cylinder_seeks, b.cylinder_seeks) << "op " << op;
    ASSERT_EQ(a.fill_track_switches, b.fill_track_switches) << "op " << op;
    ASSERT_EQ(a.greedy_fallbacks, b.greedy_fallbacks) << "op " << op;
    ASSERT_EQ(a.estimated_locate, b.estimated_locate) << "op " << op;
    // Move the arm (a one-sector read anywhere) and let the platter turn.
    if (rng.Chance(0.3)) {
      ASSERT_TRUE(disk.InternalRead(rng.Below(disk.SectorCount()), sector).ok());
    }
    clock.Advance(static_cast<common::Duration>(rng.Below(params.RotationPeriod())));
    if (op % 1000 == 999) {
      ExpectSlotBitsMatchStates(space);
    }
  }
  const AllocatorStats& s = alloc.stats();
  EXPECT_GT(s.same_track, 0u);
  EXPECT_GT(s.same_cylinder, 0u);
  EXPECT_GT(s.cylinder_seeks, 0u);
  EXPECT_GT(s.greedy_fallbacks, 0u);
  ExpectSlotBitsMatchStates(space);
}

TEST(AllocatorPick, MatchesPerTrackScanHp97560) {
  // 9 blocks per track, 19 heads.
  RunPickDifferential(simdisk::Truncated(simdisk::Hp97560(), 12), 8, 20261019, 12000);
}

TEST(AllocatorPick, MatchesPerTrackScanMultiWordTracks) {
  // One-sector blocks on the ST19101: 256 blocks per track, four mask words each.
  RunPickDifferential(simdisk::Truncated(simdisk::SeagateSt19101(), 2), 1, 7, 50000);
}

TEST(AllocatorPick, MatchesPerTrackScanWhenHeadSwitchOutlastsShortSeeks) {
  // A head switch slower than every seek under 20 cylinders: at those targets the arm's own
  // head pays only the seek while the others pay the switch.
  simdisk::DiskParams params = simdisk::Truncated(simdisk::Hp97560(), 24);
  params.head_switch = common::Milliseconds(5.0);
  ASSERT_GT(params.head_switch, params.seek.SeekTime(1));
  RunPickDifferential(params, 8, 99, 12000);
}

TEST(AllocatorPick, MatchesPerTrackScanWhenMovesAreWholeSectors) {
  // Seeks and head switches of whole sector times let candidates on different tracks tie
  // exactly, so the tie-breaks decide picks: the current track over a head switch, the lower
  // head within a cylinder, and the arm's own head against the others after a seek.
  simdisk::DiskParams params = simdisk::Truncated(simdisk::Hp97560(), 12);
  const common::Duration sector = params.SectorTime();
  const double seek_ms = (9.0 * static_cast<double>(sector) + 0.5) / 1e6;
  params.seek = simdisk::SeekCurve{.short_a_ms = seek_ms, .short_b_ms = 0, .long_c_ms = seek_ms,
                                   .long_e_ms = 0, .boundary_cylinders = 1};
  params.head_switch = 12 * sector;
  ASSERT_EQ(params.seek.SeekTime(1), 9 * sector);
  RunPickDifferential(params, 8, 5, 12000);
}

TEST_F(EagerAllocatorTest, EstimateReflectsRotationalProximity) {
  EagerAllocator alloc = MakeGreedy();
  // Consecutive allocations on an empty track should have sub-rotation estimated cost.
  WriteTo(*alloc.Allocate());
  const auto before = alloc.stats().estimated_locate;
  WriteTo(*alloc.Allocate());
  const auto delta = alloc.stats().estimated_locate - before;
  EXPECT_LT(delta, disk_.params().RotationPeriod());
}

}  // namespace
}  // namespace vlog::core
