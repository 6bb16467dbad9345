#include "src/core/free_space.h"

#include <bit>
#include <cassert>

namespace vlog::core {

FreeSpaceMap::FreeSpaceMap(const simdisk::DiskGeometry& geometry, uint32_t block_sectors)
    : block_sectors_(block_sectors),
      blocks_per_track_(geometry.sectors_per_track / block_sectors),
      sectors_per_track_(geometry.sectors_per_track),
      tracks_per_cylinder_(geometry.tracks_per_cylinder) {
  assert(geometry.sectors_per_track % block_sectors == 0 &&
         "physical block size must divide the track");
  assert(tracks_per_cylinder_ <= 64 && "slot_heads_ holds one bit per head");
  const uint64_t tracks = geometry.TotalTracks();
  states_.assign(tracks * blocks_per_track_, BlockState::kFree);
  cyl_free_.assign(geometry.cylinders, tracks_per_cylinder_ * blocks_per_track_);
  track_free_.assign(tracks, blocks_per_track_);
  track_live_.assign(tracks, 0);
  track_system_.assign(tracks, 0);
  free_blocks_ = states_.size();
  empty_tracks_ = tracks;
  index_words_ = (tracks + 63) / 64;
  hole_index_.assign(static_cast<size_t>(blocks_per_track_) * index_words_, 0);
  hole_level_size_.assign(blocks_per_track_, 0);
  occupied_.assign(index_words_, 0);
  // Everything starts free: whole-word fills, since crash-sweep recovery builds one map per
  // point.
  track_words_ = (blocks_per_track_ + 63) / 64;
  free_slots_.assign(tracks * track_words_, ~uint64_t{0});
  if (const uint32_t tail = blocks_per_track_ % 64; tail != 0) {
    for (uint64_t t = 1; t <= tracks; ++t) {
      free_slots_[t * track_words_ - 1] = (uint64_t{1} << tail) - 1;
    }
  }
  slot_heads_.assign(static_cast<size_t>(geometry.cylinders) * blocks_per_track_, AllHeads());
}

uint64_t FreeSpaceMap::AllHeads() const {
  return tracks_per_cylinder_ == 64 ? ~uint64_t{0} : (uint64_t{1} << tracks_per_cylinder_) - 1;
}

void FreeSpaceMap::SetFreeBit(uint32_t block, bool free) {
  const uint64_t track = TrackOfBlock(block);
  const uint32_t slot = static_cast<uint32_t>(block - track * blocks_per_track_);
  uint64_t& word = free_slots_[track * track_words_ + slot / 64];
  uint64_t& heads = slot_heads_[CylinderOfTrack(track) * blocks_per_track_ + slot];
  const uint64_t slot_bit = uint64_t{1} << (slot % 64);
  const uint64_t head_bit = uint64_t{1} << (track % tracks_per_cylinder_);
  if (free) {
    word |= slot_bit;
    heads |= head_bit;
  } else {
    word &= ~slot_bit;
    heads &= ~head_bit;
  }
}

void FreeSpaceMap::SetOccupied(uint64_t track, bool occupied) {
  const uint64_t bit = uint64_t{1} << (track % 64);
  if (occupied) {
    occupied_[track / 64] |= bit;
    ++occupied_tracks_;
  } else {
    occupied_[track / 64] &= ~bit;
    --occupied_tracks_;
  }
}

void FreeSpaceMap::IndexRemove(uint64_t track) {
  if (HasHoles(track)) {
    const uint32_t live = track_live_[track];
    hole_index_[live * index_words_ + track / 64] &= ~(uint64_t{1} << (track % 64));
    --hole_level_size_[live];
  }
}

void FreeSpaceMap::IndexInsert(uint64_t track) {
  if (HasHoles(track)) {
    const uint32_t live = track_live_[track];
    hole_index_[live * index_words_ + track / 64] |= uint64_t{1} << (track % 64);
    ++hole_level_size_[live];
  }
}

void FreeSpaceMap::MarkSystem(uint32_t block) {
  assert(states_[block] == BlockState::kFree);
  states_[block] = BlockState::kSystem;
  SetFreeBit(block, false);
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  if (++track_system_[track] == 1 && track_live_[track] > 0) {
    SetOccupied(track, false);
  }
  --free_blocks_;
  ++system_blocks_;
  IndexInsert(track);
}

void FreeSpaceMap::MarkLive(uint32_t block) {
  assert(states_[block] == BlockState::kFree);
  states_[block] = BlockState::kLive;
  SetFreeBit(block, false);
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  if (++track_live_[track] == 1 && track_system_[track] == 0) {
    SetOccupied(track, true);
  }
  --free_blocks_;
  ++live_blocks_;
  IndexInsert(track);
}

void FreeSpaceMap::Free(uint32_t block) {
  assert(states_[block] == BlockState::kLive);
  states_[block] = BlockState::kFree;
  SetFreeBit(block, true);
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  ++track_free_[track];
  ++cyl_free_[CylinderOfTrack(track)];
  if (--track_live_[track] == 0 && track_system_[track] == 0) {
    SetOccupied(track, false);
  }
  ++free_blocks_;
  --live_blocks_;
  if (TrackEmpty(track)) {
    ++empty_tracks_;
  }
  IndexInsert(track);
}

bool FreeSpaceMap::TrackEmpty(uint64_t track) const {
  return track_live_[track] == 0 && track_system_[track] == 0;
}

uint32_t FreeSpaceMap::FirstSlotFrom(uint32_t from_sector) const {
  // Blocks are block_sectors_-aligned; a sector past the last block's start wraps to slot 0.
  const uint32_t first = (from_sector + block_sectors_ - 1) / block_sectors_;
  return first < blocks_per_track_ ? first : 0;
}

uint32_t FreeSpaceMap::SkipTo(uint32_t slot, uint32_t from_sector) const {
  return (slot * block_sectors_ + sectors_per_track_ - from_sector) % sectors_per_track_;
}

uint64_t FreeSpaceMap::SelectOccupiedTrack(uint64_t r, std::span<const uint64_t> skip) const {
  size_t next_skip = 0;
  for (uint64_t w = 0; w < index_words_; ++w) {
    uint64_t bits = occupied_[w];
    for (; next_skip < skip.size() && skip[next_skip] / 64 == w; ++next_skip) {
      bits &= ~(uint64_t{1} << (skip[next_skip] % 64));
    }
    const auto count = static_cast<uint64_t>(std::popcount(bits));
    if (r < count) {
      for (; r > 0; --r) {
        bits &= bits - 1;  // Drop the lowest set bit.
      }
      return w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
    }
    r -= count;
  }
  assert(false && "SelectOccupiedTrack: r out of range");
  return total_tracks();
}

std::optional<uint32_t> FreeSpaceMap::NearestFreeInTrack(uint64_t track, uint32_t from_sector,
                                                         uint32_t* skip_sectors) const {
  if (track_free_[track] == 0) {
    return std::nullopt;
  }
  const uint64_t* words = &free_slots_[track * track_words_];
  const uint32_t first = FirstSlotFrom(from_sector);
  // The first set bit at or after `first`, circularly: the rest of first's word, then the
  // following words with wrap-around, ending on the low bits of first's word.
  uint32_t w = first / 64;
  uint64_t bits = words[w] & (~uint64_t{0} << (first % 64));
  for (uint32_t n = 0; bits == 0 && n < track_words_; ++n) {
    w = w + 1 == track_words_ ? 0 : w + 1;
    bits = words[w];
  }
  assert(bits != 0 && "track_free_ and free_slots_ disagree");
  const uint32_t slot = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
  if (skip_sectors != nullptr) {
    *skip_sectors = SkipTo(slot, from_sector);
  }
  return static_cast<uint32_t>(track * blocks_per_track_ + slot);
}

std::optional<uint32_t> FreeSpaceMap::NearestFreeInCylinder(uint32_t cylinder, uint64_t heads,
                                                            uint32_t from_sector,
                                                            uint32_t* skip_sectors) const {
  if (cyl_free_[cylinder] == 0 || heads == 0) {
    return std::nullopt;
  }
  const uint64_t* slots = &slot_heads_[static_cast<size_t>(cylinder) * blocks_per_track_];
  uint32_t slot = FirstSlotFrom(from_sector);
  for (uint32_t i = 0; i < blocks_per_track_; ++i) {
    if (const uint64_t free = slots[slot] & heads; free != 0) {
      const uint64_t track = static_cast<uint64_t>(cylinder) * tracks_per_cylinder_ +
                             static_cast<uint64_t>(std::countr_zero(free));
      if (skip_sectors != nullptr) {
        *skip_sectors = SkipTo(slot, from_sector);
      }
      return static_cast<uint32_t>(track * blocks_per_track_ + slot);
    }
    slot = slot + 1 == blocks_per_track_ ? 0 : slot + 1;
  }
  return std::nullopt;
}

std::optional<uint64_t> FreeSpaceMap::FullestTrackWithHoles(
    std::optional<uint64_t> excluded) const {
  // A track with holes has at most blocks_per_track_ - 1 live blocks; walk the levels from
  // there down, and within a level take the lowest set bit.
  for (uint32_t live = blocks_per_track_ - 1; live > 0; --live) {
    if (hole_level_size_[live] == 0) {
      continue;
    }
    const uint64_t* words = &hole_index_[live * index_words_];
    for (uint64_t w = 0; w < index_words_; ++w) {
      uint64_t bits = words[w];
      if (excluded && *excluded / 64 == w) {
        bits &= ~(uint64_t{1} << (*excluded % 64));
      }
      if (bits != 0) {
        return w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
      }
    }
  }
  return std::nullopt;
}

uint64_t FreeSpaceMap::TracksBelowFreeFraction(double frac) const {
  uint64_t below = 0;
  for (uint64_t track = 0; track < track_free_.size(); ++track) {
    if (track_system_[track] != 0) {
      continue;  // Reserved tracks are never compaction victims.
    }
    const double free_fraction =
        static_cast<double>(track_free_[track]) / static_cast<double>(blocks_per_track_);
    below += free_fraction < frac ? 1 : 0;
  }
  return below;
}

double FreeSpaceMap::Utilization() const {
  const uint64_t usable = states_.size() - system_blocks_;
  if (usable == 0) {
    return 1.0;
  }
  return static_cast<double>(live_blocks_) / static_cast<double>(usable);
}

}  // namespace vlog::core
