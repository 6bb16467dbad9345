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
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  ++track_system_[track];
  --free_blocks_;
  ++system_blocks_;
  IndexInsert(track);
}

void FreeSpaceMap::MarkLive(uint32_t block) {
  assert(states_[block] == BlockState::kFree);
  states_[block] = BlockState::kLive;
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  ++track_live_[track];
  --free_blocks_;
  ++live_blocks_;
  IndexInsert(track);
}

void FreeSpaceMap::Free(uint32_t block) {
  assert(states_[block] == BlockState::kLive);
  states_[block] = BlockState::kFree;
  const uint64_t track = TrackOfBlock(block);
  IndexRemove(track);
  ++track_free_[track];
  ++cyl_free_[CylinderOfTrack(track)];
  --track_live_[track];
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

std::optional<uint32_t> FreeSpaceMap::NearestFreeInTrack(uint64_t track, uint32_t from_sector,
                                                         uint32_t* skip_sectors) const {
  if (track_free_[track] == 0) {
    return std::nullopt;
  }
  const uint32_t base = static_cast<uint32_t>(track * blocks_per_track_);
  // The first block whose start is at or after from_sector (blocks are block_sectors_-aligned).
  const uint32_t first =
      (from_sector + block_sectors_ - 1) / block_sectors_;  // Candidate slot index in track.
  for (uint32_t i = 0; i < blocks_per_track_; ++i) {
    const uint32_t slot = (first + i) % blocks_per_track_;
    if (states_[base + slot] == BlockState::kFree) {
      if (skip_sectors != nullptr) {
        const uint32_t start = slot * block_sectors_;
        *skip_sectors = (start + sectors_per_track_ - from_sector) % sectors_per_track_;
      }
      return base + slot;
    }
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
