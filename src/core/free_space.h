// Physical-block free-space accounting for the VLD.
//
// The VLD allocates and frees fixed-size physical blocks (4 KB by default — §4.2 chooses the
// file system block size per Appendix A.1). This map tracks per-block state plus per-track
// free/live counts so the eager allocator and the compactor can reason at track granularity,
// and free-slot bitmasks (per track, and per cylinder slot across heads) so the allocator's
// nearest-free queries cost a few word operations instead of a slot-by-slot scan.
#ifndef SRC_CORE_FREE_SPACE_H_
#define SRC_CORE_FREE_SPACE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/simdisk/geometry.h"

namespace vlog::core {

enum class BlockState : uint8_t {
  kFree = 0,
  kLive,    // Holds current data or a live map sector.
  kSystem,  // Park sector / checkpoint region; never allocated or compacted.
};

class FreeSpaceMap {
 public:
  FreeSpaceMap(const simdisk::DiskGeometry& geometry, uint32_t block_sectors);

  uint32_t block_sectors() const { return block_sectors_; }
  uint32_t blocks_per_track() const { return blocks_per_track_; }
  uint32_t tracks_per_cylinder() const { return tracks_per_cylinder_; }
  uint64_t total_blocks() const { return states_.size(); }
  uint64_t total_tracks() const { return track_free_.size(); }
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t live_blocks() const { return live_blocks_; }
  uint64_t system_blocks() const { return system_blocks_; }

  simdisk::Lba BlockToLba(uint32_t block) const {
    return static_cast<simdisk::Lba>(block) * block_sectors_;
  }
  uint32_t LbaToBlock(simdisk::Lba lba) const { return static_cast<uint32_t>(lba / block_sectors_); }
  uint64_t TrackOfBlock(uint32_t block) const { return block / blocks_per_track_; }

  BlockState state(uint32_t block) const { return states_[block]; }
  void MarkSystem(uint32_t block);
  void MarkLive(uint32_t block);
  void Free(uint32_t block);

  uint32_t FreeInTrack(uint64_t track) const { return track_free_[track]; }
  uint32_t LiveInTrack(uint64_t track) const { return track_live_[track]; }
  // Free blocks across the whole cylinder, so the allocator's cylinder-seek search can skip
  // fully packed cylinders without probing each of their tracks.
  uint32_t FreeInCylinder(uint32_t cylinder) const { return cyl_free_[cylinder]; }
  // True when the track holds no live and no system blocks.
  bool TrackEmpty(uint64_t track) const;
  // Number of tracks for which TrackEmpty() holds. Maintained incrementally so the allocator's
  // empty-track search can bail out O(1) on a packed disk instead of scanning every track.
  uint64_t EmptyTrackCount() const { return empty_tracks_; }
  // True when any block of the track is reserved (such tracks are not compaction victims).
  bool TrackHasSystem(uint64_t track) const { return track_system_[track] != 0; }

  // Occupied tracks: those holding live blocks and no system block — the compactor's victim
  // candidates before pinned map sectors rule some out. Kept as a bitset plus a count, changed
  // only when MarkSystem, MarkLive or Free moves a track in or out, so a victim pick costs a
  // word walk instead of a per-track scan.
  uint64_t OccupiedTrackCount() const { return occupied_tracks_; }
  // The r-th occupied track (from 0, ascending) that is not in `skip`. `skip` must be sorted,
  // distinct and hold only occupied tracks, and r < OccupiedTrackCount() - skip.size().
  // O(tracks / 64 + skip.size()).
  uint64_t SelectOccupiedTrack(uint64_t r, std::span<const uint64_t> skip) const;

  // The free block in `track` whose starting sector is rotationally nearest at or after
  // `from_sector`, scanning circularly. Returns the block and, via `skip_sectors`, the
  // rotational distance in sectors from `from_sector` to the block's first sector.
  // Answered from the track's free-slot mask with a rotate and a count of trailing zeros.
  std::optional<uint32_t> NearestFreeInTrack(uint64_t track, uint32_t from_sector,
                                             uint32_t* skip_sectors) const;
  // The same query over every track of `cylinder` whose head is set in `heads` (bit h stands
  // for head h): the free block rotationally nearest at or after `from_sector`, ties between
  // heads at that slot going to the lowest head. At most blocks_per_track() slot probes.
  std::optional<uint32_t> NearestFreeInCylinder(uint32_t cylinder, uint64_t heads,
                                                uint32_t from_sector,
                                                uint32_t* skip_sectors) const;
  // The `heads` mask naming every head of a cylinder.
  uint64_t AllHeads() const;

  // The fullest track with holes: among tracks holding at least one live and one free block,
  // other than `excluded`, the one with the most live blocks, ties going to the lowest index.
  // The compactor's hole-plugging allocation packs into it. Answered from the live-count index
  // below without visiting every track; nullopt when no track qualifies.
  std::optional<uint64_t> FullestTrackWithHoles(std::optional<uint64_t> excluded) const;

  // Fraction of allocatable (non-system) blocks that are live.
  double Utilization() const;

  // Compaction debt: the number of system-free tracks whose free fraction has fallen below
  // `frac` — tracks the fill-to-threshold allocator can no longer use without the compactor
  // first hole-plugging them. Timeline probes sample this per window, so its trajectory shows
  // whether background compaction keeps pace with foreground traffic. O(tracks).
  uint64_t TracksBelowFreeFraction(double frac) const;

 private:
  uint64_t CylinderOfTrack(uint64_t track) const { return track / tracks_per_cylinder_; }
  bool HasHoles(uint64_t track) const { return track_live_[track] > 0 && track_free_[track] > 0; }
  // Every state change brackets its count updates with these two: the track leaves its old
  // live-count level and joins the new one, each only while it has holes.
  void IndexRemove(uint64_t track);
  void IndexInsert(uint64_t track);
  // Sets or clears `block`'s bit in both free-slot masks.
  void SetFreeBit(uint32_t block, bool free);
  // Moves `track` into or out of the occupied set.
  void SetOccupied(uint64_t track, bool occupied);
  // The slot index of the first block starting at or after `from_sector`, wrapping to slot 0.
  uint32_t FirstSlotFrom(uint32_t from_sector) const;
  // Rotational distance in sectors from `from_sector` to the start of `slot`.
  uint32_t SkipTo(uint32_t slot, uint32_t from_sector) const;

  uint32_t block_sectors_;
  uint32_t blocks_per_track_;
  uint32_t sectors_per_track_;
  uint32_t tracks_per_cylinder_;
  std::vector<BlockState> states_;
  std::vector<uint32_t> cyl_free_;
  std::vector<uint32_t> track_free_;
  std::vector<uint32_t> track_live_;
  std::vector<uint32_t> track_system_;
  uint64_t free_blocks_ = 0;
  uint64_t live_blocks_ = 0;
  uint64_t system_blocks_ = 0;
  uint64_t empty_tracks_ = 0;
  // Live-count index, one flat bitset of tracks per live count: bit t of level `live` (word
  // live * index_words_ + t / 64) is set exactly when HasHoles(t) and LiveInTrack(t) == live.
  // hole_level_size_[live] counts the level's set bits so empty levels cost one compare.
  uint64_t index_words_ = 0;
  std::vector<uint64_t> hole_index_;
  std::vector<uint32_t> hole_level_size_;
  // Occupied-track bitset (bit t % 64 of word t / 64 set exactly when track t has live blocks
  // and no system block) and its population count.
  std::vector<uint64_t> occupied_;
  uint64_t occupied_tracks_ = 0;
  // Free-slot masks, kept in step with states_ by MarkSystem, MarkLive and Free:
  //  - bit s % 64 of free_slots_[t * track_words_ + s / 64] is set exactly when slot s of
  //    track t is kFree (bits past blocks_per_track_ stay clear);
  //  - bit h of slot_heads_[c * blocks_per_track_ + s] is set exactly when slot s of head h's
  //    track in cylinder c is kFree, which bounds tracks_per_cylinder_ at 64.
  uint32_t track_words_ = 0;
  std::vector<uint64_t> free_slots_;
  std::vector<uint64_t> slot_heads_;
};

}  // namespace vlog::core

#endif  // SRC_CORE_FREE_SPACE_H_
