// The NVM stage's DRAM overlay index: staged sector LBA -> the newest NVM copy of that sector.
// NVLog (PAPERS.md, "Boosting File Systems Elegantly") keeps the same kind of flat DRAM index
// over its NVM log.
//
// Open addressing with linear probing over a power-of-two slot array:
//   - Load stays at most 1/2: Put doubles the array before an insert would pass it.
//   - A key lives in the first free-or-matching slot at or after its home slot (the top bits of
//     a multiplicative hash), with no empty slot between home and key. Erase keeps that true by
//     backward-shift deletion, so there are no tombstones and a miss stops at the first empty
//     slot.
//   - Range answers are ascending by LBA. A range no wider than the slot array probes each LBA
//     in it; a wider one scans the slots and sorts the hits, so even a whole-disk range costs
//     O(slots). The slot count is at most four times the largest staged count, or 16.
#ifndef SRC_NVM_SECTOR_INDEX_H_
#define SRC_NVM_SECTOR_INDEX_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/simdisk/geometry.h"

namespace vlog::core {

class NvmSectorIndex {
 public:
  struct Entry {
    simdisk::Lba lba = kEmpty;
    uint64_t seq = 0;     // Owning record; stale copies in older records are dead.
    uint64_t offset = 0;  // NVM byte offset of this sector's payload bytes.
  };
  // The one LBA value that cannot be a key: it marks an empty slot.
  static constexpr simdisk::Lba kEmpty = ~simdisk::Lba{0};

  size_t size() const { return size_; }
  size_t slot_count() const { return slots_.size(); }

  // Empties the index, keeping its slot array.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Entry{});
    size_ = 0;
  }

  // Inserts `lba`, or overwrites its entry when present.
  void Put(simdisk::Lba lba, uint64_t seq, uint64_t offset) {
    assert(lba != kEmpty);
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    size_t i = Home(lba);
    while (slots_[i].lba != kEmpty && slots_[i].lba != lba) {
      i = (i + 1) & mask_;
    }
    size_ += slots_[i].lba == kEmpty ? 1 : 0;
    slots_[i] = Entry{lba, seq, offset};
  }

  const Entry* Find(simdisk::Lba lba) const {
    const size_t i = Slot(lba);
    return i == kNone ? nullptr : &slots_[i];
  }

  // Removes `lba`; returns whether it was present.
  bool Erase(simdisk::Lba lba) {
    size_t hole = Slot(lba);
    if (hole == kNone) {
      return false;
    }
    // Backward shift: walk the run after the hole and pull back every entry whose home does
    // not lie cyclically in (hole, j], i.e. whose probe distance reaches the hole.
    for (size_t j = (hole + 1) & mask_; slots_[j].lba != kEmpty; j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].lba)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Entry{};
    --size_;
    return true;
  }

  // Replaces `out` with the entries in [lba, lba + sectors), ascending by LBA.
  void Range(simdisk::Lba lba, uint64_t sectors, std::vector<Entry>& out) const {
    out.clear();
    if (size_ == 0) {
      return;
    }
    if (sectors <= slots_.size()) {
      for (uint64_t s = 0; s < sectors; ++s) {
        if (const size_t i = Slot(lba + s); i != kNone) {
          out.push_back(slots_[i]);
        }
      }
      return;
    }
    for (const Entry& e : slots_) {
      if (e.lba != kEmpty && e.lba >= lba && e.lba - lba < sectors) {
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.lba < b.lba; });
  }

 private:
  static constexpr size_t kNone = ~size_t{0};
  static constexpr size_t kMinSlots = 16;

  size_t Home(simdisk::Lba lba) const {
    // Fibonacci hashing: the top bits of the product spread consecutive LBAs apart.
    return static_cast<size_t>((lba * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t Slot(simdisk::Lba lba) const {
    if (slots_.empty()) {
      return kNone;
    }
    for (size_t i = Home(lba);; i = (i + 1) & mask_) {
      if (slots_[i].lba == lba) {
        return i;
      }
      if (slots_[i].lba == kEmpty) {
        return kNone;
      }
    }
  }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    const size_t n = std::max(kMinSlots, old.size() * 2);
    slots_.assign(n, Entry{});
    mask_ = n - 1;
    shift_ = 64 - std::countr_zero(n);
    for (const Entry& e : old) {
      if (e.lba != kEmpty) {
        size_t i = Home(e.lba);
        while (slots_[i].lba != kEmpty) {
          i = (i + 1) & mask_;
        }
        slots_[i] = e;
      }
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace vlog::core

#endif  // SRC_NVM_SECTOR_INDEX_H_
