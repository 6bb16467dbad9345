#include "src/nvm/sector_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace vlog::core {
namespace {

using Entry = NvmSectorIndex::Entry;
using Model = std::map<simdisk::Lba, std::pair<uint64_t, uint64_t>>;  // lba -> (seq, offset)

std::vector<Entry> ModelRange(const Model& model, simdisk::Lba lba, uint64_t sectors) {
  std::vector<Entry> out;
  for (auto it = model.lower_bound(lba); it != model.end() && it->first - lba < sectors; ++it) {
    out.push_back(Entry{it->first, it->second.first, it->second.second});
  }
  return out;
}

void ExpectSameEntries(const std::vector<Entry>& got, const std::vector<Entry>& want,
                       int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].lba, want[i].lba) << "step " << step << " hit " << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << "step " << step << " hit " << i;
    ASSERT_EQ(got[i].offset, want[i].offset) << "step " << step << " hit " << i;
  }
}

// Seeded mixed operations against an ordered map. Keys come from a dense window (staged
// sectors of nearby writes), a sparse space, and the tail of the LBA range. Each phase of 1,000
// steps starts a fresh index and steers the live count toward a target just under half of a
// power-of-two slot count, the highest load the index allows, so probe runs are long, wrap past
// the end of the slot array and are torn down by backward-shift deletes. The targets run from
// 16 to 512 slots, so the later phases grow the slot array through several doublings. After
// every step the index holds the same entries, in the same order, as the map.
TEST(NvmSectorIndex, MatchesOrderedMap) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    common::Rng rng(seed);
    NvmSectorIndex index;
    Model model;
    std::vector<Entry> hits;
    size_t target = 0;
    size_t max_slots = 0;
    uint64_t next_seq = 1;
    const auto random_key = [&]() -> simdisk::Lba {
      const uint64_t kind = rng.Below(5);
      if (kind < 2) {
        return 1000 + rng.Below(512);
      }
      if (kind < 4) {
        return rng.Below(1'000'000);
      }
      return (uint64_t{1} << 40) - 1 - rng.Below(64);
    };
    // A present key (the map's next key at or after a random one) when there is one.
    const auto present_key = [&]() -> simdisk::Lba {
      const simdisk::Lba lba = random_key();
      auto it = model.lower_bound(lba);
      if (it == model.end()) {
        it = model.begin();
      }
      return it == model.end() ? lba : it->first;
    };
    for (int step = 0; step < 12'000; ++step) {
      if (step % 1000 == 0) {
        index = NvmSectorIndex{};
        model.clear();
        target = (size_t{8} << (step / 1000 % 6)) - 1;  // Just under half of 16 to 512 slots.
        // A fresh index has no slot array yet.
        ASSERT_EQ(index.Find(random_key()), nullptr);
        ASSERT_FALSE(index.Erase(random_key()));
      }
      const bool below = model.size() < target;
      const uint64_t puts = below ? 60 : 25;
      const uint64_t erases = puts + (below ? 15 : 50);
      const uint64_t op = rng.Below(100);
      if (op < puts) {
        // Overwrites of present keys included.
        const simdisk::Lba lba = rng.Below(4) == 0 ? present_key() : random_key();
        const uint64_t offset = rng.Below(1 << 20) * 512;
        index.Put(lba, next_seq, offset);
        model[lba] = {next_seq, offset};
        ++next_seq;
      } else if (op < erases) {
        const simdisk::Lba lba = rng.Below(4) != 0 ? present_key() : random_key();
        ASSERT_EQ(index.Erase(lba), model.erase(lba) == 1) << "step " << step;
      } else if (op < erases + 10) {
        const simdisk::Lba lba = rng.Below(2) == 0 ? present_key() : random_key();
        const Entry* e = index.Find(lba);
        const auto it = model.find(lba);
        ASSERT_EQ(e != nullptr, it != model.end()) << "step " << step;
        if (e != nullptr) {
          ASSERT_EQ(e->lba, lba);
          ASSERT_EQ(e->seq, it->second.first);
          ASSERT_EQ(e->offset, it->second.second);
        }
      } else if (op < erases + 18) {
        const simdisk::Lba lba = random_key();
        const uint64_t sectors = 1 + rng.Below(16);
        index.Range(lba, sectors, hits);
        ExpectSameEntries(hits, ModelRange(model, lba, sectors), step);
      } else if (op < 99) {
        // Wider than the slot array: the scan-and-sort path.
        const simdisk::Lba lba = rng.Below(2) == 0 ? 0 : 1000 + rng.Below(256);
        const uint64_t sectors = index.slot_count() + 1 + rng.Below(uint64_t{1} << 41);
        index.Range(lba, sectors, hits);
        ExpectSameEntries(hits, ModelRange(model, lba, sectors), step);
      } else if (rng.Below(4) == 0) {
        index.clear();
        model.clear();
      }
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_EQ(index.size(), model.size()) << "step " << step;
      ASSERT_LE(index.size() * 2, index.slot_count());
      max_slots = std::max(max_slots, index.slot_count());
      // The whole content, in order, and every key found from its home slot.
      index.Range(0, ~uint64_t{0}, hits);
      ExpectSameEntries(hits, ModelRange(model, 0, ~uint64_t{0}), step);
      if (HasFatalFailure()) {
        return;
      }
      for (const auto& [lba, value] : model) {
        const Entry* e = index.Find(lba);
        ASSERT_NE(e, nullptr) << "step " << step << " lba " << lba;
        ASSERT_EQ(e->seq, value.first) << "step " << step << " lba " << lba;
      }
    }
    // Growth went through several doublings from the 16-slot start.
    EXPECT_GE(max_slots, 16u << 5) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vlog::core
