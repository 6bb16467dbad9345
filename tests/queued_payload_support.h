// A seeded check of a queued device's payload path, shared by the Vld and VldArray tests.
//
// The devices recycle write-payload buffers across batches, and an array hands a member's read
// buffer straight to its own completion. This drives batches whose requests shrink after a
// batch of long writes, so recycled buffers are always larger than the payload they carry,
// and checks every completion's payload (size and bytes) against a byte shadow of the region.
#ifndef TESTS_QUEUED_PAYLOAD_SUPPORT_H_
#define TESTS_QUEUED_PAYLOAD_SUPPORT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/simdisk/geometry.h"

namespace vlog::testing_support {

struct ReadExtent {
  simdisk::Lba lba = 0;
  uint64_t sectors = 0;
};

// Runs `rounds` batches of `batch_size` queued requests on a freshly formatted `dev` over its
// first `region_sectors` sectors. Round 0 writes `long_sectors` sectors per request; later rounds
// mix writes and reads of 1 to long_sectors / 2 sectors, half the reads aimed at a write earlier
// in the same batch (the read-after-write forwarding path). Each caller buffer is overwritten
// right after SubmitWrite returns, so the device must have taken its own copy. Returns the read
// extents it issued.
template <typename Device>
std::vector<ReadExtent> ExpectQueuedPayloadsIntact(Device& dev, uint64_t region_sectors,
                                                   size_t batch_size, uint64_t long_sectors,
                                                   int rounds, uint64_t seed) {
  const size_t sector_bytes = dev.SectorBytes();
  std::vector<std::byte> shadow(region_sectors * sector_bytes);  // Unwritten sectors read 0.
  std::vector<ReadExtent> reads;
  common::Rng rng(seed);
  uint32_t stamp = 1;
  for (int round = 0; round < rounds; ++round) {
    struct Expected {
      uint64_t id = 0;
      bool is_write = true;
      std::vector<std::byte> data;  // Reads: the shadow at submission.
    };
    std::vector<Expected> expected;
    std::vector<std::pair<simdisk::Lba, uint64_t>> batch_writes;
    for (size_t k = 0; k < batch_size; ++k) {
      const uint64_t sectors = round == 0 ? long_sectors : 1 + rng.Below(long_sectors / 2);
      simdisk::Lba lba = rng.Below(region_sectors - sectors + 1);
      if (round == 0 || rng.Chance(0.5)) {
        std::vector<std::byte> buf(sectors * sector_bytes);
        for (size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::byte>(static_cast<uint8_t>(stamp * 37 + i * 13 + i / 512));
        }
        ++stamp;
        const auto id = dev.SubmitWrite(lba, buf);
        EXPECT_TRUE(id.ok()) << id.status().ToString();
        if (!id.ok()) {
          return reads;
        }
        std::memcpy(shadow.data() + lba * sector_bytes, buf.data(), buf.size());
        std::fill(buf.begin(), buf.end(), std::byte{0xEE});
        expected.push_back({*id, true, {}});
        batch_writes.emplace_back(lba, sectors);
        continue;
      }
      if (!batch_writes.empty() && rng.Chance(0.5)) {
        const auto& [wlba, wsectors] = batch_writes[rng.Below(batch_writes.size())];
        lba = std::min(wlba + rng.Below(wsectors), region_sectors - sectors);
      }
      const auto id = dev.SubmitRead(lba, sectors);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      if (!id.ok()) {
        return reads;
      }
      const auto from = shadow.begin() + static_cast<std::ptrdiff_t>(lba * sector_bytes);
      expected.push_back(
          {*id, false,
           std::vector<std::byte>(from, from + static_cast<std::ptrdiff_t>(sectors * sector_bytes))});
      reads.push_back({lba, sectors});
    }
    auto done = dev.FlushQueue();
    EXPECT_TRUE(done.ok()) << done.status().ToString();
    if (!done.ok()) {
      return reads;
    }
    EXPECT_EQ(done->size(), expected.size()) << "round " << round;
    for (size_t i = 0; i < std::min(done->size(), expected.size()); ++i) {
      const auto& c = (*done)[i];
      EXPECT_EQ(c.id, expected[i].id) << "round " << round << " request " << i;
      EXPECT_EQ(c.is_write, expected[i].is_write) << "round " << round << " request " << i;
      EXPECT_EQ(c.data.size(), expected[i].data.size()) << "round " << round << " request " << i;
      EXPECT_TRUE(c.data == expected[i].data) << "round " << round << " request " << i;
    }
  }
  std::vector<std::byte> all(shadow.size());
  EXPECT_TRUE(dev.Read(0, all).ok());
  EXPECT_TRUE(all == shadow) << "final read-back";
  return reads;
}

}  // namespace vlog::testing_support

#endif  // TESTS_QUEUED_PAYLOAD_SUPPORT_H_
