#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/crc32_internal.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"

namespace vlog::common {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("missing inode");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing inode");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIoError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(InvalidArgument("bad"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

Status Passthrough(Status s) {
  RETURN_IF_ERROR(s);
  return OkStatus();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_TRUE(Passthrough(OkStatus()).ok());
  EXPECT_EQ(Passthrough(Corruption("x")).code(), StatusCode::kCorruption);
}

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Advance(Milliseconds(2));
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.Advance(-5);  // Negative durations are ignored.
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.AdvanceTo(1'000'000);  // Never goes backwards.
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.AdvanceTo(3'000'000);
  EXPECT_EQ(clock.Now(), 3'000'000);
}

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(Milliseconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(14.992)), 14.992);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(100)), 100.0);
}

TEST(Crc32, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  const char* s = "123456789";
  std::vector<std::byte> data;
  for (const char* p = s; *p; ++p) {
    data.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<std::byte> data(64, std::byte{0xAB});
  const uint32_t before = Crc32c(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

// Crc32c dispatches to the SSE4.2 instruction where the CPU has it; every on-disk CRC must
// still equal the portable slicing-by-8 result. Covers every length through two sectors, each
// start alignment within a word, and chained seeds. From 504 bytes the hardware path runs three
// interleaved streams over 1,360-byte and then 168-byte blocks, so the longer lengths sit on and
// around every round boundary: one, two and three long rounds, long rounds followed by short
// ones, and odd tails after each, through 8 KiB + 7 (4,096 and 4,144 included).
TEST(Crc32, MatchesPortablePath) {
  constexpr size_t kLong = 3 * 1360;
  constexpr size_t kShort = 3 * 168;
  constexpr size_t kMaxLen = 4 * kLong + kShort + 5;
  constexpr size_t kMaxOffset = 7;
  std::vector<size_t> lengths = {4096, 4144, 8192 + 7, 3 * kLong + 13, kMaxLen};
  for (size_t len = 0; len <= 1024; ++len) {
    lengths.push_back(len);
  }
  for (const size_t base : {kLong, kLong + kShort, 2 * kLong, 2 * kLong + 2 * kShort, 3 * kLong}) {
    for (size_t d = 0; d <= 9; ++d) {
      lengths.push_back(base + d);
      lengths.push_back(base - 1 - d);
    }
  }
  Rng rng(42);
  std::vector<std::byte> buf(kMaxLen + kMaxOffset);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  for (const uint32_t seed : {0u, 1u, 0xdeadbeefu}) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      for (const size_t len : lengths) {
        const std::span<const std::byte> data(buf.data() + offset, len);
        ASSERT_EQ(Crc32c(data, seed), internal::Crc32cPortable(data, seed))
            << "seed " << seed << " offset " << offset << " len " << len;
      }
    }
  }
}

// A checkpoint restamps an unchanged map sector's seq (the 8-byte word at offset 8 of a 508-byte
// CRC-covered body, 492 bytes from its end) by patching its CRC instead of recomputing it. The
// patch must equal the recomputed CRC for every seed (the folded format epoch), old word and
// new word, random and adjacent alike.
TEST(Crc32, XorWordPatchMatchesFullRecompute) {
  constexpr size_t kBody = 508;
  constexpr size_t kWordAt = 8;
  Rng rng(20261020);
  std::vector<std::byte> msg(kBody);
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::byte& b : msg) {
      b = static_cast<std::byte>(rng.Next());
    }
    const uint64_t epoch = trial < 2 ? trial * ~uint64_t{0} : rng.Next();
    const auto seed = static_cast<uint32_t>(epoch) ^ static_cast<uint32_t>(epoch >> 32);
    const uint64_t old_word = rng.Below(1u << 20);
    const uint64_t new_word = trial % 2 == 0 ? old_word + 1 + rng.Below(64) : rng.Next();
    StoreLe<uint64_t>(msg, kWordAt, old_word);
    const uint32_t old_crc = Crc32c(msg, seed);
    StoreLe<uint64_t>(msg, kWordAt, new_word);
    ASSERT_EQ(Crc32cXorWord<kBody - kWordAt - 8>(old_crc, old_word ^ new_word), Crc32c(msg, seed))
        << "trial " << trial;
  }
  EXPECT_EQ(Crc32cXorWord<492>(0x12345678u, 0), 0x12345678u) << "a zero delta changes nothing";
}

TEST(Crc32, PortableKnownVector) {
  const char* s = "123456789";
  std::vector<std::byte> data;
  for (const char* p = s; *p; ++p) {
    data.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(internal::Crc32cPortable(data), 0xE3069283u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(1), 0u);
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Bytes, RoundTripAllWidths) {
  std::vector<std::byte> buf(32);
  StoreLe<uint16_t>(buf, 0, 0xBEEF);
  StoreLe<uint32_t>(buf, 2, 0xDEADBEEF);
  StoreLe<uint64_t>(buf, 6, 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadLe<uint16_t>(buf, 0), 0xBEEF);
  EXPECT_EQ(LoadLe<uint32_t>(buf, 2), 0xDEADBEEFu);
  EXPECT_EQ(LoadLe<uint64_t>(buf, 6), 0x0123456789ABCDEFull);
}

TEST(Bytes, LittleEndianLayout) {
  std::vector<std::byte> buf(4);
  StoreLe<uint32_t>(buf, 0, 0x11223344);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x44);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x11);
}

// Test-local reference codec: the byte-at-a-time little-endian layout every on-disk format is
// defined by, independent of the host-order fast path in bytes.h.
template <typename T>
void RefStoreLe(std::vector<std::byte>& out, size_t offset, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[offset + i] = static_cast<std::byte>(static_cast<uint64_t>(value) >> (8 * i));
  }
}

template <typename T>
T RefLoadLe(const std::vector<std::byte>& in, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[offset + i])) << (8 * i);
  }
  return static_cast<T>(v);
}

// Every width at every offset within a word, over seeded random values: StoreLe writes exactly
// the reference bytes (and nothing around them), and LoadLe reads back the reference value.
template <typename T>
void CheckCodecAgainstReference(uint64_t seed) {
  constexpr size_t kMaxOffset = 7;
  constexpr size_t kBuf = kMaxOffset + sizeof(T) + 1;
  Rng rng(seed);
  for (int round = 0; round < 1000; ++round) {
    const T value = static_cast<T>(rng.Next());
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      std::vector<std::byte> got(kBuf);
      for (std::byte& b : got) {
        b = static_cast<std::byte>(rng.Next());
      }
      ASSERT_EQ(LoadLe<T>(got, offset), RefLoadLe<T>(got, offset))
          << sizeof(T) << "-byte load of random bytes, offset " << offset;
      std::vector<std::byte> want = got;
      StoreLe<T>(got, offset, value);
      RefStoreLe<T>(want, offset, value);
      ASSERT_EQ(got, want) << sizeof(T) << "-byte store, offset " << offset;
      ASSERT_EQ(LoadLe<T>(got, offset), value) << sizeof(T) << "-byte load, offset " << offset;
    }
  }
}

TEST(Bytes, MatchesByteLoopReference) {
  CheckCodecAgainstReference<uint16_t>(16);
  CheckCodecAgainstReference<uint32_t>(32);
  CheckCodecAgainstReference<uint64_t>(64);
}

}  // namespace
}  // namespace vlog::common
