#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "src/common/crc32_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define VLOG_CRC32C_SSE42 1
#endif

namespace vlog::common {
namespace {

constexpr uint32_t kPolynomial = 0x82f63b78;  // Reflected CRC-32C polynomial.

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][i] advances byte i
// through k additional zero bytes, so eight input bytes fold into the CRC with eight
// independent table lookups per iteration instead of eight serially dependent ones.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t{};
};

Tables BuildTables() {
  Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& T() {
  static const Tables tables = BuildTables();
  return tables;
}

#ifdef VLOG_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly this reflected CRC-32C step (without the
// pre/post inversion), eight bytes per instruction. Compiled for SSE4.2 regardless of the
// build's target flags; only called after the runtime CPU check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(std::span<const std::byte> data,
                                                        uint32_t seed) {
  uint64_t crc = ~seed;
  const std::byte* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (n-- > 0) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p++));
  }
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(std::span<const std::byte>, uint32_t);

// Chosen once per process: the hardware path when the CPU has SSE4.2, otherwise the portable
// slicing-by-8 path. Both return identical values for every input.
Crc32cFn SelectCrc32c() {
#ifdef VLOG_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) {
    return &Crc32cSse42;
  }
#endif
  return &internal::Crc32cPortable;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(std::span<const std::byte> data, uint32_t seed) {
  const auto& t = T().t;
  uint32_t crc = ~seed;
  const std::byte* p = data.data();
  size_t n = data.size();
  // The 8-byte inner loop reads two little-endian words; on a big-endian target the byte
  // loop below handles everything (same polynomial, same result).
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
            t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, seed);
}

}  // namespace vlog::common
