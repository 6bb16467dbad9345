#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "src/common/bytes.h"
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

// Shift_n: the raw (uninverted) CRC state after feeding n zero bytes, as a function of the
// state before them. It is a GF(2)-linear map of the 32-bit state, so a 4 x 256 table of its
// values on each byte lane applies it in four lookups. The SSE4.2 path combines its parallel
// chains with it; Crc32cXorWord moves a change in one word to the end of the message with it.
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t{};
};

// One zero bit fed to the reflected state: multiplication by x modulo the polynomial.
constexpr uint32_t MulX(uint32_t crc) { return (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1; }

// The table of Shift_n: t[k][b] = Shift_n(b << 8k), built at compile time. Bit 31 of the
// reflected state is x^0, so Shift_n(1 << 31) = x^(8n) is 8n zero bits; every lower bit is one
// more factor of x, and Shift_n commutes with multiplication by x.
constexpr ShiftTable BuildShiftTable(size_t n) {
  std::array<uint32_t, 32> basis{};
  basis[31] = uint32_t{1} << 31;
  for (size_t i = 0; i < 8 * n; ++i) {
    basis[31] = MulX(basis[31]);
  }
  for (int bit = 30; bit >= 0; --bit) {
    basis[bit] = MulX(basis[bit + 1]);
  }
  ShiftTable table;
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t v = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) {
          v ^= basis[8 * k + bit];
        }
      }
      table.t[k][b] = v;
    }
  }
  return table;
}

inline uint64_t Shift(const ShiftTable& s, uint64_t crc) {
  return s.t[0][crc & 0xff] ^ s.t[1][(crc >> 8) & 0xff] ^ s.t[2][(crc >> 16) & 0xff] ^
         s.t[3][(crc >> 24) & 0xff];
}

#ifdef VLOG_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly this reflected CRC-32C step (without the
// pre/post inversion), eight bytes per instruction. One instruction has a latency of three
// cycles but a throughput of one per cycle, so a single dependent chain runs at a third of the
// unit's speed. Long inputs therefore run as three interleaved chains over three adjacent
// blocks of kLongBlock (then kShortBlock) bytes: the first chain continues the running CRC,
// the other two start from zero. The raw (uninverted) CRC is linear, so appending a block B to
// a state c gives Shift_|B|(c) ^ crc(0, B), where Shift_n feeds n zero bytes; one round ends
// with c = Shift(Shift(c0) ^ c1) ^ c2. Inputs shorter than one short round stay on one chain
// after a single compare (24-byte superblocks, 44-byte record headers). The sizes come from
// per-size timings (EXPERIMENTS.md "NVM stage path").
constexpr size_t kLongBlock = 1360;  // 4096-byte blocks: one long round plus a 16-byte tail.
constexpr size_t kShortBlock = 168;  // 508-byte map sectors: one short round plus 4 bytes.
constexpr size_t kMultiStreamCutoff = 3 * kShortBlock;

constexpr ShiftTable kShiftLong = BuildShiftTable(kLongBlock);
constexpr ShiftTable kShiftShort = BuildShiftTable(kShortBlock);

inline uint64_t LoadWord(const std::byte* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Folds every whole round of three `block`-byte blocks at p into crc; advances p and n.
__attribute__((target("sse4.2"))) inline void ThreeStreamRounds(
    const ShiftTable& shift, size_t block, const std::byte*& p, size_t& n, uint64_t& crc) {
  while (n >= 3 * block) {
    uint64_t c0 = crc;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (const std::byte* end = p + block; p < end; p += 8) {
      c0 = _mm_crc32_u64(c0, LoadWord(p));
      c1 = _mm_crc32_u64(c1, LoadWord(p + block));
      c2 = _mm_crc32_u64(c2, LoadWord(p + 2 * block));
    }
    crc = Shift(shift, Shift(shift, c0) ^ c1) ^ c2;
    p += 2 * block;
    n -= 3 * block;
  }
}

// Compiled for SSE4.2 regardless of the build's target flags; only called after the runtime
// CPU check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(std::span<const std::byte> data,
                                                        uint32_t seed) {
  uint64_t crc = ~seed;
  const std::byte* p = data.data();
  size_t n = data.size();
  if (n >= kMultiStreamCutoff) {
    ThreeStreamRounds(kShiftLong, kLongBlock, p, n, crc);
    ThreeStreamRounds(kShiftShort, kShortBlock, p, n, crc);
  }
  while (n >= 8) {
    crc = _mm_crc32_u64(crc, LoadWord(p));
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

template <size_t kTailBytes>
uint32_t Crc32cXorWord(uint32_t crc, uint64_t delta) {
  static constexpr ShiftTable kShift = BuildShiftTable(kTailBytes);
  // Two messages of one length differing by D have CRCs (under any seed) differing by the raw
  // CRC of D from a zero state. D is zero but for the word, and zero bytes ahead of it leave a
  // zero state unchanged, so that raw CRC is the word's own, shifted through the tail.
  std::array<std::byte, 8> word{};
  StoreLe<uint64_t>(word, 0, delta);
  const uint32_t raw = ~Crc32c(word, ~uint32_t{0});  // Seed ~0 starts from a zero state.
  return crc ^ static_cast<uint32_t>(Shift(kShift, raw));
}

template uint32_t Crc32cXorWord<492>(uint32_t crc, uint64_t delta);

}  // namespace vlog::common
