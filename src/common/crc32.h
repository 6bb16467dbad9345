// CRC-32C (Castagnoli) used to protect on-disk virtual-log records and the parked log tail.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace vlog::common {

// Computes CRC-32C over `data`, chaining from `seed` (pass the previous result to extend).
// Uses the SSE4.2 `crc32` instruction when the CPU has it (checked once per process), else a
// portable slicing-by-8 table walk; the two agree on every input.
uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed = 0);

// The CRC-32C of a message whose CRC (under any seed) is `crc`, after the little-endian 8-byte
// word followed by exactly kTailBytes more bytes is XOR-ed with `delta`. CRC-32C is affine in
// the message, so this costs one 8-byte CRC step and four table lookups however long the
// message is. Instantiated for the tails in use: 492 (a map sector's `seq` field).
template <size_t kTailBytes>
uint32_t Crc32cXorWord(uint32_t crc, uint64_t delta);

}  // namespace vlog::common

#endif  // SRC_COMMON_CRC32_H_
