// Implementation entry points behind common::Crc32c, declared for the equivalence test that
// pins the hardware path to the portable one. Production code calls Crc32c only.
#ifndef SRC_COMMON_CRC32_INTERNAL_H_
#define SRC_COMMON_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace vlog::common::internal {

// The table-driven slicing-by-8 CRC-32C: Crc32c's fallback on CPUs without SSE4.2.
uint32_t Crc32cPortable(std::span<const std::byte> data, uint32_t seed = 0);

}  // namespace vlog::common::internal

#endif  // SRC_COMMON_CRC32_INTERNAL_H_
