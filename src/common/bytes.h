// Little-endian byte (de)serialization helpers for on-disk record formats.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace vlog::common {

// The on-disk formats store only unsigned 16/32/64-bit fields. Restricting the helpers to those
// types keeps the host-order copy and the byte loop below byte-identical by construction.
template <typename T>
inline constexpr bool kLeCodecType =
    std::is_same_v<T, uint16_t> || std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t>;

// Writes `value` little-endian at `out[offset..offset+sizeof(T))`. The caller guarantees the
// span is large enough; these are building blocks for fixed-layout sectors. On little-endian
// hosts host order is the on-disk order, so the field is one fixed-width copy (a single store);
// `subspan` keeps the bounds check that per-byte indexing gives under _GLIBCXX_ASSERTIONS.
template <typename T>
void StoreLe(std::span<std::byte> out, size_t offset, T value) {
  static_assert(kLeCodecType<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.subspan(offset, sizeof(T)).data(), &value, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[offset + i] = static_cast<std::byte>(static_cast<uint64_t>(value) >> (8 * i));
    }
  }
}

template <typename T>
T LoadLe(std::span<const std::byte> in, size_t offset) {
  static_assert(kLeCodecType<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T value;
    std::memcpy(&value, in.subspan(offset, sizeof(T)).data(), sizeof(T));
    return value;
  } else {
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(in[offset + i])) << (8 * i);
    }
    return static_cast<T>(v);
  }
}

}  // namespace vlog::common

#endif  // SRC_COMMON_BYTES_H_
