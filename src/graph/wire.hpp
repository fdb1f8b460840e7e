// Little-endian wire-format helpers under the binary container.
//
// CSR v2 (graph/io.cpp) and the oracle artifact (server/artifact.cpp) are
// both written and read through the section container
// (graph/container.hpp): fixed little-endian integers, 64-byte-aligned
// sections, and an FNV-1a checksum.  These helpers are the integer and
// checksum primitives it and the format headers are built from.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gclus::io::wire {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline constexpr bool kLittleEndian = std::endian::native == std::endian::little;

template <typename T>
T byteswap_int(T v) {
  auto u = static_cast<std::uint64_t>(v);
  if constexpr (sizeof(T) == 4) {
    u = __builtin_bswap32(static_cast<std::uint32_t>(u));
  } else {
    u = __builtin_bswap64(u);
  }
  return static_cast<T>(u);
}

template <typename T>
T to_le(T v) {
  return kLittleEndian ? v : byteswap_int(v);
}
template <typename T>
T from_le(T v) {
  return to_le(v);
}

/// Stores `v` little-endian at `p`.
template <typename T>
void store_le_at(std::byte* p, T v) {
  const T le = to_le(v);
  std::memcpy(p, &le, sizeof(T));
}

template <typename T>
T read_le_at(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return from_le(v);
}

template <typename T>
std::vector<T> decode_array_le(const std::byte* p, std::uint64_t count) {
  std::vector<T> out(static_cast<std::size_t>(count));
  if (count == 0) return out;
  std::memcpy(out.data(), p, static_cast<std::size_t>(count) * sizeof(T));
  if constexpr (!kLittleEndian) {
    for (auto& v : out) v = from_le(v);
  }
  return out;
}

}  // namespace gclus::io::wire
