// The binary container under every on-disk format the library writes:
// CSR v2 (plain, weighted and compressed; graph/io.hpp) and the oracle
// artifact `.orc` (server/artifact.hpp).  Each format owns its header
// fields and its semantic validation; the rules below are shared and
// implemented once, here.
//
//   * Layout.  A fixed-size header, then a list of sections in order.
//     Every section starts at a 64-byte-aligned position: the first one
//     at the first aligned position after the header, each later one at
//     the first aligned position after the end of the one before.  The
//     gaps are zero padding.  All integers are little-endian
//     (graph/wire.hpp).  The header records each section's position.
//   * Absent sections.  A format may leave a section out (the weights of
//     an unweighted CSR).  It then records position 0 and takes no space;
//     the format's flags say which sections are present.
//   * Checksum.  It covers a prefix of the header the format chooses
//     (none for CSR v2; the 128 bytes before the checksum field for
//     `.orc`), then every present section's little-endian bytes, in file
//     order.  Padding is not covered.  Each covered range splits into
//     chunks of kChecksumChunkBytes (1 MiB) measured from its own start;
//     only a range's last chunk may be shorter, and an empty range has no
//     chunks.  With M = 0x9E3779B97F4A7C15, B = 0xCBF29CE484222325 (the
//     FNV-1a 64 offset basis) and the step
//         mix(s, w) = x ^ (x >> 29),  x = (s ^ w) * M  (mod 2^64),
//     a chunk of n bytes hashes as follows.  Four lanes start at B + i,
//     i = 0..3.  Each whole 32-byte stripe, in order, updates lane i with
//     mix(lane_i, w_i), where w_i is the stripe's i-th 8-byte
//     little-endian word.  Then h = B, h = mix(h, lane_i) for i = 0..3;
//     the n mod 32 tail bytes feed FNV-1a 64 from h (h ^= byte,
//     h *= 0x100000001B3); the digest is mix(h, n).  The checksum starts
//     at B and folds every chunk digest d in file order: c = mix(c, d).
//     mix is a bijection in each argument, so changing any one word or
//     tail byte always changes the checksum.  Chunks hash in parallel, and
//     the value does not depend on the thread count.
//   * Bounds rule.  A reader accepts a section of `count` elements of
//     `width` bytes at `pos` only if `pos` is aligned, at or after the end
//     of the previous section (or of the header), and
//     count <= (size - pos) / width.  Dividing before multiplying keeps
//     the check overflow-safe against any header a corrupt file can hold.
//   * Writing streams the header and the sections through one ofstream;
//     no file is assembled in memory.
//   * Reading maps the file (or reads it, where mapping is unavailable or
//     fails) and views sections in place where the host allows.
//   * Publishing writes a private temp file next to the target, fsyncs
//     it, renames it over the target and fsyncs the directory, so readers
//     never observe a torn file.
//
// Fault points: "io.open", "io.mmap", "io.read" on the read path; the
// write and publish points are named by each format ("io.write",
// "artifact.write", "cache.publish", "artifact.publish").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "graph/wire.hpp"
#include "par/thread_pool.hpp"

namespace gclus::io {

inline constexpr std::uint64_t kSectionAlign = 64;
/// The checksum's chunk size (see the checksum rule above).
inline constexpr std::uint64_t kChecksumChunkBytes = std::uint64_t{1} << 20;

// ---- writing ----------------------------------------------------------------

/// The contents of one section to write: `count` elements of `width`
/// bytes (1, 4 or 8), stored little-endian.
struct Section {
  const void* data = nullptr;
  std::uint64_t count = 0;
  std::uint32_t width = 1;

  template <typename T>
  static Section of(std::span<const T> s) {
    return {s.data(), s.size(), sizeof(T)};
  }
  [[nodiscard]] std::uint64_t bytes() const { return count * width; }
};

/// The position of each of `sections` after a `header_bytes` header.
[[nodiscard]] std::vector<std::uint64_t> place_sections(
    std::uint64_t header_bytes, std::span<const Section> sections);

/// The container checksum of `header_prefix`, then of the little-endian
/// bytes of `sections` in order.  Chunks hash on `pool`.
[[nodiscard]] std::uint64_t container_checksum(
    std::span<const std::byte> header_prefix,
    std::span<const Section> sections,
    ThreadPool& pool = ThreadPool::global());

/// Writes `header`, then `sections` at place_sections(header.size(), …)
/// with zero padding.  kIoError when `fault_point` fires, the file cannot
/// be opened, or a write fails.  A failed write may leave a partial file.
[[nodiscard]] Status write_container(const std::string& path,
                                     std::span<const std::byte> header,
                                     std::span<const Section> sections,
                                     const char* fault_point);

/// Publishes `path` atomically: `write` fills a private temp file next to
/// it, which is fsynced, renamed over `path`, and its directory fsynced.
/// kIoError when `write` fails, `fault_point` fires, or a step of the
/// publish fails; the temp file is then removed (best effort).  A failed
/// directory fsync is reported although the rename has landed.
[[nodiscard]] Status publish_file(
    const std::string& path,
    const std::function<Status(const std::string& tmp)>& write,
    const char* fault_point);

// ---- reading ----------------------------------------------------------------

/// True when this platform supports mmap-backed loading (POSIX).
[[nodiscard]] bool mmap_supported();

/// Read-only contents of a whole file.  `keepalive` pins the backing
/// storage (an mmap-ed region or an owned buffer) for as long as any copy
/// of it lives, so `bytes` may be viewed in place — the same non-owning
/// contract as mmap-loaded Graphs.
struct FileContents {
  std::span<const std::byte> bytes;
  std::shared_ptr<const void> keepalive;
  bool mapped = false;
};

/// Maps (when `prefer_mmap` and the platform allows — falling back to a
/// plain read when mapping fails) or reads `path`.  kIoError, with the
/// path as context, when the file cannot be opened or read.
[[nodiscard]] StatusOr<FileContents> read_or_map_file(const std::string& path,
                                                      bool prefer_mmap = true);

/// Where a reader expects one section: `count` elements of `width` bytes
/// at byte `pos`.
struct SectionRef {
  std::uint64_t pos = 0;
  std::uint64_t count = 0;
  std::uint32_t width = 1;
};

/// Applies the bounds rule to `sections` in order, the first one at or
/// after `start`, in a file of `file_size` bytes.  kDataLoss naming
/// `format` and the first section out of bounds.
[[nodiscard]] Status check_sections(std::uint64_t file_size,
                                    std::uint64_t start,
                                    std::span<const SectionRef> sections,
                                    std::string_view format);

/// The container checksum of `file`: its first `prefix_bytes` bytes, then
/// `sections` (which check_sections has accepted).  Chunks hash on `pool`.
[[nodiscard]] std::uint64_t container_checksum(
    const FileContents& file, std::uint64_t prefix_bytes,
    std::span<const SectionRef> sections,
    ThreadPool& pool = ThreadPool::global());

/// `count` elements of T at byte `pos` of `file`: viewed in place when the
/// file is mapped on a little-endian host, else decoded into `owned`.
template <typename T>
std::span<const T> view(const FileContents& file, std::uint64_t pos,
                        std::uint64_t count, std::vector<T>& owned) {
  const std::byte* at = file.bytes.data() + pos;
  if (file.mapped && wire::kLittleEndian) {
    return {reinterpret_cast<const T*>(at), static_cast<std::size_t>(count)};
  }
  owned = wire::decode_array_le<T>(at, count);
  return owned;
}

}  // namespace gclus::io
