#include "graph/container.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define GCLUS_HAS_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/faultpoint.hpp"
#include "par/parallel_for.hpp"

namespace gclus::io {

using namespace wire;

namespace {

namespace fs = std::filesystem;

/// Maps `path` read-only into `fc`; false (leaving `fc` alone) when it
/// cannot.  The keepalive unmaps.  The mapping outlives the file's
/// directory entry, so mapped files may be unlinked or replaced (an atomic
/// republish) while in use.
bool map_file(const std::string& path, FileContents& fc) {
#ifdef GCLUS_HAS_POSIX_IO
  // An injected mmap failure behaves exactly like a real one: the caller
  // falls back to the read() path with a byte-identical result.
  if (GCLUS_FAULTPOINT("io.mmap")) return false;
  const int fd =
      GCLUS_FAULTPOINT("io.open") ? -1 : ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  void* addr = MAP_FAILED;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                  MAP_PRIVATE, fd, 0);
  }
  ::close(fd);  // the mapping keeps the inode alive
  if (addr == MAP_FAILED) return false;
  const auto size = static_cast<std::size_t>(st.st_size);
#ifdef MADV_SEQUENTIAL
  ::madvise(addr, size, MADV_SEQUENTIAL);
#endif
  fc.bytes = {static_cast<const std::byte*>(addr), size};
  fc.keepalive = std::shared_ptr<const void>(
      addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  fc.mapped = true;
  return true;
#else
  (void)path;
  (void)fc;
  return false;
#endif
}

/// Reads a whole file into memory, to its end (pipes included: the size
/// is only a hint).
StatusOr<std::vector<std::byte>> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.open") || !in.good()) {
    return IoError("cannot open file");
  }
  std::error_code ec;
  const auto hint = fs::file_size(path, ec);
  // One byte past the expected size, so a regular file reads in one call.
  std::vector<std::byte> bytes(ec ? std::size_t{1} << 16
                                  : static_cast<std::size_t>(hint) + 1);
  std::size_t got = 0;
  while (in.read(reinterpret_cast<char*>(bytes.data() + got),
                 static_cast<std::streamsize>(bytes.size() - got))) {
    got = bytes.size();
    bytes.resize(2 * got);
  }
  if (GCLUS_FAULTPOINT("io.read") || in.bad()) return IoError("read failed");
  bytes.resize(got + static_cast<std::size_t>(in.gcount()));
  return bytes;
}

/// Feeds the little-endian bytes of `s` to `emit(const void*, size_t)`,
/// in order: in one piece on little-endian hosts, else element by element.
template <typename Emit>
void for_each_le_piece(const Section& s, const Emit& emit) {
  if (kLittleEndian || s.width == 1) {
    emit(s.data, static_cast<std::size_t>(s.bytes()));
    return;
  }
  const auto* src = static_cast<const std::byte*>(s.data);
  for (std::uint64_t i = 0; i < s.count; ++i, src += s.width) {
    std::byte le[8];
    std::reverse_copy(src, src + s.width, le);
    emit(le, s.width);
  }
}

// ---- checksum ---------------------------------------------------------------

constexpr std::uint64_t kMixMultiplier = 0x9E3779B97F4A7C15ULL;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kStripeBytes = kLanes * 8;
/// Inputs of at most this many chunks hash on the calling thread.
constexpr std::size_t kInlineChunks = 4;

/// One checksum step.  For a fixed `word` it is a bijection of `state`,
/// and for a fixed `state` a bijection of `word`: xor, a multiply by an
/// odd constant and an xorshift each invert.
inline std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
  state = (state ^ word) * kMixMultiplier;
  return state ^ (state >> 29);
}

/// The digest of one chunk of `n` little-endian bytes (container.hpp).
std::uint64_t chunk_digest(const std::byte* p, std::size_t n) {
  std::uint64_t lane[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) lane[i] = kFnvOffsetBasis + i;
  std::size_t at = 0;
  for (; at + kStripeBytes <= n; at += kStripeBytes) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      lane[i] = mix(lane[i], read_le_at<std::uint64_t>(p + at + 8 * i));
    }
  }
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::uint64_t l : lane) h = mix(h, l);
  h = fnv1a(h, p + at, n - at);
  return mix(h, n);
}

/// One chunk of a covered range: `bytes` bytes of elements `width` bytes
/// wide, stored in host order (so swapped to little-endian first on a
/// big-endian host).
struct Chunk {
  const std::byte* data;
  std::size_t bytes;
  std::uint32_t width;
};

/// Appends the chunks of one covered range, measured from its start.
void add_chunks(std::vector<Chunk>& out, const void* data,
                std::uint64_t bytes, std::uint32_t width) {
  const auto* p = static_cast<const std::byte*>(data);
  for (std::uint64_t at = 0; at < bytes; at += kChecksumChunkBytes) {
    out.push_back(
        {p + at,
         static_cast<std::size_t>(std::min(kChecksumChunkBytes, bytes - at)),
         width});
  }
}

std::uint64_t digest_of(const Chunk& c) {
  if (kLittleEndian || c.width == 1) return chunk_digest(c.data, c.bytes);
  std::vector<std::byte> le(c.bytes);
  for (std::size_t i = 0; i < c.bytes; i += c.width) {
    std::reverse_copy(c.data + i, c.data + i + c.width, le.data() + i);
  }
  return chunk_digest(le.data(), le.size());
}

/// Hashes `chunks` (on `pool` unless there are only a few) and folds the
/// digests in order.
std::uint64_t fold_chunks(std::span<const Chunk> chunks, ThreadPool& pool) {
  std::vector<std::uint64_t> digest(chunks.size());
  const auto hash_one = [&](std::size_t i) { digest[i] = digest_of(chunks[i]); };
  if (chunks.size() <= kInlineChunks) {
    for (std::size_t i = 0; i < chunks.size(); ++i) hash_one(i);
  } else {
    parallel_for(pool, 0, chunks.size(), hash_one, /*grain=*/1);
  }
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::uint64_t d : digest) h = mix(h, d);
  return h;
}

void write_zeros(std::ofstream& out, std::uint64_t count) {
  static constexpr char zeros[kSectionAlign] = {};
  while (count > 0) {
    const std::uint64_t n = std::min(count, kSectionAlign);
    out.write(zeros, static_cast<std::streamsize>(n));
    count -= n;
  }
}

/// Distinct per process and per call, so concurrent writers never collide
/// on the temp file they publish from.
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t salt = std::random_device{}();
  return std::to_string(salt) + "-" + std::to_string(counter.fetch_add(1));
}

/// fsyncs one path (a file, or with `directory` a directory entry).  On
/// platforms without fsync this is a no-op success — the publish is still
/// atomic, just not crash-durable.
bool sync_path(const std::string& path, bool directory) {
#ifdef GCLUS_HAS_POSIX_IO
  const int fd = ::open(path.c_str(), directory ? O_RDONLY : O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;
#endif
}

}  // namespace

// ---- writing ----------------------------------------------------------------

std::vector<std::uint64_t> place_sections(std::uint64_t header_bytes,
                                          std::span<const Section> sections) {
  std::vector<std::uint64_t> pos(sections.size());
  std::uint64_t end = header_bytes;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    pos[i] = (end + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    end = pos[i] + sections[i].bytes();
  }
  return pos;
}

std::uint64_t container_checksum(std::span<const std::byte> header_prefix,
                                 std::span<const Section> sections,
                                 ThreadPool& pool) {
  std::vector<Chunk> chunks;
  add_chunks(chunks, header_prefix.data(), header_prefix.size(), 1);
  for (const Section& s : sections) {
    add_chunks(chunks, s.data, s.bytes(), s.width);
  }
  return fold_chunks(chunks, pool);
}

Status write_container(const std::string& path,
                       std::span<const std::byte> header,
                       std::span<const Section> sections,
                       const char* fault_point) {
  const std::vector<std::uint64_t> pos =
      place_sections(header.size(), sections);
  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT(fault_point) || !out.good()) {
    return IoError("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  std::uint64_t written = header.size();
  for (std::size_t i = 0; i < sections.size(); ++i) {
    write_zeros(out, pos[i] - written);
    for_each_le_piece(sections[i], [&](const void* p, std::size_t n) {
      out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    });
    written = pos[i] + sections[i].bytes();
  }
  if (!out.good()) {
    // ofstream hides errno, so disk-full vs hard error is not
    // distinguishable here; both are terminal for this write.
    return IoError("write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

Status publish_file(const std::string& path,
                    const std::function<Status(const std::string& tmp)>& write,
                    const char* fault_point) {
  const fs::path target(path);
  const std::string dir = target.has_parent_path()
                              ? target.parent_path().string()
                              : std::string(".");
  const std::string tmp = path + ".tmp." + unique_tmp_suffix();
  std::error_code ec;
  Status st = write(tmp);
  // Crash-consistent publish: fsync the temp file, rename it over `path`,
  // fsync the directory so the rename itself survives a crash.  A reader
  // can then never observe a torn file: before the rename it sees the old
  // inode (or nothing), after it a fully durable new one.
  if (st.ok() &&
      (GCLUS_FAULTPOINT(fault_point) || !sync_path(tmp, /*directory=*/false))) {
    st = IoError("cannot fsync temp file: " + tmp);
  }
  if (st.ok()) {
    fs::rename(tmp, path, ec);
    if (ec) st = IoError("cannot publish " + path + ": " + ec.message());
  }
  if (!st.ok()) {
    fs::remove(tmp, ec);  // best effort; a failed write may leave debris
    return st;
  }
  if (!sync_path(dir, /*directory=*/true)) {
    // The rename landed (readers see a complete file); only crash
    // durability of the directory entry is in doubt.
    return IoError("cannot fsync directory: " + dir);
  }
  return OkStatus();
}

// ---- reading ----------------------------------------------------------------

bool mmap_supported() {
#ifdef GCLUS_HAS_POSIX_IO
  return true;
#else
  return false;
#endif
}

StatusOr<FileContents> read_or_map_file(const std::string& path,
                                        bool prefer_mmap) {
  FileContents fc;
  // A failed mapping falls through to the read() path.
  if (prefer_mmap && map_file(path, fc)) return fc;
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return Status(bytes.status()).with_context(path);
  auto owned =
      std::make_shared<std::vector<std::byte>>(std::move(bytes).value());
  fc.bytes = {owned->data(), owned->size()};
  fc.keepalive = std::move(owned);
  return fc;
}

Status check_sections(std::uint64_t file_size, std::uint64_t start,
                      std::span<const SectionRef> sections,
                      std::string_view format) {
  std::uint64_t end = start;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionRef& s = sections[i];
    if (s.pos < end || s.pos % kSectionAlign != 0 || s.pos > file_size ||
        s.count > (file_size - s.pos) / s.width) {
      return DataLossError("truncated " + std::string(format) + " (section " +
                           std::to_string(i) + " out of bounds)");
    }
    end = s.pos + s.count * s.width;
  }
  return OkStatus();
}

std::uint64_t container_checksum(const FileContents& file,
                                 std::uint64_t prefix_bytes,
                                 std::span<const SectionRef> sections,
                                 ThreadPool& pool) {
  // The file already holds little-endian bytes: no chunk needs a swap.
  std::vector<Chunk> chunks;
  add_chunks(chunks, file.bytes.data(), prefix_bytes, 1);
  for (const SectionRef& s : sections) {
    add_chunks(chunks, file.bytes.data() + s.pos, s.count * s.width, 1);
  }
  return fold_chunks(chunks, pool);
}

}  // namespace gclus::io
