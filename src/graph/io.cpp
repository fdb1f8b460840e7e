#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define GCLUS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/faultpoint.hpp"
#include "graph/builder.hpp"
#include "graph/wire.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus::io {

using namespace wire;  // the shared little-endian wire dialect

namespace {

// ---- shared helpers ---------------------------------------------------------

constexpr std::uint64_t kBinaryMagic = 0x67636c7573763101ULL;  // v1: "gclusv1"+1

// Bytes "GCLUSCS2" when stored little-endian.
constexpr std::uint64_t kCsr2Magic = 0x32534353554C4347ULL;
constexpr std::uint32_t kCsr2Version = 2;
constexpr std::uint32_t kCsr2FlagWeights = 1u << 0;
constexpr std::uint32_t kCsr2FlagCompressed = 1u << 1;
constexpr std::uint32_t kCsr2KnownFlags =
    kCsr2FlagWeights | kCsr2FlagCompressed;
constexpr std::uint64_t kCsr2HeaderBytes = 72;
constexpr std::uint64_t kCsr2Align = 64;

// Compressed layout (flags bit 1): offsets_pos points at a 128-byte
// parameter block instead of an offsets array; neighbors_pos and
// weights_pos are zero.  The block records the per-graph encoding choices
// (graph/compressed.hpp) and the positions of the six sections; section
// *sizes* are derived through compressed_section_sizes, so the reader's
// bounds checks cannot drift from the writer.  The header checksum covers
// the parameter block plus every section, in file order.
//
//   offset  size  field
//   0       4     cparams version (1)
//   4       1     first_mode
//   5       1     k_first
//   6       1     k_gap
//   7       1     relabeled (0/1)
//   8       4     degree_bits
//   12      4     local_bits
//   16      8     adj_bytes
//   24      8     degrees_pos
//   32      8     anchors_pos
//   40      8     locals_pos
//   48      8     adj_pos
//   56      8     perm_pos (0 unless relabeled)
//   64      8     inv_pos  (0 unless relabeled)
//   72      56    reserved (zeros)
constexpr std::uint64_t kCz2ParamsBytes = 128;
constexpr std::uint32_t kCz2ParamsVersion = 1;

// ---- file mapping -----------------------------------------------------------

/// A read-only mapping (or, on platforms without mmap, nothing).  Held via
/// shared_ptr as the keepalive of non-owning Graphs; the mapping outlives
/// the file's directory entry, so mapped files may be unlinked or replaced
/// (the dataset cache's atomic-rename refresh) while in use.
class MappedFile {
 public:
  static std::shared_ptr<MappedFile> map(const std::string& path) {
#ifdef GCLUS_HAS_MMAP
    // An injected mmap failure behaves exactly like a real one: callers
    // in kAuto mode fall back to the read() path (byte-identical result),
    // kMmap callers report it.
    if (GCLUS_FAULTPOINT("io.mmap")) return nullptr;
    const int fd =
        GCLUS_FAULTPOINT("io.open") ? -1 : ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return nullptr;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the inode alive
    if (addr == MAP_FAILED) return nullptr;
#ifdef MADV_SEQUENTIAL
    ::madvise(addr, size, MADV_SEQUENTIAL);
#endif
    return std::shared_ptr<MappedFile>(new MappedFile(addr, size));
#else
    (void)path;
    return nullptr;
#endif
  }

  [[nodiscard]] const std::byte* data() const {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  ~MappedFile() {
#ifdef GCLUS_HAS_MMAP
    if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

 private:
  MappedFile(void* addr, std::size_t size) : addr_(addr), size_(size) {}

  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

/// Reads a whole file into memory.
StatusOr<std::vector<std::byte>> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.open") || !in.good()) {
    return IoError("cannot open file");
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return IoError("cannot stat file: " + ec.message());
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (GCLUS_FAULTPOINT("io.read") || !in.good()) {
      return IoError("read failed");
    }
  }
  return bytes;
}

}  // namespace

// ---- edge-list text ---------------------------------------------------------

Graph read_edge_list(std::istream& in) {
  std::unordered_map<std::uint64_t, NodeId> compact;
  std::vector<Edge> edges;
  std::string line;
  auto intern = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        compact.emplace(raw, static_cast<NodeId>(compact.size()));
    (void)inserted;
    return it->second;
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) continue;
    // Intern in (u, v) order through named locals: function-argument
    // evaluation order is unspecified, and the id numbering must not be.
    const NodeId a = intern(u);
    const NodeId b = intern(v);
    edges.emplace_back(a, b);
  }
  GraphBuilder b(static_cast<NodeId>(compact.size()));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

namespace {

struct RawEdge {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

/// strtoull-compatible token parse (the semantics of `istream >> uint64`):
/// optional sign ('-' wraps modulo 2^64), decimal digits, failure on
/// overflow or no digits.  Advances `p` past the token on success.
bool parse_u64_token(const char*& p, const char* end, std::uint64_t& out) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\v' ||
                     *p == '\f')) {
    ++p;
  }
  bool negate = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negate = *p == '-';
    ++p;
  }
  if (p >= end || *p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  bool overflow = false;
  while (p < end && *p >= '0' && *p <= '9') {
    const unsigned digit = static_cast<unsigned>(*p - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      overflow = true;
    }
    value = value * 10 + digit;
    ++p;
  }
  if (overflow) return false;
  out = negate ? std::uint64_t{0} - value : value;
  return true;
}

/// One line in [p, end): blank and '#'/'%' comment lines are skipped, as
/// are lines without two parseable integers — exactly the serial parser's
/// per-line behavior.
void parse_line(const char* p, const char* end, std::vector<RawEdge>& out) {
  if (p >= end) return;
  if (*p == '#' || *p == '%') return;
  RawEdge e;
  if (!parse_u64_token(p, end, e.u)) return;
  if (!parse_u64_token(p, end, e.v)) return;
  out.push_back(e);
}

/// Parses every line whose first byte lies in [lo, hi).  Chunk boundaries
/// are line starts, so no line crosses chunks.
void parse_chunk(std::string_view text, std::size_t lo, std::size_t hi,
                 std::vector<RawEdge>& out) {
  const char* base = text.data();
  std::size_t p = lo;
  while (p < hi) {
    const void* nl = std::memchr(base + p, '\n', text.size() - p);
    const std::size_t line_end =
        nl != nullptr ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                 base)
                      : text.size();
    parse_line(base + p, base + line_end, out);
    p = line_end + 1;
  }
}

/// Dense ids (the common case for generated and preprocessed lists):
/// numbers every id in first-appearance order on `pool`, through one
/// 32-bit slot per id in [0, max_id], and writes the numbered edges in
/// file order: the numbering of the serial parser, which interns u then v
/// of each edge in file order.  Chunk c of C owns the ids that first
/// appear in it.  An id's slot holds, in turn:
///   1. the least chunk that holds the id (atomic min over all chunks);
///   2. C + c, once its owner c has met it and counted it;
///   3. 2C + its number, once its owner has numbered it, counting from the
///      number of ids that earlier chunks own (a prefix sum).
/// The three ranges are disjoint, so an owner tells an id it has not met
/// yet from one it has, and no other chunk takes the id for its own.  The
/// caller keeps 2C + max_id below the all-ones fill.  Frees `parts` and
/// returns the id count.
NodeId number_dense_ids(ThreadPool& pool,
                        std::vector<std::vector<RawEdge>>& parts,
                        const std::vector<std::size_t>& base,
                        std::uint64_t max_id, std::vector<Edge>& edges) {
  const std::size_t num_chunks = parts.size();
  const auto met = static_cast<std::uint32_t>(num_chunks);
  const auto numbered = static_cast<std::uint32_t>(2 * num_chunks);
  const std::size_t num_slots = static_cast<std::size_t>(max_id) + 1;
  const auto slot = std::make_unique_for_overwrite<std::uint32_t[]>(num_slots);
  parallel_for(pool, 0, num_slots, [&](std::size_t id) {
    slot[id] = std::numeric_limits<std::uint32_t>::max();
  });
  // Chunks read slots that other chunks write concurrently (the compare
  // fails either way), so every access before the last pass is atomic.
  const auto for_each_slot = [&](std::size_t c, const auto& visit) {
    for (const RawEdge& e : parts[c]) {
      visit(std::atomic_ref<std::uint32_t>(slot[e.u]));
      visit(std::atomic_ref<std::uint32_t>(slot[e.v]));
    }
  };
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        for_each_slot(c, [&](std::atomic_ref<std::uint32_t> s) {
          atomic_fetch_min(s, static_cast<std::uint32_t>(c));
        });
      },
      /*grain=*/1);

  std::vector<NodeId> first(num_chunks, 0);
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        NodeId count = 0;
        for_each_slot(c, [&](std::atomic_ref<std::uint32_t> s) {
          if (s.load(std::memory_order_relaxed) == c) {
            s.store(met + static_cast<std::uint32_t>(c),
                    std::memory_order_relaxed);
            ++count;
          }
        });
        first[c] = count;
      },
      /*grain=*/1);
  const NodeId num_ids = exclusive_prefix_sum(first);

  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        NodeId next = first[c];
        for_each_slot(c, [&](std::atomic_ref<std::uint32_t> s) {
          if (s.load(std::memory_order_relaxed) == met + c) {
            s.store(numbered + next++, std::memory_order_relaxed);
          }
        });
      },
      /*grain=*/1);

  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t c) {
        Edge* out = edges.data() + base[c];
        for (const RawEdge& e : parts[c]) {
          *out++ = {slot[e.u] - numbered, slot[e.v] - numbered};
        }
      },
      /*grain=*/1);
  // The chunks go before the slots.  Freeing a mapped block raises glibc's
  // mmap threshold to its size and its trim threshold to twice that; the
  // chunks' heap memory freed after that stays resident (about 90 MB more
  // peak RSS on a 10.6M-edge road text at 4 threads).
  parts = {};
  return num_ids;
}

/// Sparse ids: the serial hash-map numbering, in file order.
NodeId number_sparse_ids(const std::vector<std::vector<RawEdge>>& parts,
                         std::vector<Edge>& edges) {
  std::unordered_map<std::uint64_t, NodeId> compact;
  compact.reserve(2 * edges.size());
  auto intern = [&](std::uint64_t id) {
    const auto it = compact.emplace(id, static_cast<NodeId>(compact.size()));
    return it.first->second;
  };
  Edge* out = edges.data();
  for (const auto& part : parts) {
    for (const RawEdge& e : part) {
      const NodeId a = intern(e.u);
      const NodeId b = intern(e.v);
      *out++ = {a, b};
    }
  }
  return static_cast<NodeId>(compact.size());
}

// Chunking is a fixed byte grain, *not* a function of the thread count:
// the chunk decomposition (and therefore the merged, file-ordered edge
// list) is identical on 1, 2, or 64 threads.
constexpr std::size_t kParseChunkBytes = std::size_t{1} << 20;

}  // namespace

Graph parse_edge_list(std::string_view text, ThreadPool& pool) {
  const std::size_t nbytes = text.size();
  const std::size_t num_chunks =
      std::max<std::size_t>(1, (nbytes + kParseChunkBytes - 1) /
                                   kParseChunkBytes);

  // Chunk i starts at the first line start at or after i*kParseChunkBytes
  // (a line start is position 0 or any position preceded by '\n').
  std::vector<std::size_t> start(num_chunks + 1);
  start[0] = 0;
  start[num_chunks] = nbytes;
  for (std::size_t i = 1; i < num_chunks; ++i) {
    const std::size_t b = i * kParseChunkBytes;
    if (text[b - 1] == '\n') {
      start[i] = b;
    } else {
      const std::size_t nl = text.find('\n', b);
      start[i] = nl == std::string_view::npos ? nbytes : nl + 1;
    }
  }

  std::vector<std::vector<RawEdge>> parts(num_chunks);
  parallel_for(
      pool, 0, num_chunks,
      [&](std::size_t i) { parse_chunk(text, start[i], start[i + 1], parts[i]); },
      /*grain=*/1);

  // base[c]: file-order index of chunk c's first edge.
  std::vector<std::size_t> base(num_chunks + 1, 0);
  for (std::size_t c = 0; c < num_chunks; ++c) base[c] = parts[c].size();
  const std::size_t num_edges = exclusive_prefix_sum(base);

  std::vector<Edge> edges(num_edges);
  NodeId num_ids = 0;
  if (num_edges > 0) {
    const std::uint64_t max_id = parallel_reduce(
        pool, 0, num_chunks, std::uint64_t{0},
        [&](std::size_t c) {
          std::uint64_t m = 0;
          for (const RawEdge& e : parts[c]) m = std::max({m, e.u, e.v});
          return m;
        },
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); },
        /*grain=*/1);
    // Dense-path memory, for m = num_edges past the 2^16 floor: `parts`
    // (16 bytes per edge) and `edges` (8) live next to one 4-byte slot per
    // id below dense_limit = 4m, so the peak is 24m + 4 * (max_id + 1)
    // bytes.  Numbering through a file-order copy of `parts` and a 4-byte
    // table of ids instead peaks at max(32m, 24m + 4 * (max_id + 1)).
    // Larger ids take the hash map.
    const std::uint64_t dense_limit =
        std::max<std::uint64_t>(std::uint64_t{1} << 16, 4 * num_edges);
    const bool dense =
        max_id < dense_limit &&
        2 * std::uint64_t{num_chunks} + max_id <
            std::numeric_limits<std::uint32_t>::max();
    num_ids = dense ? number_dense_ids(pool, parts, base, max_id, edges)
                    : number_sparse_ids(parts, edges);
  }
  parts = {};

  GraphBuilder b(num_ids);
  b.adopt_edges(std::move(edges));
  return b.build(pool);
}

StatusOr<Graph> load_edge_list(const std::string& path, ThreadPool& pool) {
  if (const auto mapped = MappedFile::map(path)) {
    const std::string_view text(reinterpret_cast<const char*>(mapped->data()),
                                mapped->size());
    return parse_edge_list(text, pool);
  }
  // No mmap (unsupported platform, injected "io.mmap" fault, or an
  // empty/special file): slurp.  Byte-identical to the mapped path.
  std::ifstream in(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.open") || !in.good()) {
    return IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (GCLUS_FAULTPOINT("io.read") || in.bad()) {
    return IoError("read failed: " + path);
  }
  const std::string text = std::move(buf).str();
  return parse_edge_list(text, pool);
}

StatusOr<Graph> load_edge_list(const std::string& path) {
  return load_edge_list(path, ThreadPool::global());
}

Graph read_edge_list_file(const std::string& path, ThreadPool& pool) {
  auto loaded = load_edge_list(path, pool);
  GCLUS_CHECK(loaded.ok(), loaded.status().to_string());
  return std::move(loaded).value();
}

Graph read_edge_list_file(const std::string& path) {
  return read_edge_list_file(path, ThreadPool::global());
}

void write_edge_list(const Graph& g, std::ostream& out) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  GCLUS_CHECK(out.good(), "cannot open ", path.c_str());
  write_edge_list(g, out);
}

// ---- CSR v1 binary (legacy) -------------------------------------------------

void write_binary_file(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GCLUS_CHECK(out.good(), "cannot open ", path.c_str());
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t half_edges = g.num_half_edges();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof kBinaryMagic);
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&half_edges), sizeof half_edges);
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(EdgeId)));
  out.write(
      reinterpret_cast<const char*>(g.neighbor_array().data()),
      static_cast<std::streamsize>(g.neighbor_array().size() * sizeof(NodeId)));
  GCLUS_CHECK(out.good(), "write failed for ", path.c_str());
}

Graph read_binary_file(const std::string& path) {
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  GCLUS_CHECK(!ec && in.good(), "cannot open ", path.c_str());
  GCLUS_CHECK(file_bytes >= sizeof kBinaryMagic,
              "not a gclus binary graph: ", path.c_str());
  std::uint64_t magic = 0, n = 0, half_edges = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  GCLUS_CHECK(magic == kBinaryMagic, "not a gclus binary graph: ",
              path.c_str());
  // Validate the header against the file size *before* trusting it for
  // allocation sizes — a truncated or corrupted dump must fail cleanly,
  // not read garbage into CSR arrays.
  GCLUS_CHECK(file_bytes >= 24, "truncated gclus binary graph: ",
              path.c_str());
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  in.read(reinterpret_cast<char*>(&half_edges), sizeof half_edges);
  GCLUS_CHECK(n <= std::numeric_limits<NodeId>::max(),
              "corrupt gclus binary graph (node count ", n, "): ",
              path.c_str());
  GCLUS_CHECK(half_edges <= file_bytes / sizeof(NodeId),
              "truncated gclus binary graph: ", path.c_str());
  const std::uint64_t expected =
      24 + (n + 1) * sizeof(EdgeId) + half_edges * sizeof(NodeId);
  GCLUS_CHECK(file_bytes == expected, "truncated gclus binary graph: ",
              path.c_str(), " (expected ", expected, " bytes, found ",
              file_bytes, ")");
  std::vector<EdgeId> offsets(n + 1);
  std::vector<NodeId> neighbors(half_edges);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(neighbors.size() * sizeof(NodeId)));
  GCLUS_CHECK(in.good(), "truncated gclus binary graph: ", path.c_str());
  return Graph(std::move(offsets), std::move(neighbors));
}

// ---- CSR v2 binary ----------------------------------------------------------

namespace {

struct Csr2Header {
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint64_t offsets_pos = 0;
  std::uint64_t neighbors_pos = 0;
  std::uint64_t weights_pos = 0;
  std::uint64_t checksum = 0;
};

/// Core writer shared by the weighted and unweighted entry points.
/// `weighted` is explicit (not inferred from the span, whose data pointer
/// is null for edgeless graphs).  kIoError on any write failure; the
/// public write_csr_file wrappers turn that into a GCLUS_CHECK abort, the
/// best-effort consumers (try_write_csr_file, the dataset cache) don't.
[[nodiscard]] Status write_csr2(const std::string& path,
                                std::span<const EdgeId> offsets,
                                std::span<const NodeId> neighbors,
                                bool weighted,
                                std::span<const Weight> weights) {
  Csr2Header h;
  h.num_nodes = offsets.size() - 1;
  h.num_half_edges = neighbors.size();
  h.offsets_pos = align_up(kCsr2HeaderBytes, kCsr2Align);
  h.neighbors_pos =
      align_up(h.offsets_pos + offsets.size() * sizeof(EdgeId), kCsr2Align);
  const std::uint64_t neighbors_end =
      h.neighbors_pos + neighbors.size() * sizeof(NodeId);
  if (weighted) {
    h.flags |= kCsr2FlagWeights;
    h.weights_pos = align_up(neighbors_end, kCsr2Align);
  }

  h.checksum = fnv1a_array_le(kFnvOffsetBasis, offsets.data(), offsets.size());
  h.checksum = fnv1a_array_le(h.checksum, neighbors.data(), neighbors.size());
  if (weighted) {
    h.checksum = fnv1a_array_le(h.checksum, weights.data(), weights.size());
  }

  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.write") || !out.good()) {
    return IoError("cannot open for writing: " + path);
  }
  put_le(out, kCsr2Magic);
  put_le(out, kCsr2Version);
  put_le(out, h.flags);
  put_le(out, h.num_nodes);
  put_le(out, h.num_half_edges);
  put_le(out, h.offsets_pos);
  put_le(out, h.neighbors_pos);
  put_le(out, h.weights_pos);
  put_le(out, h.checksum);
  put_le(out, std::uint64_t{0});  // reserved
  write_zeros(out, h.offsets_pos - kCsr2HeaderBytes);
  write_array_le(out, offsets.data(), offsets.size());
  write_zeros(out, h.neighbors_pos -
                       (h.offsets_pos + offsets.size() * sizeof(EdgeId)));
  write_array_le(out, neighbors.data(), neighbors.size());
  if (weighted) {
    write_zeros(out, h.weights_pos - neighbors_end);
    write_array_le(out, weights.data(), weights.size());
  }
  if (!out.good()) {
    // ofstream hides errno, so disk-full vs hard error is not
    // distinguishable here; both are terminal for this write.
    return IoError("write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

/// Parses and sanity-checks a CSR v2 header against the buffer size.
/// kInvalidArgument: the bytes don't claim to be a (supported) CSR v2
/// file; kDataLoss: they do, but the structure is inconsistent.
Status parse_csr2_header(const std::byte* data, std::uint64_t size,
                         Csr2Header& h) {
  if (size < 8 || read_le_at<std::uint64_t>(data) != kCsr2Magic) {
    return InvalidArgumentError("not a gclus CSR v2 file (bad magic)");
  }
  if (size < kCsr2HeaderBytes) {
    return DataLossError("file shorter than a CSR v2 header");
  }
  if (read_le_at<std::uint32_t>(data + 8) != kCsr2Version) {
    return InvalidArgumentError("unsupported CSR version");
  }
  h.flags = read_le_at<std::uint32_t>(data + 12);
  if ((h.flags & ~kCsr2KnownFlags) != 0) {
    return InvalidArgumentError("unknown CSR v2 flags");
  }
  h.num_nodes = read_le_at<std::uint64_t>(data + 16);
  h.num_half_edges = read_le_at<std::uint64_t>(data + 24);
  h.offsets_pos = read_le_at<std::uint64_t>(data + 32);
  h.neighbors_pos = read_le_at<std::uint64_t>(data + 40);
  h.weights_pos = read_le_at<std::uint64_t>(data + 48);
  h.checksum = read_le_at<std::uint64_t>(data + 56);
  if (read_le_at<std::uint64_t>(data + 64) != 0) {
    // The reserved field is not covered by the payload checksum, so a
    // flipped bit here would otherwise load silently.
    return InvalidArgumentError("nonzero reserved header field");
  }

  if (h.num_nodes > std::numeric_limits<NodeId>::max()) {
    return DataLossError("node count exceeds NodeId range");
  }
  if ((h.flags & kCsr2FlagCompressed) != 0) {
    // Compressed layout: offsets_pos locates the parameter block, the
    // other section pointers are unused.  Section bounds are validated by
    // parse_cz2 against the sizes the parameters imply.
    if ((h.flags & kCsr2FlagWeights) != 0) {
      return InvalidArgumentError("compressed CSR v2 files cannot carry "
                                  "weights");
    }
    if (h.neighbors_pos != 0 || h.weights_pos != 0) {
      return DataLossError("compressed CSR v2 header has stray section "
                           "positions");
    }
    if (h.offsets_pos < kCsr2HeaderBytes || h.offsets_pos % kCsr2Align != 0 ||
        h.offsets_pos > size || kCz2ParamsBytes > size - h.offsets_pos) {
      return DataLossError("truncated CSR v2 file (compressed parameter "
                           "block out of bounds)");
    }
    return OkStatus();
  }
  // Section bounds, written to be overflow-safe: divide before multiply.
  const std::uint64_t num_offsets = h.num_nodes + 1;
  if (h.offsets_pos < kCsr2HeaderBytes || h.offsets_pos % kCsr2Align != 0 ||
      h.offsets_pos > size || num_offsets > (size - h.offsets_pos) / 8) {
    return DataLossError("truncated CSR v2 file (offsets section out of "
                         "bounds)");
  }
  if (h.neighbors_pos < h.offsets_pos + num_offsets * 8 ||
      h.neighbors_pos % kCsr2Align != 0 || h.neighbors_pos > size ||
      h.num_half_edges > (size - h.neighbors_pos) / 4) {
    return DataLossError("truncated CSR v2 file (neighbors section out of "
                         "bounds)");
  }
  if ((h.flags & kCsr2FlagWeights) != 0) {
    if (h.weights_pos < h.neighbors_pos + h.num_half_edges * 4 ||
        h.weights_pos % kCsr2Align != 0 || h.weights_pos > size ||
        h.num_half_edges > (size - h.weights_pos) / 8) {
      return DataLossError("truncated CSR v2 file (weights section out of "
                           "bounds)");
    }
  } else if (h.weights_pos != 0) {
    return DataLossError("weights position set without the weights flag");
  }
  return OkStatus();
}

/// Structural validation of decoded arrays: offsets monotone from 0 to m,
/// every neighbor id in range.  Guards algorithms against out-of-bounds
/// indexing on corrupted (but checksum-consistent, e.g. maliciously
/// crafted) files.
Status validate_csr_arrays(std::span<const EdgeId> offsets,
                           std::span<const NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size()) {
    return DataLossError("corrupt CSR v2 payload (offset endpoints)");
  }
  for (std::size_t u = 1; u < offsets.size(); ++u) {
    if (offsets[u] < offsets[u - 1]) {
      return DataLossError("corrupt CSR v2 payload (offsets not monotone)");
    }
  }
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  for (const NodeId v : neighbors) {
    if (v >= n) {
      return DataLossError("corrupt CSR v2 payload (neighbor id out of "
                           "range)");
    }
  }
  return OkStatus();
}

struct LoadedCsr2 {
  Csr2Header header;
  // Exactly one of these is populated: mapped spans (+ the mapping) or
  // owned vectors.
  std::span<const EdgeId> offsets;
  std::span<const NodeId> neighbors;
  std::span<const Weight> weights;
  std::shared_ptr<MappedFile> mapping;
  std::vector<EdgeId> owned_offsets;
  std::vector<NodeId> owned_neighbors;
  std::vector<Weight> owned_weights;
};

/// Loads + validates a CSR v2 file into spans (mapped) or vectors
/// (copied).
Status load_csr2(const std::string& path, const CsrLoadOptions& opts,
                 LoadedCsr2& out) {
  // mmap zero-copy requires a little-endian host (the arrays are used in
  // place); BE hosts decode through the copy path.
  const bool can_mmap = mmap_supported() && kLittleEndian;
  bool use_mmap = false;
  switch (opts.mode) {
    case CsrLoadMode::kAuto:
      use_mmap = can_mmap;
      break;
    case CsrLoadMode::kMmap:
      if (!can_mmap) {
        return InvalidArgumentError(
            "mmap loading not supported on this platform");
      }
      use_mmap = true;
      break;
    case CsrLoadMode::kCopy:
      break;
  }

  const std::byte* data = nullptr;
  std::uint64_t size = 0;
  std::vector<std::byte> bytes;
  if (use_mmap) {
    out.mapping = MappedFile::map(path);
    if (out.mapping == nullptr) {
      if (opts.mode == CsrLoadMode::kMmap) return IoError("cannot mmap file");
      use_mmap = false;  // fall back to read()
    } else {
      data = out.mapping->data();
      size = out.mapping->size();
    }
  }
  if (!use_mmap) {
    GCLUS_ASSIGN_OR_RETURN(bytes, read_file_bytes(path));
    data = bytes.data();
    size = bytes.size();
  }

  Csr2Header& h = out.header;
  GCLUS_RETURN_IF_ERROR(parse_csr2_header(data, size, h));
  if ((h.flags & kCsr2FlagCompressed) != 0) {
    return InvalidArgumentError(
        "compressed CSR v2 file (use load_compressed_csr)");
  }
  const bool weighted = (h.flags & kCsr2FlagWeights) != 0;
  const std::uint64_t num_offsets = h.num_nodes + 1;

  if (opts.verify) {
    std::uint64_t sum = fnv1a(kFnvOffsetBasis, data + h.offsets_pos,
                              static_cast<std::size_t>(num_offsets) * 8);
    sum = fnv1a(sum, data + h.neighbors_pos,
                static_cast<std::size_t>(h.num_half_edges) * 4);
    if (weighted) {
      sum = fnv1a(sum, data + h.weights_pos,
                  static_cast<std::size_t>(h.num_half_edges) * 8);
    }
    if (sum != h.checksum) return DataLossError("CSR v2 checksum mismatch");
  }

  if (use_mmap) {
    out.offsets = {reinterpret_cast<const EdgeId*>(data + h.offsets_pos),
                   static_cast<std::size_t>(num_offsets)};
    out.neighbors = {reinterpret_cast<const NodeId*>(data + h.neighbors_pos),
                     static_cast<std::size_t>(h.num_half_edges)};
    if (weighted) {
      out.weights = {reinterpret_cast<const Weight*>(data + h.weights_pos),
                     static_cast<std::size_t>(h.num_half_edges)};
    }
  } else {
    out.owned_offsets =
        decode_array_le<EdgeId>(data + h.offsets_pos, num_offsets);
    out.owned_neighbors =
        decode_array_le<NodeId>(data + h.neighbors_pos, h.num_half_edges);
    if (weighted) {
      out.owned_weights =
          decode_array_le<Weight>(data + h.weights_pos, h.num_half_edges);
    }
    out.offsets = out.owned_offsets;
    out.neighbors = out.owned_neighbors;
    out.weights = out.owned_weights;
    out.mapping = nullptr;
  }

  if (opts.verify) {
    GCLUS_RETURN_IF_ERROR(validate_csr_arrays(out.offsets, out.neighbors));
  }
  return OkStatus();
}

// ---- CSR v2 compressed layout ----------------------------------------------

/// Parsed parameter block of a compressed file: encoding parameters plus
/// the absolute byte position of every section.
struct Cz2Layout {
  CompressedParams params;
  CompressedSectionSizes sizes;
  std::uint64_t degrees_pos = 0;
  std::uint64_t anchors_pos = 0;
  std::uint64_t locals_pos = 0;
  std::uint64_t adj_pos = 0;
  std::uint64_t perm_pos = 0;
  std::uint64_t inv_pos = 0;
};

/// Validates one section position against the file size.  `pos == 0` with
/// `bytes == 0` marks an absent section (perm/inv when not relabeled).
bool cz2_section_in_bounds(std::uint64_t pos, std::uint64_t bytes,
                           std::uint64_t file_size, std::uint64_t min_pos) {
  if (bytes == 0 && pos == 0) return true;
  return pos >= min_pos && pos % kCsr2Align == 0 && pos <= file_size &&
         bytes <= file_size - pos;
}

Status parse_cz2(const std::byte* data, std::uint64_t size,
                 const Csr2Header& h, Cz2Layout& lay) {
  const std::byte* b = data + h.offsets_pos;
  if (read_le_at<std::uint32_t>(b) != kCz2ParamsVersion) {
    return InvalidArgumentError("unsupported compressed CSR parameter "
                                "version");
  }
  CompressedParams& p = lay.params;
  p.num_nodes = h.num_nodes;
  p.num_half_edges = h.num_half_edges;
  p.first_mode = static_cast<std::uint8_t>(b[4]);
  p.k_first = static_cast<std::uint8_t>(b[5]);
  p.k_gap = static_cast<std::uint8_t>(b[6]);
  p.relabeled = static_cast<std::uint8_t>(b[7]) != 0;
  p.degree_bits = read_le_at<std::uint32_t>(b + 8);
  p.local_bits = read_le_at<std::uint32_t>(b + 12);
  p.adj_bytes = read_le_at<std::uint64_t>(b + 16);
  lay.degrees_pos = read_le_at<std::uint64_t>(b + 24);
  lay.anchors_pos = read_le_at<std::uint64_t>(b + 32);
  lay.locals_pos = read_le_at<std::uint64_t>(b + 40);
  lay.adj_pos = read_le_at<std::uint64_t>(b + 48);
  lay.perm_pos = read_le_at<std::uint64_t>(b + 56);
  lay.inv_pos = read_le_at<std::uint64_t>(b + 64);
  for (std::uint64_t i = 72; i < kCz2ParamsBytes; ++i) {
    if (b[i] != std::byte{0}) {
      return DataLossError("nonzero reserved compressed parameter field");
    }
  }
  if (static_cast<std::uint8_t>(b[7]) > 1 || p.first_mode > 1 ||
      p.k_first > cz::kMaxK || p.k_gap > cz::kMaxK || p.degree_bits > 32 ||
      p.local_bits > 56 || p.adj_bytes > size) {
    return DataLossError("compressed CSR parameters out of range");
  }
  lay.sizes = compressed_section_sizes(p);
  const std::uint64_t min_pos = h.offsets_pos + kCz2ParamsBytes;
  if (!cz2_section_in_bounds(lay.degrees_pos, lay.sizes.degrees, size,
                             min_pos) ||
      !cz2_section_in_bounds(lay.anchors_pos, lay.sizes.anchors, size,
                             min_pos) ||
      !cz2_section_in_bounds(lay.locals_pos, lay.sizes.locals, size,
                             min_pos) ||
      !cz2_section_in_bounds(lay.adj_pos, lay.sizes.adj, size, min_pos) ||
      !cz2_section_in_bounds(lay.perm_pos, lay.sizes.perm, size, min_pos) ||
      !cz2_section_in_bounds(lay.inv_pos, lay.sizes.inv, size, min_pos)) {
    return DataLossError("truncated CSR v2 file (compressed section out of "
                         "bounds)");
  }
  if (p.relabeled != (lay.perm_pos != 0) || p.relabeled != (lay.inv_pos != 0)) {
    return DataLossError("compressed CSR relabeling sections inconsistent "
                         "with the relabeled flag");
  }
  return OkStatus();
}

/// Serializes the parameter block into a 128-byte buffer (for writing and
/// for checksum computation).
void store_cz2_params(const Cz2Layout& lay, std::byte* out) {
  std::memset(out, 0, kCz2ParamsBytes);
  const CompressedParams& p = lay.params;
  store_le_at(out, kCz2ParamsVersion);
  out[4] = static_cast<std::byte>(p.first_mode);
  out[5] = static_cast<std::byte>(p.k_first);
  out[6] = static_cast<std::byte>(p.k_gap);
  out[7] = static_cast<std::byte>(p.relabeled ? 1 : 0);
  store_le_at(out + 8, p.degree_bits);
  store_le_at(out + 12, p.local_bits);
  store_le_at(out + 16, p.adj_bytes);
  store_le_at(out + 24, lay.degrees_pos);
  store_le_at(out + 32, lay.anchors_pos);
  store_le_at(out + 40, lay.locals_pos);
  store_le_at(out + 48, lay.adj_pos);
  store_le_at(out + 56, lay.perm_pos);
  store_le_at(out + 64, lay.inv_pos);
}

}  // namespace

bool mmap_supported() {
#ifdef GCLUS_HAS_MMAP
  return true;
#else
  return false;
#endif
}

StatusOr<FileContents> read_or_map_file(const std::string& path,
                                        bool prefer_mmap) {
  if (prefer_mmap && mmap_supported()) {
    if (auto mapping = MappedFile::map(path)) {
      FileContents fc;
      fc.bytes = {mapping->data(), mapping->size()};
      fc.mapped = true;
      fc.keepalive = std::move(mapping);
      return fc;
    }
    // Fall through to the read() path — the kAuto degradation.
  }
  std::vector<std::byte> bytes;
  GCLUS_ASSIGN_OR_RETURN(bytes, read_file_bytes(path));
  auto owned = std::make_shared<std::vector<std::byte>>(std::move(bytes));
  FileContents fc;
  fc.bytes = {owned->data(), owned->size()};
  fc.keepalive = std::move(owned);
  return fc;
}

Status write_csr(const Graph& g, const std::string& path) {
  return write_csr2(path, g.offsets(), g.neighbor_array(),
                    /*weighted=*/false, {});
}

Status write_csr(const WeightedGraph& g, const std::string& path) {
  // Split the interleaved adjacency into the on-disk section pair.
  const auto adj = g.adjacency();
  std::vector<NodeId> neighbors(adj.size());
  std::vector<Weight> weights(adj.size());
  for (std::size_t i = 0; i < adj.size(); ++i) {
    neighbors[i] = adj[i].to;
    weights[i] = adj[i].w;
  }
  return write_csr2(path, g.offsets(), neighbors, /*weighted=*/true, weights);
}

Status write_csr(const CompressedGraph& g, const std::string& path) {
  Cz2Layout lay;
  lay.params = g.params();
  lay.sizes = compressed_section_sizes(lay.params);
  GCLUS_CHECK(lay.sizes.degrees == g.degrees_section().size() &&
                  lay.sizes.anchors == g.anchors_section().size() &&
                  lay.sizes.locals == g.locals_section().size() &&
                  lay.sizes.adj == g.adj_section().size() &&
                  lay.sizes.perm == g.perm_section().size() &&
                  lay.sizes.inv == g.inv_section().size(),
              "compressed graph sections inconsistent with parameters");
  const std::uint64_t params_pos = align_up(kCsr2HeaderBytes, kCsr2Align);
  std::uint64_t pos = align_up(params_pos + kCz2ParamsBytes, kCsr2Align);
  auto place = [&](std::uint64_t bytes) {
    const std::uint64_t at = pos;
    pos = align_up(pos + bytes, kCsr2Align);
    return at;
  };
  lay.degrees_pos = place(lay.sizes.degrees);
  lay.anchors_pos = place(lay.sizes.anchors);
  lay.locals_pos = place(lay.sizes.locals);
  lay.adj_pos = place(lay.sizes.adj);
  lay.perm_pos = lay.params.relabeled ? place(lay.sizes.perm) : 0;
  lay.inv_pos = lay.params.relabeled ? place(lay.sizes.inv) : 0;

  std::byte params_block[kCz2ParamsBytes];
  store_cz2_params(lay, params_block);
  std::uint64_t checksum =
      fnv1a(kFnvOffsetBasis, params_block, kCz2ParamsBytes);
  for (const auto section :
       {g.degrees_section(), g.anchors_section(), g.locals_section(),
        g.adj_section(), g.perm_section(), g.inv_section()}) {
    checksum = fnv1a(checksum, section.data(), section.size());
  }

  std::ofstream out(path, std::ios::binary);
  if (GCLUS_FAULTPOINT("io.write") || !out.good()) {
    return IoError("cannot open for writing: " + path);
  }
  put_le(out, kCsr2Magic);
  put_le(out, kCsr2Version);
  put_le(out, kCsr2FlagCompressed);
  put_le(out, lay.params.num_nodes);
  put_le(out, lay.params.num_half_edges);
  put_le(out, params_pos);
  put_le(out, std::uint64_t{0});  // neighbors_pos (unused)
  put_le(out, std::uint64_t{0});  // weights_pos (unused)
  put_le(out, checksum);
  put_le(out, std::uint64_t{0});  // reserved
  write_zeros(out, params_pos - kCsr2HeaderBytes);
  out.write(reinterpret_cast<const char*>(params_block), kCz2ParamsBytes);
  std::uint64_t written = params_pos + kCz2ParamsBytes;
  auto emit = [&](std::uint64_t at, std::span<const std::byte> bytes) {
    if (bytes.empty()) return;
    write_zeros(out, at - written);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    written = at + bytes.size();
  };
  emit(lay.degrees_pos, g.degrees_section());
  emit(lay.anchors_pos, g.anchors_section());
  emit(lay.locals_pos, g.locals_section());
  emit(lay.adj_pos, g.adj_section());
  emit(lay.perm_pos, g.perm_section());
  emit(lay.inv_pos, g.inv_section());
  if (!out.good()) {
    return IoError("write failed (disk full or I/O error): " + path);
  }
  return OkStatus();
}

StatusOr<CompressedGraph> load_compressed_csr(const std::string& path,
                                              const CsrLoadOptions& opts) {
  // The compressed sections are defined as byte sequences (LSB-first
  // bitstreams, explicit little-endian fields), so zero-copy mapping is
  // endian-independent — unlike the plain layout, kMmap works everywhere
  // mmap exists.
  bool use_mmap = false;
  switch (opts.mode) {
    case CsrLoadMode::kAuto:
      use_mmap = mmap_supported();
      break;
    case CsrLoadMode::kMmap:
      if (!mmap_supported()) {
        return InvalidArgumentError(
            path + ": mmap loading not supported on this platform");
      }
      use_mmap = true;
      break;
    case CsrLoadMode::kCopy:
      break;
  }

  const std::byte* data = nullptr;
  std::uint64_t size = 0;
  std::shared_ptr<const void> keepalive;
  if (use_mmap) {
    if (auto mapping = MappedFile::map(path)) {
      data = mapping->data();
      size = mapping->size();
      keepalive = std::move(mapping);
    } else if (opts.mode == CsrLoadMode::kMmap) {
      return IoError(path + ": cannot mmap file");
    } else {
      use_mmap = false;  // fall back to read()
    }
  }
  if (!use_mmap) {
    auto bytes = read_file_bytes(path);
    if (!bytes.ok()) return Status(bytes.status()).with_context(path);
    auto owned =
        std::make_shared<std::vector<std::byte>>(std::move(bytes).value());
    data = owned->data();
    size = owned->size();
    keepalive = std::move(owned);
  }

  Csr2Header h;
  GCLUS_RETURN_IF_ERROR(parse_csr2_header(data, size, h).with_context(path));
  if ((h.flags & kCsr2FlagWeights) != 0) {
    return InvalidArgumentError(
        path + ": weighted CSR v2 file (use load_weighted_csr)");
  }
  if ((h.flags & kCsr2FlagCompressed) == 0) {
    return InvalidArgumentError(path + ": plain CSR v2 file (use load_csr)");
  }
  Cz2Layout lay;
  GCLUS_RETURN_IF_ERROR(parse_cz2(data, size, h, lay).with_context(path));

  if (opts.verify) {
    std::uint64_t sum =
        fnv1a(kFnvOffsetBasis, data + h.offsets_pos, kCz2ParamsBytes);
    const std::pair<std::uint64_t, std::uint64_t> sections[] = {
        {lay.degrees_pos, lay.sizes.degrees},
        {lay.anchors_pos, lay.sizes.anchors},
        {lay.locals_pos, lay.sizes.locals},
        {lay.adj_pos, lay.sizes.adj},
        {lay.perm_pos, lay.sizes.perm},
        {lay.inv_pos, lay.sizes.inv},
    };
    for (const auto& [at, bytes] : sections) {
      sum = fnv1a(sum, data + at, static_cast<std::size_t>(bytes));
    }
    if (sum != h.checksum) {
      return DataLossError(path + ": CSR v2 checksum mismatch");
    }
  }

  auto section = [&](std::uint64_t at,
                     std::uint64_t bytes) -> std::span<const std::byte> {
    return {data + at, static_cast<std::size_t>(bytes)};
  };
  CompressedGraph cg(lay.params, section(lay.degrees_pos, lay.sizes.degrees),
                     section(lay.anchors_pos, lay.sizes.anchors),
                     section(lay.locals_pos, lay.sizes.locals),
                     section(lay.adj_pos, lay.sizes.adj),
                     section(lay.perm_pos, lay.sizes.perm),
                     section(lay.inv_pos, lay.sizes.inv),
                     std::move(keepalive));
  if (opts.verify) {
    GCLUS_RETURN_IF_ERROR(
        validate_compressed_structure(cg, ThreadPool::global())
            .with_context(path));
  }
  return cg;
}

StatusOr<Graph> load_csr(const std::string& path, const CsrLoadOptions& opts) {
  // Sniff the flags word: compressed files route through the compressed
  // loader and materialize, so plain-CSR consumers accept either layout.
  {
    std::ifstream in(path, std::ios::binary);
    std::byte head[16];
    if (in.good()) {
      in.read(reinterpret_cast<char*>(head), sizeof head);
      if (in.good() && read_le_at<std::uint64_t>(head) == kCsr2Magic &&
          (read_le_at<std::uint32_t>(head + 12) & kCsr2FlagCompressed) != 0) {
        auto cg = load_compressed_csr(path, opts);
        if (!cg.ok()) return cg.status();
        return cg.value().decompress();
      }
    }
  }
  LoadedCsr2 loaded;
  GCLUS_RETURN_IF_ERROR(load_csr2(path, opts, loaded).with_context(path));
  if ((loaded.header.flags & kCsr2FlagWeights) != 0) {
    return InvalidArgumentError(
        path + ": weighted CSR v2 file (use load_weighted_csr_file)");
  }
  if (loaded.mapping != nullptr) {
    return Graph(loaded.offsets, loaded.neighbors, std::move(loaded.mapping));
  }
  return Graph(std::move(loaded.owned_offsets),
               std::move(loaded.owned_neighbors));
}

StatusOr<WeightedGraph> load_weighted_csr(const std::string& path,
                                          const CsrLoadOptions& opts) {
  // Weighted graphs interleave (to, w) in memory, so loading always
  // materializes; map the file read-only all the same (kAuto) to skip the
  // intermediate buffer.
  LoadedCsr2 loaded;
  GCLUS_RETURN_IF_ERROR(load_csr2(path, opts, loaded).with_context(path));
  if ((loaded.header.flags & kCsr2FlagWeights) == 0) {
    return InvalidArgumentError(
        path + ": unweighted CSR v2 file (use load_csr_file)");
  }
  std::vector<EdgeId> offsets(loaded.offsets.begin(), loaded.offsets.end());
  std::vector<WeightedHalfEdge> adj(loaded.neighbors.size());
  for (std::size_t i = 0; i < adj.size(); ++i) {
    adj[i] = {loaded.neighbors[i], loaded.weights[i]};
  }
  return WeightedGraph::from_csr(std::move(offsets), std::move(adj));
}

void write_csr_file(const Graph& g, const std::string& path) {
  const Status st = write_csr(g, path);
  GCLUS_CHECK(st.ok(), "cannot write CSR v2 file: ", st.to_string());
}

void write_csr_file(const WeightedGraph& g, const std::string& path) {
  const Status st = write_csr(g, path);
  GCLUS_CHECK(st.ok(), "cannot write CSR v2 file: ", st.to_string());
}

void write_csr_file(const CompressedGraph& g, const std::string& path) {
  const Status st = write_csr(g, path);
  GCLUS_CHECK(st.ok(), "cannot write CSR v2 file: ", st.to_string());
}

CompressedGraph load_compressed_csr_file(const std::string& path,
                                         const CsrLoadOptions& opts) {
  auto loaded = load_compressed_csr(path, opts);
  GCLUS_CHECK(loaded.ok(), loaded.status().to_string());
  return std::move(loaded).value();
}

bool try_write_csr_file(const Graph& g, const std::string& path) {
  return write_csr(g, path).ok();
}

Graph load_csr_file(const std::string& path, const CsrLoadOptions& opts) {
  auto loaded = load_csr(path, opts);
  GCLUS_CHECK(loaded.ok(), loaded.status().to_string());
  return std::move(loaded).value();
}

std::optional<Graph> try_load_csr_file(const std::string& path,
                                       const CsrLoadOptions& opts) {
  auto loaded = load_csr(path, opts);
  if (!loaded.ok()) return std::nullopt;
  return std::move(loaded).value();
}

WeightedGraph load_weighted_csr_file(const std::string& path,
                                     const CsrLoadOptions& opts) {
  auto loaded = load_weighted_csr(path, opts);
  GCLUS_CHECK(loaded.ok(), loaded.status().to_string());
  return std::move(loaded).value();
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::byte head[8];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in.good()) return false;
  return read_le_at<std::uint64_t>(head) == kCsr2Magic;
}

std::optional<Csr2Info> probe_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::byte head[kCsr2HeaderBytes];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in.good()) return std::nullopt;
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  if (read_le_at<std::uint64_t>(head) != kCsr2Magic) return std::nullopt;
  Csr2Info info;
  info.version = read_le_at<std::uint32_t>(head + 8);
  if (info.version != kCsr2Version) return std::nullopt;
  const auto flags = read_le_at<std::uint32_t>(head + 12);
  info.weighted = (flags & kCsr2FlagWeights) != 0;
  info.compressed = (flags & kCsr2FlagCompressed) != 0;
  info.num_nodes = read_le_at<std::uint64_t>(head + 16);
  info.num_half_edges = read_le_at<std::uint64_t>(head + 24);
  info.file_bytes = file_bytes;
  return info;
}

}  // namespace gclus::io
