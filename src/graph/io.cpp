#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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

#include "common/check.hpp"
#include "graph/builder.hpp"
#include "graph/container.hpp"
#include "graph/wire.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus::io {

using namespace wire;  // the shared little-endian wire dialect

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
  GCLUS_ASSIGN_OR_RETURN(const FileContents file, read_or_map_file(path));
  return parse_edge_list({reinterpret_cast<const char*>(file.bytes.data()),
                          file.bytes.size()},
                         pool);
}

StatusOr<Graph> load_edge_list(const std::string& path) {
  return load_edge_list(path, ThreadPool::global());
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


// ---- CSR v2 binary ----------------------------------------------------------

namespace {

// Bytes "GCLUSCS2" when stored little-endian.
constexpr std::uint64_t kCsr2Magic = 0x32534353554C4347ULL;
constexpr std::uint32_t kCsr2Version = 3;
constexpr std::uint32_t kCsr2FlagWeights = 1u << 0;
constexpr std::uint32_t kCsr2FlagCompressed = 1u << 1;
constexpr std::uint32_t kCsr2KnownFlags =
    kCsr2FlagWeights | kCsr2FlagCompressed;
constexpr std::uint64_t kCsr2HeaderBytes = 72;
constexpr std::string_view kCsr2Format = "CSR v2 file";

// Compressed layout (flags bit 1): offsets_pos points at a 128-byte
// parameter block, the first section, instead of an offsets array;
// neighbors_pos and weights_pos are zero.  The block records the
// per-graph encoding choices (graph/compressed.hpp) and the positions of
// the three sections that follow it; section *sizes* are derived through
// compressed_section_sizes, so the reader's bounds checks cannot drift
// from the writer.
//
//   offset  size  field
//   0       4     cparams version (1)
//   4       1     first_mode
//   5       1     k_first
//   6       1     k_gap
//   7       1     0 (retired relabeled flag)
//   8       4     degree_bits
//   12      4     local_bits
//   16      8     adj_bytes
//   24      8     degrees_pos
//   32      8     anchors_pos
//   40      8     adj_pos (retired locals_pos: the empty section sat there)
//   48      8     adj_pos
//   56      8     0 (retired perm_pos)
//   64      8     0 (retired inv_pos)
//   72      56    reserved (zeros)
//
// The retired fields keep every file written without relabeling
// byte-identical.  A file that sets them otherwise has the relabeled
// layout, which no longer loads: kDataLoss (the dataset cache then
// regenerates the entry).
constexpr std::uint64_t kCz2ParamsBytes = 128;
constexpr std::uint32_t kCz2ParamsVersion = 1;
constexpr std::size_t kCz2Sections = 3;  // degrees, anchors, adj

struct Csr2Header {
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint64_t offsets_pos = 0;
  std::uint64_t neighbors_pos = 0;
  std::uint64_t weights_pos = 0;
  std::uint64_t checksum = 0;
};

/// Checksums `sections` into the header and writes the file.
Status write_csr2(const std::string& path, Csr2Header h,
                  std::span<const Section> sections) {
  h.checksum = container_checksum({}, sections);
  std::array<std::byte, kCsr2HeaderBytes> header{};
  store_le_at(header.data() + 0, kCsr2Magic);
  store_le_at(header.data() + 8, kCsr2Version);
  store_le_at(header.data() + 12, h.flags);
  store_le_at(header.data() + 16, h.num_nodes);
  store_le_at(header.data() + 24, h.num_half_edges);
  store_le_at(header.data() + 32, h.offsets_pos);
  store_le_at(header.data() + 40, h.neighbors_pos);
  store_le_at(header.data() + 48, h.weights_pos);
  store_le_at(header.data() + 56, h.checksum);
  return write_container(path, header, sections, "io.write");
}

/// Plain (and weighted) layout: offsets, neighbors, then weights when
/// `weighted` — explicit, not inferred from the span, whose data pointer
/// is null for edgeless graphs.
Status write_plain_csr2(const std::string& path,
                        std::span<const EdgeId> offsets,
                        std::span<const NodeId> neighbors, bool weighted,
                        std::span<const Weight> weights) {
  std::vector<Section> sections = {Section::of(offsets),
                                   Section::of(neighbors)};
  if (weighted) sections.push_back(Section::of(weights));
  const auto pos = place_sections(kCsr2HeaderBytes, sections);
  Csr2Header h;
  h.flags = weighted ? kCsr2FlagWeights : 0;
  h.num_nodes = offsets.size() - 1;
  h.num_half_edges = neighbors.size();
  h.offsets_pos = pos[0];
  h.neighbors_pos = pos[1];
  h.weights_pos = weighted ? pos[2] : 0;
  return write_csr2(path, h, sections);
}

/// Parses and sanity-checks a CSR v2 header against the file size.
/// kInvalidArgument: the bytes don't claim to be a (supported) CSR v2
/// file; kDataLoss: they do, but the structure is inconsistent.
Status parse_csr2_header(std::span<const std::byte> file, Csr2Header& h) {
  const std::byte* data = file.data();
  if (file.size() < 8 || read_le_at<std::uint64_t>(data) != kCsr2Magic) {
    return InvalidArgumentError("not a gclus CSR v2 file (bad magic)");
  }
  if (file.size() < kCsr2HeaderBytes) {
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
    if ((h.flags & kCsr2FlagWeights) != 0) {
      return InvalidArgumentError("compressed CSR v2 files cannot carry "
                                  "weights");
    }
    if (h.neighbors_pos != 0 || h.weights_pos != 0) {
      return DataLossError("compressed CSR v2 header has stray section "
                           "positions");
    }
  } else if ((h.flags & kCsr2FlagWeights) == 0 && h.weights_pos != 0) {
    return DataLossError("weights position set without the weights flag");
  }
  return OkStatus();
}

/// Maps (or reads) a CSR v2 file once, as `mode` asks, and parses its
/// header; every loader dispatches on the flags from here.
struct Csr2File {
  FileContents file;
  Csr2Header header;
};

StatusOr<Csr2File> open_csr2(const std::string& path, CsrLoadMode mode) {
  if (mode == CsrLoadMode::kMmap && !mmap_supported()) {
    return InvalidArgumentError(
        path + ": mmap loading not supported on this platform");
  }
  Csr2File f;
  GCLUS_ASSIGN_OR_RETURN(f.file,
                         read_or_map_file(path, mode != CsrLoadMode::kCopy));
  if (mode == CsrLoadMode::kMmap && !f.file.mapped) {
    return IoError(path + ": cannot mmap file");
  }
  GCLUS_RETURN_IF_ERROR(
      parse_csr2_header(f.file.bytes, f.header).with_context(path));
  return f;
}

/// Structural validation of decoded arrays: offsets monotone from 0 to m,
/// every neighbor id in range.  Guards algorithms against out-of-bounds
/// indexing on corrupted (but checksum-consistent, e.g. maliciously
/// crafted) files.  The scans run on the global pool and name the lowest
/// failing index.
Status validate_csr_arrays(std::span<const EdgeId> offsets,
                           std::span<const NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size()) {
    return DataLossError("corrupt CSR v2 payload (offset endpoints)");
  }
  ThreadPool& pool = ThreadPool::global();
  const std::size_t u = parallel_find_first(
      pool, 1, offsets.size(),
      [&](std::size_t i) { return offsets[i] < offsets[i - 1]; });
  if (u < offsets.size()) {
    return DataLossError("corrupt CSR v2 payload (offsets not monotone at "
                         "node " + std::to_string(u) + ")");
  }
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  const std::size_t e = parallel_find_first(
      pool, 0, neighbors.size(),
      [&](std::size_t i) { return neighbors[i] >= n; });
  if (e < neighbors.size()) {
    return DataLossError("corrupt CSR v2 payload (neighbor id out of range "
                         "at half-edge " + std::to_string(e) + ")");
  }
  return OkStatus();
}

/// The sections of a plain or weighted file, viewed in place (mapped on
/// a little-endian host) or decoded into the owned vectors.
struct PlainCsr2 {
  std::span<const EdgeId> offsets;
  std::span<const NodeId> neighbors;
  std::span<const Weight> weights;
  std::vector<EdgeId> owned_offsets;
  std::vector<NodeId> owned_neighbors;
  std::vector<Weight> owned_weights;
};

Status read_plain_csr2(const Csr2File& f, bool verify, PlainCsr2& out) {
  const Csr2Header& h = f.header;
  const bool weighted = (h.flags & kCsr2FlagWeights) != 0;
  const SectionRef refs[] = {{h.offsets_pos, h.num_nodes + 1, 8},
                             {h.neighbors_pos, h.num_half_edges, 4},
                             {h.weights_pos, h.num_half_edges, 8}};
  const std::span<const SectionRef> present(refs, weighted ? 3 : 2);
  GCLUS_RETURN_IF_ERROR(check_sections(f.file.bytes.size(), kCsr2HeaderBytes,
                                       present, kCsr2Format));
  if (verify && container_checksum(f.file, 0, present) != h.checksum) {
    return DataLossError("CSR v2 checksum mismatch");
  }
  out.offsets = view(f.file, refs[0].pos, refs[0].count, out.owned_offsets);
  out.neighbors =
      view(f.file, refs[1].pos, refs[1].count, out.owned_neighbors);
  if (weighted) {
    out.weights = view(f.file, refs[2].pos, refs[2].count, out.owned_weights);
  }
  return verify ? validate_csr_arrays(out.offsets, out.neighbors)
                : OkStatus();
}

/// Parameter block of a compressed file: encoding parameters plus the
/// position of every section.
struct Cz2Layout {
  CompressedParams params;
  std::array<std::uint64_t, kCz2Sections> pos{};
};

std::array<std::uint64_t, kCz2Sections> cz2_section_bytes(
    const CompressedParams& p) {
  const CompressedSectionSizes s = compressed_section_sizes(p);
  return {s.degrees, s.anchors, s.adj};
}

void store_cz2_params(const Cz2Layout& lay, std::byte* out) {
  std::memset(out, 0, kCz2ParamsBytes);
  const CompressedParams& p = lay.params;
  store_le_at(out, kCz2ParamsVersion);
  out[4] = static_cast<std::byte>(p.first_mode);
  out[5] = static_cast<std::byte>(p.k_first);
  out[6] = static_cast<std::byte>(p.k_gap);
  store_le_at(out + 8, p.degree_bits);
  store_le_at(out + 12, p.local_bits);
  store_le_at(out + 16, p.adj_bytes);
  store_le_at(out + 24, lay.pos[0]);
  store_le_at(out + 32, lay.pos[1]);
  store_le_at(out + 40, lay.pos[2]);
  store_le_at(out + 48, lay.pos[2]);
}

/// Reads and range-checks the parameter block, then applies the bounds
/// rule to the block and every present section.  `refs` receives the
/// block followed by the present sections, in file order.
Status parse_cz2(const Csr2File& f, Cz2Layout& lay,
                 std::vector<SectionRef>& refs) {
  const Csr2Header& h = f.header;
  const std::uint64_t size = f.file.bytes.size();
  refs = {{h.offsets_pos, kCz2ParamsBytes, 1}};
  GCLUS_RETURN_IF_ERROR(
      check_sections(size, kCsr2HeaderBytes, refs, kCsr2Format));
  const std::byte* b = f.file.bytes.data() + h.offsets_pos;
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
  p.degree_bits = read_le_at<std::uint32_t>(b + 8);
  p.local_bits = read_le_at<std::uint32_t>(b + 12);
  p.adj_bytes = read_le_at<std::uint64_t>(b + 16);
  lay.pos = {read_le_at<std::uint64_t>(b + 24),
             read_le_at<std::uint64_t>(b + 32),
             read_le_at<std::uint64_t>(b + 48)};
  for (std::uint64_t i = 72; i < kCz2ParamsBytes; ++i) {
    if (b[i] != std::byte{0}) {
      return DataLossError("nonzero reserved compressed parameter field");
    }
  }
  if (b[7] != std::byte{0} || read_le_at<std::uint64_t>(b + 40) != lay.pos[2] ||
      read_le_at<std::uint64_t>(b + 56) != 0 ||
      read_le_at<std::uint64_t>(b + 64) != 0) {
    return DataLossError("relabeled compressed CSR layout is not supported");
  }
  if (p.first_mode > 1 || p.k_first > cz::kMaxK || p.k_gap > cz::kMaxK ||
      p.degree_bits > 32 || p.local_bits > 56 || p.adj_bytes > size) {
    return DataLossError("compressed CSR parameters out of range");
  }
  const auto bytes = cz2_section_bytes(p);
  for (std::size_t i = 0; i < kCz2Sections; ++i) {
    refs.push_back({lay.pos[i], bytes[i], 1});
  }
  return check_sections(size, kCsr2HeaderBytes, refs, kCsr2Format);
}

/// Builds a CompressedGraph over the file's sections.  The sections are
/// byte sequences (LSB-first bitstreams, explicit little-endian fields),
/// so they are viewed in place on any host, mapped or read.
StatusOr<CompressedGraph> read_compressed_csr2(Csr2File f, bool verify) {
  Cz2Layout lay;
  std::vector<SectionRef> refs;
  GCLUS_RETURN_IF_ERROR(parse_cz2(f, lay, refs));
  if (verify && container_checksum(f.file, 0, refs) != f.header.checksum) {
    return DataLossError("CSR v2 checksum mismatch");
  }
  const auto bytes = cz2_section_bytes(lay.params);
  std::array<std::span<const std::byte>, kCz2Sections> s{};
  for (std::size_t i = 0; i < kCz2Sections; ++i) {
    s[i] = f.file.bytes.subspan(lay.pos[i], bytes[i]);
  }
  CompressedGraph cg(lay.params, s[0], s[1], s[2],
                     std::move(f.file.keepalive));
  if (verify) {
    GCLUS_RETURN_IF_ERROR(
        validate_compressed_structure(cg, ThreadPool::global()));
  }
  return cg;
}

}  // namespace

Status write_csr(const Graph& g, const std::string& path) {
  return write_plain_csr2(path, g.offsets(), g.neighbor_array(),
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
  return write_plain_csr2(path, g.offsets(), neighbors, /*weighted=*/true,
                          weights);
}

Status write_csr(const CompressedGraph& g, const std::string& path) {
  Cz2Layout lay;
  lay.params = g.params();
  const std::span<const std::byte> data[] = {
      g.degrees_section(), g.anchors_section(), g.adj_section()};
  const auto bytes = cz2_section_bytes(lay.params);
  for (std::size_t i = 0; i < kCz2Sections; ++i) {
    GCLUS_CHECK(bytes[i] == data[i].size(),
                "compressed graph sections inconsistent with parameters");
  }
  std::byte params_block[kCz2ParamsBytes];
  std::vector<Section> sections = {{params_block, kCz2ParamsBytes, 1}};
  for (const auto& d : data) sections.push_back(Section::of(d));
  const auto pos = place_sections(kCsr2HeaderBytes, sections);
  for (std::size_t i = 1; i < pos.size(); ++i) lay.pos[i - 1] = pos[i];
  store_cz2_params(lay, params_block);
  Csr2Header h;
  h.flags = kCsr2FlagCompressed;
  h.num_nodes = lay.params.num_nodes;
  h.num_half_edges = lay.params.num_half_edges;
  h.offsets_pos = pos[0];
  return write_csr2(path, h, sections);
}

StatusOr<CompressedGraph> load_compressed_csr(const std::string& path,
                                              const CsrLoadOptions& opts) {
  GCLUS_ASSIGN_OR_RETURN(Csr2File f, open_csr2(path, opts.mode));
  if ((f.header.flags & kCsr2FlagCompressed) == 0) {
    return InvalidArgumentError(
        path + ((f.header.flags & kCsr2FlagWeights) != 0
                    ? ": weighted CSR v2 file (use load_weighted_csr)"
                    : ": plain CSR v2 file (use load_csr)"));
  }
  auto cg = read_compressed_csr2(std::move(f), opts.verify);
  if (!cg.ok()) return Status(cg.status()).with_context(path);
  return cg;
}

StatusOr<Graph> load_csr(const std::string& path, const CsrLoadOptions& opts) {
  GCLUS_ASSIGN_OR_RETURN(Csr2File f, open_csr2(path, opts.mode));
  // Compressed files materialize, so plain-CSR consumers accept either
  // layout.
  if ((f.header.flags & kCsr2FlagCompressed) != 0) {
    auto cg = read_compressed_csr2(std::move(f), opts.verify);
    if (!cg.ok()) return Status(cg.status()).with_context(path);
    return cg.value().decompress();
  }
  if ((f.header.flags & kCsr2FlagWeights) != 0) {
    return InvalidArgumentError(
        path + ": weighted CSR v2 file (use load_weighted_csr)");
  }
  PlainCsr2 p;
  GCLUS_RETURN_IF_ERROR(
      read_plain_csr2(f, opts.verify, p).with_context(path));
  if (p.owned_offsets.empty()) {  // viewed in place: pin the mapping
    return Graph(p.offsets, p.neighbors, std::move(f.file.keepalive));
  }
  return Graph(std::move(p.owned_offsets), std::move(p.owned_neighbors));
}

StatusOr<WeightedGraph> load_weighted_csr(const std::string& path,
                                          const CsrLoadOptions& opts) {
  // Weighted graphs interleave (to, w) in memory, so loading always
  // materializes; map the file read-only all the same (kAuto) to skip the
  // intermediate buffer.
  GCLUS_ASSIGN_OR_RETURN(Csr2File f, open_csr2(path, opts.mode));
  if ((f.header.flags & kCsr2FlagWeights) == 0) {
    return InvalidArgumentError(
        path + ": unweighted CSR v2 file (use load_csr)");
  }
  PlainCsr2 p;
  GCLUS_RETURN_IF_ERROR(
      read_plain_csr2(f, opts.verify, p).with_context(path));
  std::vector<EdgeId> offsets(p.offsets.begin(), p.offsets.end());
  std::vector<WeightedHalfEdge> adj(p.neighbors.size());
  for (std::size_t i = 0; i < adj.size(); ++i) {
    adj[i] = {p.neighbors[i], p.weights[i]};
  }
  return WeightedGraph::from_csr(std::move(offsets), std::move(adj));
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::byte head[8];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  return in.good() && read_le_at<std::uint64_t>(head) == kCsr2Magic;
}

std::optional<Csr2Info> probe_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::byte head[kCsr2HeaderBytes];
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in.good() || read_le_at<std::uint64_t>(head) != kCsr2Magic) {
    return std::nullopt;
  }
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
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
