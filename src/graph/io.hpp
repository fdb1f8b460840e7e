// Graph serialization and ingestion.
//
// Two on-disk representations:
//
//   * Edge-list text — the format of the SNAP/LAW datasets the paper uses:
//     one "u v" pair per line, '#'/'%' comments, arbitrary sparse ids.
//     Reading a *file* goes through a parallel parser (fixed-size byte
//     chunks split on line boundaries parse concurrently; ids are numbered
//     in first-appearance order by an atomic-min pass that finds each id's
//     first chunk and a prefix sum over per-chunk counts) whose output is
//     byte-identical to the serial stream parser at any thread count.
//
//   * CSR v2 binary — a versioned header over the shared section
//     container (graph/container.hpp: 64-byte-aligned sections,
//     little-endian integers, FNV-1a checksum, bounds rule, absent
//     sections).  Loading can mmap the file and hand the offset/neighbor
//     sections to Graph *in place* (zero copy, non-owning storage mode),
//     falling back to read() on platforms without mmap.
//
// CSR v2 header (the checksum covers no header bytes, only the sections):
//
//   offset  size  field
//   0       8     magic "GCLUSCS2"
//   8       4     version (2)
//   12      4     flags (bit 0: weights section present; bit 1: compressed)
//   16      8     n  (node count; offsets section has n+1 entries)
//   24      8     m  (directed half-edge count; 2x undirected edges)
//   32      8     offsets_pos    (byte position of the offsets section)
//   40      8     neighbors_pos
//   48      8     weights_pos    (0 when absent)
//   56      8     checksum
//   64      8     reserved (0)
//   sections: offsets (n+1)*8B, neighbors m*4B, weights m*8B.  A
//   compressed file instead holds a parameter block and six byte sections
//   (see io.cpp and graph/compressed.hpp).
//
// Error handling: every load/write returns a Status (kInvalidArgument:
// not a CSR v2 file of the family asked for; kDataLoss: truncated or
// checksum-mismatched; kIoError: the environment failed) instead of
// aborting, so a long-lived caller can reject one bad file and keep
// serving.  Fault points "io.open", "io.mmap", "io.read", "io.write"
// (common/faultpoint.hpp) cover every environmental failure here; an
// injected "io.mmap" failure under CsrLoadMode::kAuto degrades to the
// read() path with byte-identical results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace gclus {
class ThreadPool;
}

namespace gclus::io {

// ---- edge-list text ---------------------------------------------------------

/// Parses an edge-list stream: one "u v" pair per line; lines starting
/// with '#' or '%' are comments; malformed lines are skipped.  Node ids
/// may be sparse; they are compacted to [0, n) in first-appearance order.
/// The graph is symmetrized and deduplicated.  Serial — the reference
/// semantics the parallel parser reproduces exactly.
[[nodiscard]] Graph read_edge_list(std::istream& in);

/// Parallel edge-list parser over an in-memory buffer: the text is split
/// into fixed-size byte chunks advanced to line boundaries, chunks parse
/// concurrently on `pool`, and dense ids are numbered concurrently by
/// their first file position (sparse ids through a serial hash map) — so
/// the result (including node numbering) is byte-identical to
/// read_edge_list at any thread count.
[[nodiscard]] Graph parse_edge_list(std::string_view text, ThreadPool& pool);

/// Reads an edge-list file through parse_edge_list (mmap-ing the text when
/// possible); kIoError when the file cannot be opened or read.  The
/// one-argument form uses the process-global pool.
[[nodiscard]] StatusOr<Graph> load_edge_list(const std::string& path);
[[nodiscard]] StatusOr<Graph> load_edge_list(const std::string& path,
                                             ThreadPool& pool);

/// Writes "u v" per undirected edge (u < v).
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

// ---- CSR v2 binary ----------------------------------------------------------

enum class CsrLoadMode {
  kAuto,  ///< mmap when available, else copy
  kMmap,  ///< require a mapping; an error if the file cannot be mapped
  kCopy,  ///< read() into owning vectors
};

struct CsrLoadOptions {
  CsrLoadMode mode = CsrLoadMode::kAuto;
  /// Verify the payload checksum and structural invariants (offsets
  /// monotone and in range, neighbor ids < n) before handing out the
  /// graph.  One sequential pass over the file — cheap next to any
  /// algorithm that will touch the data anyway.
  bool verify = true;
};

/// Header fields of a CSR v2 file (see probe_csr_file).
struct Csr2Info {
  std::uint32_t version = 0;
  bool weighted = false;
  bool compressed = false;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_half_edges = 0;
  std::uint64_t file_bytes = 0;
};

/// Writes a CSR v2 file; kIoError on any write failure (unwritable
/// directory, disk full).  A failed write may leave a partial file
/// behind; partial files never validate (checksum), so readers treat
/// them as absent.
[[nodiscard]] Status write_csr(const Graph& g, const std::string& path);
[[nodiscard]] Status write_csr(const WeightedGraph& g,
                               const std::string& path);

/// Writes a compressed CSR v2 file (flags bit 1): a 128-byte parameter
/// block at offsets_pos followed by the six compressed sections (see
/// graph/compressed.hpp), all covered by the header checksum.
/// Compressed files are always unweighted.
[[nodiscard]] Status write_csr(const CompressedGraph& g,
                               const std::string& path);

/// Loads an unweighted CSR v2 file.  Mapped on a little-endian host, the
/// returned Graph views the sections in place (Graph::owns_storage() ==
/// false) and the mapping is pinned for the graph's lifetime — the file
/// may be unlinked afterwards.  A compressed file is loaded as in
/// load_compressed_csr and decompressed, so plain-CSR consumers (the
/// dataset cache) accept either layout transparently.  Errors:
/// kInvalidArgument (not CSR v2 / unknown flags / weighted file),
/// kDataLoss (truncated, checksum mismatch, corrupt payload), kIoError
/// (cannot open / mmap).
[[nodiscard]] StatusOr<Graph> load_csr(const std::string& path,
                                       const CsrLoadOptions& opts = {});

/// Loads a compressed CSR v2 file as a CompressedGraph viewing the file's
/// sections in place (mmap mode; the byte sections are position- and
/// endian-independent, so zero-copy works on any host) or a private copy
/// of the file bytes (kCopy).  With opts.verify the payload checksum and
/// a full structural decode walk run first, so a flipped bit anywhere in
/// the parameter block, index, or bitstream is kDataLoss here rather than
/// a wrong answer later.  kInvalidArgument when the file is a plain or
/// weighted CSR v2.
[[nodiscard]] StatusOr<CompressedGraph> load_compressed_csr(
    const std::string& path, const CsrLoadOptions& opts = {});

/// Loads a weighted CSR v2 file.  Always materializes (the interleaved
/// in-memory adjacency differs from the split on-disk sections), so there
/// is no mmap storage mode for weighted graphs.  Same error codes as
/// load_csr.
[[nodiscard]] StatusOr<WeightedGraph> load_weighted_csr(
    const std::string& path, const CsrLoadOptions& opts = {});

/// True if `path` exists and starts with the CSR v2 magic.
[[nodiscard]] bool is_csr_file(const std::string& path);

/// Header of a CSR v2 file without loading the payload; nullopt if the
/// file is missing, short, or not CSR v2.
[[nodiscard]] std::optional<Csr2Info> probe_csr_file(const std::string& path);

}  // namespace gclus::io
