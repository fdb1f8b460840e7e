// Tests for graph serialization and ingestion: edge-list text parsing
// (serial reference and the parallel parser, including SNAP-style
// comments, sparse ids, and junk lines) and the CSR v2 format —
// text↔CSRv2↔mmap round trips over the whole corpus (weighted and
// unweighted), checksum and truncation rejection as a Status, and
// owning-vs-mmap byte equality through the algorithm registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "graph/container.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus::io {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// RAII temp file.
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Success when `st` failed with a message containing `what`.
::testing::AssertionResult FailsWith(const Status& st, std::string_view what) {
  if (st.ok()) {
    return ::testing::AssertionFailure() << "succeeded; expected \"" << what
                                         << "\"";
  }
  if (st.message().find(what) == std::string::npos) {
    return ::testing::AssertionFailure() << st.to_string();
  }
  return ::testing::AssertionSuccess();
}

template <typename T>
::testing::AssertionResult FailsWith(const StatusOr<T>& r,
                                     std::string_view what) {
  return FailsWith(r.ok() ? OkStatus() : r.status(), what);
}

/// Unwraps a load the test expects to succeed.
template <typename T>
T must(StatusOr<T> r) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return std::move(r).value();
}

Graph serial_parse(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

// ---- edge-list text: serial reference ---------------------------------------

TEST(EdgeListRead, ParsesPlainPairs) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(EdgeListRead, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# SNAP-style comment\n% matrix-market comment\n\n0 1\n\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListRead, CompactsSparseIds) {
  std::istringstream in("1000000 2000000\n2000000 30\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(EdgeListRead, SymmetrizesAndDedups) {
  std::istringstream in("0 1\n1 0\n0 1\n2 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);  // self-loop dropped, duplicates merged
}

TEST(EdgeListRoundTrip, PreservesStructure) {
  const Graph g = gen::grid(7, 9);
  std::stringstream buf;
  write_edge_list(g, buf);
  const Graph h = read_edge_list(buf);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

// ---- edge-list text: parallel parser ----------------------------------------

/// Inputs chosen to stress every skip/accept path: comment-heavy, sparse
/// ids, duplicates and reversals, junk tokens, CRLF, leading whitespace,
/// extra columns (SNAP ships weighted lists we read unweighted), and a
/// missing trailing newline.
const char* kMessyInputs[] = {
    "",
    "\n\n\n",
    "# only comments\n% and more\n",
    "0 1\n1 2\n2 0\n",
    "0 1\n1 0\n0 1\n2 2\n",
    "1000000 2000000\n2000000 30\n9999999999 1000000\n",
    "# c\n5 7\n% c\n7 9\n\n9 5\n# trailing\n",
    "0 1 42\n1 2 99\n",                      // extra weight column ignored
    "  3 4\n\t5\t6\n 7  8 \n",               // leading/embedded whitespace
    "0 1\r\n1 2\r\n# crlf\r\n2 0\r\n",       // CRLF
    "junk line\n1 x\nx 1\n0 1\n1\n",         // junk tokens / missing column
    "+3 +4\n4 5\n",                          // explicit plus signs
    "0 1\n1 2",                              // no trailing newline
};

TEST(ParallelParser, MatchesSerialOnMessyInputs) {
  ThreadPool pool(4);
  for (const char* input : kMessyInputs) {
    const Graph serial = serial_parse(input);
    const Graph parallel = parse_edge_list(input, pool);
    EXPECT_TRUE(testutil::same_csr(serial, parallel))
        << "input: " << std::string(input).substr(0, 40);
  }
}

TEST(ParallelParser, DeterministicAcrossThreadCounts) {
  // Large enough to span several parse chunks (1 MiB each): ~2.8 MB.
  // (An expander: no isolated nodes, so every id appears in the text.)
  const Graph g = gen::expander(50000, 10, 11);
  std::stringstream buf;
  write_edge_list(g, buf);
  const std::string text = buf.str();
  ASSERT_GT(text.size(), std::size_t{2} << 20);

  ThreadPool pool1(1), pool2(2), pool8(8);
  const Graph a = parse_edge_list(text, pool1);
  const Graph b = parse_edge_list(text, pool2);
  const Graph c = parse_edge_list(text, pool8);
  EXPECT_TRUE(testutil::same_csr(a, b));
  EXPECT_TRUE(testutil::same_csr(a, c));
  EXPECT_TRUE(testutil::same_csr(a, serial_parse(text)));
  EXPECT_EQ(a.num_nodes(), g.num_nodes());
  EXPECT_EQ(a.num_edges(), g.num_edges());
}

/// More than 4 MiB of shuffled edge-list text over ids id_of(0..): random
/// edges with duplicates and self-loops, lines of two brand-new ids spread
/// evenly through the file (so ids first appear in every chunk, the last
/// ones included), and comment and junk lines straddling every 1 MiB
/// parse-chunk boundary.
template <typename IdOf>
std::string multi_chunk_text(const IdOf& id_of, std::uint64_t seed) {
  constexpr std::uint64_t kIds = 200000;
  std::mt19937_64 rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lines;
  for (std::size_t i = 0; i < 350000; ++i) {
    const std::uint64_t u = rng() % kIds;
    lines.emplace_back(u, i % 97 == 0 ? u : rng() % kIds);
  }
  for (std::size_t i = 0; i < 20000; ++i) lines.push_back(lines[i * 13]);
  std::shuffle(lines.begin(), lines.end(), rng);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    lines[(k + 1) * lines.size() / 2001] = {kIds + 2 * k, kIds + 2 * k + 1};
  }
  std::string text;
  std::size_t boundary = std::size_t{1} << 20;
  for (const auto& [u, v] : lines) {
    if (text.size() + 32 > boundary) {
      text += "# comment across a chunk boundary\nx 1\n7\n% more\n";
      boundary += std::size_t{1} << 20;
    }
    text += std::to_string(id_of(u)) + ' ' + std::to_string(id_of(v)) + '\n';
  }
  return text;
}

TEST(ParallelParser, NumbersIdsLikeSerialAcrossChunks) {
  const std::string dense =
      multi_chunk_text([](std::uint64_t id) { return id; }, 21);
  // Ids up to about 1M over about 370k edges: dense, with unused slots.
  const std::string gapped =
      multi_chunk_text([](std::uint64_t id) { return 5 * id; }, 23);
  const std::string sparse = multi_chunk_text(
      [](std::uint64_t id) { return id * 1000003 + 12345; }, 22);
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto& [name, text] :
       {std::pair{"dense", &dense}, std::pair{"gapped", &gapped},
        std::pair{"sparse", &sparse}}) {
    ASSERT_GT(text->size(), std::size_t{4} << 20);
    const Graph want = serial_parse(*text);
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      EXPECT_TRUE(testutil::same_csr(want, parse_edge_list(*text, *pool)))
          << name << " ids at " << pool->num_threads() << " threads";
    }
  }
}

TEST(ParallelParser, CorpusTextRoundTrip) {
  // Text round trips relabel nodes (ids compact in first-appearance
  // order), so equality is against the serial reference parser — the
  // parallel parser must reproduce its numbering byte for byte — plus
  // structural invariants against the original.
  ThreadPool pool(4);
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    std::stringstream buf;
    write_edge_list(g, buf);
    const std::string text = buf.str();
    const Graph h = parse_edge_list(text, pool);
    EXPECT_TRUE(testutil::same_csr(serial_parse(text), h)) << name;
    EXPECT_EQ(h.num_nodes(), g.num_nodes()) << name;
    EXPECT_EQ(h.num_edges(), g.num_edges()) << name;
    EXPECT_TRUE(h.validate()) << name;
  }
}

TEST(ParallelParser, FileEntryPointUsesGlobalPool) {
  TempFile f("gclus_io_parse.txt");
  const Graph g = gen::ring_of_cliques(12, 8);
  write_edge_list_file(g, f.path);
  const Graph h = must(load_edge_list(f.path));
  std::stringstream buf;
  write_edge_list(g, buf);
  EXPECT_TRUE(testutil::same_csr(serial_parse(buf.str()), h));
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(FileIoStatus, MissingFileIsIoError) {
  const auto missing = load_edge_list("/nonexistent/gclus/file.txt");
  EXPECT_TRUE(FailsWith(missing, "cannot open"));
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// ---- CSR v2 -----------------------------------------------------------------

TEST(Csr2, CorpusRoundTripCopyAndMmap) {
  TempFile f("gclus_io_corpus.csr2");
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    ASSERT_TRUE(write_csr(g, f.path).ok()) << name;
    EXPECT_TRUE(is_csr_file(f.path)) << name;

    const auto info = probe_csr_file(f.path);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->version, 2u);
    EXPECT_FALSE(info->weighted);
    EXPECT_EQ(info->num_nodes, g.num_nodes());
    EXPECT_EQ(info->num_half_edges, g.num_half_edges());

    const Graph copy = must(load_csr(f.path, {.mode = CsrLoadMode::kCopy}));
    EXPECT_TRUE(copy.owns_storage());
    EXPECT_TRUE(testutil::same_csr(g, copy)) << name;

    if (mmap_supported()) {
      const Graph mapped =
          must(load_csr(f.path, {.mode = CsrLoadMode::kMmap}));
      EXPECT_FALSE(mapped.owns_storage());
      EXPECT_TRUE(testutil::same_csr(g, mapped)) << name;
    }
  }
}

TEST(Csr2, TextToCsr2ToMmapPipeline) {
  // The end-to-end ingestion pipeline: SNAP-style text in, CSR v2 out,
  // mapped back in place.
  TempFile txt("gclus_io_pipe.txt");
  TempFile bin("gclus_io_pipe.csr2");
  const Graph g = gen::expander_with_path(2000, 44, 4, 9);
  write_edge_list_file(g, txt.path);
  const Graph parsed = must(load_edge_list(txt.path));
  ASSERT_TRUE(write_csr(parsed, bin.path).ok());
  const Graph loaded = must(load_csr(bin.path));
  EXPECT_TRUE(testutil::same_csr(parsed, loaded));
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.validate());
}

TEST(Csr2, EmptyAndEdgelessGraphs) {
  TempFile f("gclus_io_edgeless.csr2");
  const Graph g = build_graph(5, {});
  ASSERT_TRUE(write_csr(g, f.path).ok());
  const Graph h = must(load_csr(f.path));
  EXPECT_EQ(h.num_nodes(), 5u);
  EXPECT_EQ(h.num_edges(), 0u);

  // Edgeless *weighted* graphs must keep the weights flag (the section is
  // empty, but the format family is not inferred from a null data
  // pointer).
  const WeightedGraph w = WeightedGraph::from_edges(5, {});
  ASSERT_TRUE(write_csr(w, f.path).ok());
  const auto info = probe_csr_file(f.path);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->weighted);
  const WeightedGraph r = must(load_weighted_csr(f.path));
  EXPECT_EQ(r.num_nodes(), 5u);
  EXPECT_EQ(r.num_half_edges(), 0u);
}

TEST(Csr2, WriteFailureIsAStatus) {
  EXPECT_FALSE(write_csr(gen::cycle(4), "/nonexistent/gclus/dir/x.csr2").ok());
  TempFile f("gclus_io_trywrite.csr2");
  const Graph g = gen::cycle(4);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  EXPECT_TRUE(testutil::same_csr(g, must(load_csr(f.path))));
}

TEST(Csr2, WeightedCorpusRoundTrip) {
  TempFile f("gclus_io_weighted.csr2");
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    // Deterministic, asymmetric-looking weights per undirected edge.
    std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) edges.emplace_back(u, v, Weight{(u * 31 + v * 7) % 97 + 1});
      }
    }
    const WeightedGraph w = WeightedGraph::from_edges(g.num_nodes(), edges);

    ASSERT_TRUE(write_csr(w, f.path).ok()) << name;
    const auto info = probe_csr_file(f.path);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_TRUE(info->weighted);

    const WeightedGraph r = must(load_weighted_csr(f.path));
    ASSERT_EQ(r.num_nodes(), w.num_nodes()) << name;
    ASSERT_EQ(r.num_half_edges(), w.num_half_edges()) << name;
    EXPECT_TRUE(std::ranges::equal(r.offsets(), w.offsets())) << name;
    EXPECT_TRUE(std::ranges::equal(r.adjacency(), w.adjacency())) << name;
  }
}

TEST(Csr2, MappedGraphSurvivesUnlink) {
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  TempFile f("gclus_io_unlink.csr2");
  const Graph g = gen::torus(20, 20);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  const Graph mapped = must(load_csr(f.path, {.mode = CsrLoadMode::kMmap}));
  std::remove(f.path.c_str());  // mapping pins the inode
  EXPECT_TRUE(testutil::same_csr(g, mapped));
  // Copies share the mapping rather than materializing.
  const Graph copy = mapped;  // NOLINT(performance-unnecessary-copy-...)
  EXPECT_FALSE(copy.owns_storage());
  EXPECT_TRUE(testutil::same_csr(g, copy));
}

TEST(Csr2Corrupt, RejectsChecksumMismatch) {
  TempFile f("gclus_io_checksum.csr2");
  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  {
    // Flip one payload byte in the neighbors section (near the end).
    std::fstream patch(f.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekg(-1, std::ios::end);
    const char c = static_cast<char>(patch.get() ^ 0x40);
    patch.seekp(-1, std::ios::end);
    patch.write(&c, 1);
  }
  const auto loaded = load_csr(f.path);
  EXPECT_TRUE(FailsWith(loaded, "checksum mismatch"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // Opting out of verification loads the (corrupt) bytes — the caller's
  // explicit choice.
  const Graph unchecked = must(load_csr(f.path, {.verify = false}));
  EXPECT_EQ(unchecked.num_nodes(), g.num_nodes());
}

TEST(Csr2Corrupt, RejectsTruncation) {
  TempFile f("gclus_io_truncated.csr2");
  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 16);
  const auto loaded = load_csr(f.path);
  EXPECT_TRUE(FailsWith(loaded, "truncated CSR v2"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(Csr2Corrupt, RejectsWrongFormatFamily) {
  TempFile f("gclus_io_family.csr2");
  {
    // A foreign 24-byte header (magic, n, m) is not CSR v2.
    std::ofstream out(f.path, std::ios::binary);
    const std::uint64_t foreign[3] = {0x67636c7573763101ULL, 25, 80};
    out.write(reinterpret_cast<const char*>(foreign), sizeof foreign);
  }
  const auto foreign = load_csr(f.path);
  EXPECT_TRUE(FailsWith(foreign, "bad magic"));
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(is_csr_file(f.path));

  // Weighted/unweighted loaders are strict about the flag.
  const Graph g = gen::grid(5, 5);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  EXPECT_TRUE(FailsWith(load_weighted_csr(f.path), "unweighted CSR v2"));
  ASSERT_TRUE(write_csr(WeightedGraph::from_unit_weights(g), f.path).ok());
  EXPECT_TRUE(FailsWith(load_csr(f.path), "weighted CSR v2"));
}

TEST(Csr2, LoadFailureIsAStatus) {
  EXPECT_TRUE(FailsWith(load_csr("/nonexistent/gclus/file.csr2"),
                        "cannot open"));
  TempFile f("gclus_io_tryload.csr2");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_TRUE(FailsWith(load_csr(f.path), "bad magic"));
  const Graph g = gen::cycle(12);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  EXPECT_TRUE(testutil::same_csr(g, must(load_csr(f.path))));
}

// ---- Status API -------------------------------------------------------------
// The load_* / write_* Status entry points carry the failure taxonomy the
// long-lived callers (dataset cache, CLI) dispatch on.

TEST(Csr2Status, CodesMatchFailureTaxonomy) {
  // Hard environment failure: the file does not exist.
  const auto missing = load_csr("/nonexistent/gclus/file.csr2");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  TempFile f("gclus_io_status.csr2");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "garbage that is much longer than the CSR v2 header needs";
  }
  // Not what it claims to be: wrong magic.
  const auto garbage = load_csr(f.path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);

  const Graph g = gen::grid(8, 8);
  ASSERT_TRUE(write_csr(g, f.path).ok());
  // Was valid, now torn: truncation and checksum damage are kDataLoss.
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 16);
  const auto truncated = load_csr(f.path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  // Errors carry the path as context for one-line diagnostics.
  EXPECT_NE(truncated.status().message().find(f.path), std::string::npos);

  // Flag mismatch: an unweighted file through the weighted loader.
  ASSERT_TRUE(write_csr(g, f.path).ok());
  const auto wrong_family = load_weighted_csr(f.path);
  ASSERT_FALSE(wrong_family.ok());
  EXPECT_EQ(wrong_family.status().code(), StatusCode::kInvalidArgument);
}

TEST(Csr2Status, WriteToUnwritableDirectoryIsIoError) {
  const Status st =
      write_csr(gen::cycle(8), "/proc/definitely/not/writable/x.csr2");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(EdgeListStatus, MissingFileIsIoError) {
  const auto missing = load_edge_list("/nonexistent/gclus/edges.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  EXPECT_NE(missing.status().message().find("/nonexistent/gclus/edges.txt"),
            std::string::npos);
}

// ---- owning vs mmap through the registry ------------------------------------

/// Cheap, well-defined parameters for every registered algorithm on small
/// graphs (mirrors the registry corpus sweep in test_api.cpp).
AlgoParams sweep_params(const std::string& algo) {
  AlgoParams p;
  if (algo == "mpx" || algo == "mr.mpx") {
    p.set("beta", 0.4);
  } else if (algo == "random_centers" || algo == "gonzalez" ||
             algo == "kcenter") {
    p.set("k", std::uint64_t{4});
  } else if (algo == "mr.bfs") {
    p.set("source", std::uint64_t{0});
  } else {
    p.set("tau", std::uint64_t{2});
  }
  return p;
}

TEST(Csr2Registry, OwningAndMappedGraphsDecomposeIdentically) {
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  TempFile f("gclus_io_registry.csr2");
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    ASSERT_TRUE(write_csr(g, f.path).ok()) << name;
    const Graph mapped = must(load_csr(f.path, {.mode = CsrLoadMode::kMmap}));
    ASSERT_FALSE(mapped.owns_storage());
    for (const std::string& algo : registry().names()) {
      RunContext ctx_own, ctx_map;
      ctx_own.seed = ctx_map.seed = 12345;
      const Clustering own =
          registry().try_run(algo, g, sweep_params(algo), ctx_own).value();
      const Clustering map =
          registry().try_run(algo, mapped, sweep_params(algo), ctx_map).value();
      EXPECT_EQ(own.assignment, map.assignment) << name << "/" << algo;
      EXPECT_EQ(own.centers, map.centers) << name << "/" << algo;
      EXPECT_EQ(own.dist_to_center, map.dist_to_center)
          << name << "/" << algo;
    }
  }
}

}  // namespace
}  // namespace gclus::io
