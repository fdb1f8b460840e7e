// Tests for the compressed adjacency layout: the full-registry corpus
// sweep (every algorithm on a compressed graph must match the owning
// plain-CSR run byte for byte, at any thread count), structural round
// trips through compress/decompress, the CSR v2 compressed file format
// (copied and mmap-ed), and the dataset cache, plus adversarial decode
// inputs: single-bit flips anywhere in the file must come back as a
// Status (never a wrong answer or an abort), truncation mid-bitstream and
// the retired relabeled layout are kDataLoss, and zero-degree runs and
// escape-coded maximal gaps round-trip exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "graph/compressed.hpp"
#include "graph/container.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"
#include "workloads/datasets.hpp"

namespace gclus {
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

/// Symmetric CSR from an undirected edge list over exactly `n` vertices —
/// unlike the generators, this keeps isolated vertices, which the
/// zero-degree-run tests need.
Graph from_undirected_edges(NodeId n,
                            const std::vector<std::pair<NodeId, NodeId>>& es) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [u, v] : es) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<EdgeId> offsets(n + 1, 0);
  std::vector<NodeId> neighbors;
  for (NodeId u = 0; u < n; ++u) {
    std::sort(adj[u].begin(), adj[u].end());
    offsets[u + 1] = offsets[u] + adj[u].size();
    neighbors.insert(neighbors.end(), adj[u].begin(), adj[u].end());
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

/// Writes `bytes` to `path`, replacing it.
void write_bytes(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::byte> bytes(std::filesystem::file_size(path));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// Same params as the plain-registry corpus sweep in test_api.cpp.
AlgoParams corpus_params(const std::string& algo) {
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
  if (algo.rfind("mr.", 0) == 0) {
    p.set("spill_bytes", std::uint64_t{4096});
  }
  return p;
}

// ---- full-registry corpus sweep against the plain-CSR reference -------------

class CompressedCorpusTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(CompressedCorpusTest, AllAlgorithmsMatchPlainRun) {
  const auto& [name, graph] = GetParam();
  const CompressedGraph cz = compress(graph);

  for (const std::string& algo : registry().names()) {
    const AlgoParams params = corpus_params(algo);

    ThreadPool serial(1);
    RunContext ctx;
    ctx.seed = 7;
    ctx.pool = &serial;
    const Clustering reference =
        registry().try_run(algo, graph, params, ctx).value();

    // The compressed path must match the plain run and stay thread-count
    // invariant.
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      RunContext cctx;
      cctx.seed = 7;
      cctx.pool = &pool;
      const Clustering c = registry().try_run(algo, cz, params, cctx).value();
      EXPECT_EQ(c.assignment, reference.assignment)
          << algo << " on " << name << " with " << threads << " threads";
      EXPECT_EQ(c.centers, reference.centers) << algo << " on " << name;
      EXPECT_EQ(c.dist_to_center, reference.dist_to_center)
          << algo << " on " << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CompressedCorpusTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

// ---- structural and file round trips ----------------------------------------

TEST(Compressed, CorpusRoundTripsThroughFileAndDecompress) {
  TempFile f("gclus_cz_roundtrip.csr2");
  ThreadPool pool(4);
  std::vector<io::CsrLoadMode> modes = {io::CsrLoadMode::kCopy};
  if (io::mmap_supported()) modes.push_back(io::CsrLoadMode::kMmap);
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    const CompressedGraph cz = compress(g, pool);
    EXPECT_TRUE(validate_compressed_structure(cz, pool).ok()) << name;
    EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g)) << name;
    // Lists decode in ascending id order, the plain CSR's order.
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<NodeId> decoded;
      for (const NodeId v : cz.neighbors(u)) decoded.push_back(v);
      ASSERT_TRUE(std::ranges::equal(decoded, g.neighbors(u)))
          << name << " vertex " << u;
    }

    ASSERT_TRUE(io::write_csr(cz, f.path).ok());
    for (const io::CsrLoadMode mode : modes) {
      const auto loaded = io::load_compressed_csr(f.path, {.mode = mode});
      ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().message();
      EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g))
          << name;

      // Plain-CSR consumers accept the compressed file transparently.
      const auto plain = io::load_csr(f.path, {.mode = mode});
      ASSERT_TRUE(plain.ok()) << name;
      EXPECT_TRUE(testutil::same_csr(plain.value(), g)) << name;
    }
  }
}

TEST(Compressed, ZeroDegreeRunsRoundTrip) {
  // Leading, interior, and trailing runs of isolated vertices: a path
  // over every third vertex starting at 30, so the index holds long runs
  // of zero-degree entries the index and decode walk must skip exactly.
  const NodeId n = 240;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 30; u + 3 < 180; u += 3) edges.emplace_back(u, u + 3);
  const Graph g = from_undirected_edges(n, edges);
  ASSERT_TRUE(g.validate());

  ThreadPool pool(2);
  TempFile f("gclus_cz_zerodeg.csr2");
  const CompressedGraph cz = compress(g, pool);
  EXPECT_TRUE(validate_compressed_structure(cz, pool).ok());
  EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g));

  ASSERT_TRUE(io::write_csr(cz, f.path).ok());
  const auto loaded = io::load_compressed_csr(f.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g));
}

TEST(Compressed, MaxGapDeltasUseEscapeAndRoundTrip) {
  // A dense low-id path keeps the chosen Rice parameter small, so the two
  // far edges produce gaps whose unary quotient blows past the cap — the
  // encoder must fall back to the raw escape code, and the decoder must
  // read it back exactly.
  const NodeId n = 70000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u + 1 < 100; ++u) edges.emplace_back(u, u + 1);
  edges.emplace_back(0, n - 1);
  edges.emplace_back(50, n - 2);
  const Graph g = from_undirected_edges(n, edges);
  ASSERT_TRUE(g.validate());

  ThreadPool pool(2);
  TempFile f("gclus_cz_maxgap.csr2");
  const CompressedGraph cz = compress(g, pool);
  EXPECT_TRUE(validate_compressed_structure(cz, pool).ok());
  EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g));

  ASSERT_TRUE(io::write_csr(cz, f.path).ok());
  const auto loaded = io::load_compressed_csr(f.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g));
}

// ---- adversarial inputs -----------------------------------------------------

TEST(CompressedCorruption, EveryBitFlipComesBackAsStatus) {
  TempFile f("gclus_cz_bitflip.csr2");
  const Graph g = gen::grid(12, 12);
  const CompressedGraph cz = compress(g);
  ASSERT_TRUE(io::write_csr(cz, f.path).ok());
  const auto size = std::filesystem::file_size(f.path);

  std::fstream patch(f.path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(patch.good());
  std::uint64_t padding_loads = 0;
  for (std::uint64_t off = 0; off < size; ++off) {
    patch.seekg(static_cast<std::streamoff>(off));
    const char orig = static_cast<char>(patch.get());
    const char flipped =
        static_cast<char>(orig ^ static_cast<char>(1u << (off % 8)));
    patch.seekp(static_cast<std::streamoff>(off));
    patch.write(&flipped, 1);
    patch.flush();

    // Any single flipped bit must surface as a Status — never an abort,
    // never a silently wrong graph.  The only flips allowed to load are
    // the ones in the zeroed inter-section alignment padding, which carry
    // no information: if the load succeeds, the graph must still be
    // byte-identical to the original.
    const auto loaded = io::load_compressed_csr(f.path);
    if (loaded.ok()) {
      ++padding_loads;
      EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(), g))
          << "bit flip at byte " << off << " loaded a different graph";
    } else {
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << "byte " << off << ": " << loaded.status().message();
    }

    patch.seekp(static_cast<std::streamoff>(off));
    patch.write(&orig, 1);
    patch.flush();
  }
  // The alignment gaps are a small fixed overhead; nearly every byte in
  // the file must be load-bearing (checksummed and rejected when flipped).
  EXPECT_LT(padding_loads, size / 4);
  EXPECT_TRUE(io::load_compressed_csr(f.path).ok());  // restored intact
}

TEST(CompressedCorruption, TruncationMidBitstreamIsDataLoss) {
  TempFile f("gclus_cz_trunc.csr2");
  const Graph g = gen::ring_of_cliques(12, 8);
  const CompressedGraph cz = compress(g);
  ASSERT_TRUE(io::write_csr(cz, f.path).ok());
  const auto full = std::filesystem::file_size(f.path);

  // Cut points from "almost whole" down into the middle of the adjacency
  // bitstream — including ones that end inside a vertex's code word.
  for (const std::uint64_t keep :
       {full - 1, full - 7, full * 7 / 8, full * 3 / 4, full / 2}) {
    ASSERT_TRUE(io::write_csr(cz, f.path).ok());
    std::filesystem::resize_file(f.path, keep);
    const auto loaded = io::load_compressed_csr(f.path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " of " << full;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().message();
  }
}

TEST(CompressedCorruption, RelabeledLayoutFieldsAreDataLoss) {
  // The parameter block keeps the fields of the retired relabeled layout:
  // byte 7 (relabeled flag) and perm_pos/inv_pos must be 0, and locals_pos
  // must equal adj_pos.  Each case sets one of them and re-seals the file
  // with a matching checksum, so only that rule can reject it.
  TempFile f("gclus_cz_relabeled.csr2");
  const CompressedGraph cz = compress(gen::preferential_attachment(500, 3, 17));
  ASSERT_TRUE(io::write_csr(cz, f.path).ok());
  const std::vector<std::byte> valid = read_bytes(f.path);
  const auto u64_at = [&](std::uint64_t off) {
    return io::wire::read_le_at<std::uint64_t>(valid.data() + off);
  };
  const std::uint64_t block = u64_at(32);  // header offsets_pos
  const std::uint64_t adj_pos = u64_at(block + 48);
  ASSERT_EQ(u64_at(block + 40), adj_pos);
  const CompressedSectionSizes sz = compressed_section_sizes(cz.params());
  const io::SectionRef refs[] = {{block, 128, 1},
                                 {u64_at(block + 24), sz.degrees, 1},
                                 {u64_at(block + 32), sz.anchors, 1},
                                 {adj_pos, sz.adj, 1}};
  const auto checksum = [&](const std::vector<std::byte>& bytes) {
    return io::container_checksum(io::FileContents{bytes, nullptr, false}, 0,
                                  refs);
  };
  ASSERT_EQ(checksum(valid), u64_at(56));

  struct Case {
    const char* field;
    std::uint64_t offset;
    std::uint64_t value;
  };
  const Case cases[] = {{"relabeled flag", block + 7, 1},
                        {"locals_pos", block + 40, adj_pos + io::kSectionAlign},
                        {"perm_pos", block + 56, adj_pos},
                        {"inv_pos", block + 64, adj_pos}};
  for (const Case& c : cases) {
    std::vector<std::byte> bytes = valid;
    if (c.offset == block + 7) {
      bytes[c.offset] = static_cast<std::byte>(c.value);
    } else {
      io::wire::store_le_at(bytes.data() + c.offset, c.value);
    }
    io::wire::store_le_at(bytes.data() + 56, checksum(bytes));
    write_bytes(f.path, bytes);
    for (const bool verify : {true, false}) {
      const auto loaded = io::load_compressed_csr(f.path, {.verify = verify});
      ASSERT_FALSE(loaded.ok()) << c.field << " verify=" << verify;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << c.field << ": " << loaded.status().message();
    }
  }
  write_bytes(f.path, valid);
  EXPECT_TRUE(io::load_compressed_csr(f.path).ok());
}

TEST(CompressedCorruption, PlainAndWeightedFilesAreInvalidArgument) {
  TempFile f("gclus_cz_family.csr2");
  ASSERT_TRUE(io::write_csr(gen::grid(6, 6), f.path).ok());
  const auto plain = io::load_compressed_csr(f.path);
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
}

// ---- dataset cache ----------------------------------------------------------

TEST(CompressedCache, RoundTripsThroughDatasetCache) {
  // Scoped cache dir (mirrors test_workloads.cpp): restore whatever the
  // suite had configured afterwards.
  const std::string dir = temp_path("gclus_cz_cache");
  std::optional<std::string> prev;
  if (const char* p = std::getenv("GCLUS_DATASET_CACHE_DIR")) prev = p;
  std::filesystem::remove_all(dir);
  setenv("GCLUS_DATASET_CACHE_DIR", dir.c_str(), /*overwrite=*/1);

  const Graph plain = gen::preferential_attachment(3000, 3, 17);
  const auto build = [&] { return gen::preferential_attachment(3000, 3, 17); };

  const auto before = workloads::dataset_cache_stats();
  const CompressedGraph miss =
      workloads::cached_compressed_graph("cz-test-pa3000", build);
  const CompressedGraph hit =
      workloads::cached_compressed_graph("cz-test-pa3000", build);
  const auto after = workloads::dataset_cache_stats();

  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_TRUE(testutil::same_csr(miss.decompress(), plain));
  EXPECT_TRUE(testutil::same_csr(hit.decompress(), plain));

  if (prev.has_value()) {
    setenv("GCLUS_DATASET_CACHE_DIR", prev->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("GCLUS_DATASET_CACHE_DIR");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gclus
