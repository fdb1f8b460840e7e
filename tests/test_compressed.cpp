// Tests for the compressed adjacency layout: the full-registry corpus
// sweep (every algorithm on a compressed graph — kAuto and forced
// relabeling — must match the owning plain-CSR run byte for byte, since
// public outputs stay in original ids), structural round trips through
// compress/decompress, the CSR v2 compressed file format, and the dataset
// cache, plus adversarial decode inputs: single-bit flips anywhere in the
// file must come back as a Status (never a wrong answer or an abort),
// truncation mid-bitstream is kDataLoss, and zero-degree runs and
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
  const CompressedGraph cz_auto = compress(graph);
  // kAlways still drops the maps when the degree-descending order is the
  // identity (regular graphs), so not every corpus entry relabels — the
  // skewed ones (power-law, rmat, grids) do.
  const CompressedGraph cz_relabeled =
      compress(graph, {.relabel = RelabelMode::kAlways});

  for (const std::string& algo : registry().names()) {
    const AlgoParams params = corpus_params(algo);

    ThreadPool serial(1);
    RunContext ctx;
    ctx.seed = 7;
    ctx.pool = &serial;
    const Clustering reference = registry().run(algo, graph, params, ctx);

    // Outputs are in original vertex ids regardless of the storage
    // relabeling, so the checks are plain equality — the inverse mapping
    // is the implementation's job, not the caller's.
    for (const CompressedGraph* cz : {&cz_auto, &cz_relabeled}) {
      RunContext cctx;
      cctx.seed = 7;
      cctx.pool = &serial;
      const Clustering c = registry().run(algo, *cz, params, cctx);
      EXPECT_EQ(c.assignment, reference.assignment)
          << algo << " on " << name
          << (cz->relabeled() ? " (relabeled)" : " (auto)");
      EXPECT_EQ(c.centers, reference.centers) << algo << " on " << name;
      EXPECT_EQ(c.dist_to_center, reference.dist_to_center)
          << algo << " on " << name;
    }

    // And the compressed path must stay thread-count invariant.
    ThreadPool pool8(8);
    RunContext pctx;
    pctx.seed = 7;
    pctx.pool = &pool8;
    const Clustering c8 = registry().run(algo, cz_relabeled, params, pctx);
    EXPECT_EQ(c8.assignment, reference.assignment)
        << algo << " on " << name << " with 8 threads";
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
  for (const auto& [name, g] : testutil::small_connected_corpus()) {
    for (const RelabelMode mode : {RelabelMode::kAuto, RelabelMode::kAlways}) {
      const CompressedGraph cz = compress(g, pool, {.relabel = mode});
      EXPECT_TRUE(validate_compressed_structure(cz, pool).ok()) << name;
      EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g)) << name;

      ASSERT_TRUE(io::write_csr(cz, f.path).ok());
      const auto loaded = io::load_compressed_csr(f.path);
      ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().message();
      EXPECT_EQ(loaded.value().relabeled(), cz.relabeled()) << name;
      EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g))
          << name;

      // Plain-CSR consumers accept the compressed file transparently.
      const auto plain = io::load_csr(f.path);
      ASSERT_TRUE(plain.ok()) << name;
      EXPECT_TRUE(testutil::same_csr(plain.value(), g)) << name;
    }
  }
}

TEST(Compressed, ZeroDegreeRunsRoundTrip) {
  // Leading, interior, and trailing runs of isolated vertices: a path
  // over every third vertex starting at 30, so storage holds long runs
  // of zero-degree entries the index and decode walk must skip exactly.
  const NodeId n = 240;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 30; u + 3 < 180; u += 3) edges.emplace_back(u, u + 3);
  const Graph g = from_undirected_edges(n, edges);
  ASSERT_TRUE(g.validate());

  ThreadPool pool(2);
  TempFile f("gclus_cz_zerodeg.csr2");
  for (const RelabelMode mode : {RelabelMode::kAuto, RelabelMode::kAlways}) {
    const CompressedGraph cz = compress(g, pool, {.relabel = mode});
    EXPECT_TRUE(validate_compressed_structure(cz, pool).ok());
    EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g));

    ASSERT_TRUE(io::write_csr(cz, f.path).ok());
    const auto loaded = io::load_compressed_csr(f.path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g));
  }
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
  for (const RelabelMode mode : {RelabelMode::kAuto, RelabelMode::kAlways}) {
    const CompressedGraph cz = compress(g, pool, {.relabel = mode});
    EXPECT_TRUE(validate_compressed_structure(cz, pool).ok());
    EXPECT_TRUE(testutil::same_csr(cz.decompress(pool), g));

    ASSERT_TRUE(io::write_csr(cz, f.path).ok());
    const auto loaded = io::load_compressed_csr(f.path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_TRUE(testutil::same_csr(loaded.value().decompress(pool), g));
  }
}

TEST(Compressed, RelabelingIsABijectionAndAutoSkipsRegularGraphs) {
  // A near-regular graph has nothing to gain from degree ordering, so
  // kAuto must keep the identity (no perm/inv cost).  On an *exactly*
  // regular graph even kAlways drops the maps: the degree-descending
  // stable order is the identity.
  EXPECT_FALSE(compress(gen::expander(2000, 4, 9)).relabeled());
  EXPECT_FALSE(
      compress(gen::cycle(500), {.relabel = RelabelMode::kAlways}).relabeled());

  // A skewed graph reorders; the forced maps must be a bijection and
  // decode back to the original ids exactly.
  const Graph skew = gen::preferential_attachment(4000, 3, 11);
  const CompressedGraph forced =
      compress(skew, {.relabel = RelabelMode::kAlways});
  ASSERT_TRUE(forced.relabeled());
  for (NodeId u = 0; u < skew.num_nodes(); ++u) {
    EXPECT_EQ(forced.to_original(forced.to_storage(u)), u);
  }
  EXPECT_TRUE(testutil::same_csr(forced.decompress(), skew));
}

// ---- adversarial inputs -----------------------------------------------------

TEST(CompressedCorruption, EveryBitFlipComesBackAsStatus) {
  TempFile f("gclus_cz_bitflip.csr2");
  const Graph g = gen::grid(12, 12);
  const CompressedGraph cz = compress(g, {.relabel = RelabelMode::kAlways});
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
