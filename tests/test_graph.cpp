// Unit tests for the CSR Graph, the builder normalization rules (also
// against an independent std::sort reference at several pool sizes), and
// induced subgraphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(GraphBuilder, BuildsTriangle) {
  const Graph g = build_graph(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_half_edges(), 6u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, RemovesSelfLoops) {
  const Graph g = build_graph(3, {{0, 0}, {0, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  const Graph g = build_graph(2, {{0, 1}, {1, 0}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, SymmetrizesDirectedInput) {
  const Graph g = build_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, AdjacencyListsAreSorted) {
  const Graph g = build_graph(5, {{4, 0}, {2, 0}, {0, 1}, {3, 0}});
  const auto adj = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
  EXPECT_EQ(adj.size(), 4u);
}

TEST(GraphBuilder, IsolatedNodesAllowed) {
  const Graph g = build_graph(10, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.degree(5), 0u);
  EXPECT_TRUE(g.neighbors(5).empty());
}

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = build_graph(4, {});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(GraphBuilder, IncrementalAddEdges) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edges({{1, 2}, {2, 3}});
  EXPECT_EQ(b.num_pending_edges(), 3u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderDeathTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(0, 3), "out of range");
}

// ---- builder vs an independent reference ------------------------------------

/// The normalization rules spelled out directly: both directions of every
/// non-loop edge, std::sort, std::unique, then rows in order.  Shares no
/// code with GraphBuilder.
Graph reference_build(NodeId n, const std::vector<Edge>& edges) {
  std::vector<Edge> halves;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    halves.emplace_back(u, v);
    halves.emplace_back(v, u);
  }
  std::sort(halves.begin(), halves.end());
  halves.erase(std::unique(halves.begin(), halves.end()), halves.end());
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> neighbors;
  for (const auto& [u, v] : halves) {
    ++offsets[u + 1];
    neighbors.push_back(v);
  }
  for (NodeId u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  return Graph(std::move(offsets), std::move(neighbors));
}

struct BuilderCase {
  std::string name;
  NodeId n;
  std::vector<Edge> edges;
};

/// `m` random edges over [0, n), then duplicates, reversed copies and
/// self-loops of some of them, shuffled.
std::vector<Edge> messy_edges(NodeId n, std::size_t m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> node(0, n - 1);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) edges.emplace_back(node(rng), node(rng));
  for (std::size_t i = 0; i < m / 8; ++i) {
    const Edge e = edges[i * 7];
    edges.push_back(e);
    edges.emplace_back(e.second, e.first);
    edges.emplace_back(e.first, e.first);
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

/// A star around `hub` over [0, n), each spoke listed twice (once
/// reversed), shuffled: the hub's row spans every edge block.
std::vector<Edge> star_edges(NodeId n, NodeId hub, std::uint64_t seed) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    if (v == hub) continue;
    edges.emplace_back(hub, v);
    if (v % 3 == 0) edges.emplace_back(v, hub);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

std::vector<BuilderCase> builder_cases() {
  std::vector<BuilderCase> cases;
  // Multi-block parallel builds (>= 2^16 edges); 100000 is not a multiple
  // of the 128-node range width.
  cases.push_back({"messy", 100000, messy_edges(100000, 300000, 1)});
  // 2^17 + 1 nodes: the last range holds one node, which gets edges.
  {
    const NodeId n = (NodeId{1} << 17) + 1;
    std::vector<Edge> edges = messy_edges(n, 120000, 2);
    edges.emplace_back(n - 1, 0);
    edges.emplace_back(n - 1, n - 2);
    cases.push_back({"two_pow_17_plus_1", n, std::move(edges)});
  }
  cases.push_back({"star", 150000, star_edges(150000, 70001, 3)});
  // Inline builds (< 2^16 edges), one with a hub row of 6000 leaves.
  cases.push_back({"small_messy", 50, messy_edges(50, 200, 4)});
  cases.push_back({"small_star", 6000, star_edges(6000, 17, 5)});
  cases.push_back({"empty", 0, {}});
  cases.push_back({"single_node", 1, {{0, 0}, {0, 0}}});
  cases.push_back({"edgeless", 1000, {}});
  cases.push_back({"loops_only", 70000, messy_edges(1, 70000, 6)});
  return cases;
}

TEST(GraphBuilder, MatchesSortReferenceAtAnyPoolSize) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const BuilderCase& c : builder_cases()) {
    const Graph want = reference_build(c.n, c.edges);
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      GraphBuilder b(c.n);
      b.add_edges(c.edges);
      const Graph got = b.build(*pool);
      EXPECT_TRUE(testutil::same_csr(want, got))
          << c.name << " at " << pool->num_threads() << " threads";
      EXPECT_TRUE(got.validate()) << c.name;
    }
  }
}

TEST(Graph, HasEdgeBinarySearch) {
  const Graph g = gen::grid(5, 5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(0, 6));   // diagonal
  EXPECT_FALSE(g.has_edge(0, 24));  // opposite corner
}

TEST(Graph, MemoryBytesScalesWithSize) {
  const Graph small = gen::path(10);
  const Graph large = gen::path(1000);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

TEST(Graph, ValidateCatchesHandCraftedAsymmetry) {
  // CSR with 0 -> 1 but no 1 -> 0: must fail validation.
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<NodeId> neighbors{1};
  const Graph g(std::move(offsets), std::move(neighbors));
  EXPECT_FALSE(g.validate());
}

TEST(Graph, ValidateCatchesSelfLoop) {
  std::vector<EdgeId> offsets{0, 1};
  std::vector<NodeId> neighbors{0};
  const Graph g(std::move(offsets), std::move(neighbors));
  EXPECT_FALSE(g.validate());
}

TEST(InducedSubgraph, ExtractsTriangleFromGrid) {
  // Nodes 0,1,5 of a 5x5 grid: edges {0,1} and {0,5} survive, {1,5} absent.
  const Graph g = gen::grid(5, 5);
  const Graph s = induced_subgraph(g, {0, 1, 5});
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_TRUE(s.has_edge(0, 1));
  EXPECT_TRUE(s.has_edge(0, 2));
  EXPECT_FALSE(s.has_edge(1, 2));
}

TEST(InducedSubgraph, FullSubsetIsIdentity) {
  const Graph g = gen::cycle(12);
  std::vector<NodeId> all(12);
  for (NodeId i = 0; i < 12; ++i) all[i] = i;
  const Graph s = induced_subgraph(g, all);
  EXPECT_EQ(s.num_edges(), g.num_edges());
  EXPECT_TRUE(s.validate());
}

TEST(InducedSubgraphDeathTest, RejectsDuplicates) {
  const Graph g = gen::path(5);
  EXPECT_DEATH(induced_subgraph(g, {1, 1}), "duplicate");
}

// Every corpus graph satisfies the full CSR invariant set.
class CorpusGraphTest
    : public ::testing::TestWithParam<testutil::NamedGraph> {};

TEST_P(CorpusGraphTest, SatisfiesInvariants) {
  const Graph& g = GetParam().graph;
  EXPECT_TRUE(g.validate()) << GetParam().name;
  EXPECT_GE(g.num_nodes(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusGraphTest,
    ::testing::ValuesIn(testutil::small_connected_corpus()),
    [](const ::testing::TestParamInfo<testutil::NamedGraph>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

}  // namespace
}  // namespace gclus
