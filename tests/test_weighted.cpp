// Tests for the weighted graph module: construction normalization,
// Dijkstra against BFS on unit weights, weighted diameter, and the
// all-sources sweep behind APSP and Δ′_C at several pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

/// `g`'s edges with weights drawn from [1, 20].
WeightedGraph random_weights(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v, 1 + rng.next_below(20));
    }
  }
  return WeightedGraph::from_edges(g.num_nodes(), std::move(edges));
}

/// APSP from one dijkstra() call per source, rows concatenated.
std::vector<Weight> per_source_apsp(const WeightedGraph& g) {
  std::vector<Weight> mat;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto d = dijkstra(g, u);
    mat.insert(mat.end(), d.begin(), d.end());
  }
  return mat;
}

/// Floyd–Warshall: a reference that shares no code with the row kernel.
std::vector<Weight> floyd_warshall(const WeightedGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<Weight> d(n * n, kInfWeight);
  for (std::size_t u = 0; u < n; ++u) {
    d[u * n + u] = 0;
    for (const auto& [v, w] : g.neighbors(static_cast<NodeId>(u))) {
      d[u * n + v] = std::min(d[u * n + v], w);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i * n + k] == kInfWeight) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (d[k * n + j] == kInfWeight) continue;
        d[i * n + j] = std::min(d[i * n + j], d[i * n + k] + d[k * n + j]);
      }
    }
  }
  return d;
}

/// Inputs for the sweep checks: both sides of kApspSmallGraphNodes, a
/// disconnected graph on each side, and a single node.
std::vector<std::pair<std::string, WeightedGraph>> sweep_inputs() {
  const Graph road_40 =
      testutil::largest_component_of(gen::road_like(5, 8, 0.1, 0.05, 3));
  const Graph road_150 =
      testutil::largest_component_of(gen::road_like(10, 15, 0.1, 0.05, 5));
  std::vector<std::pair<std::string, WeightedGraph>> out;
  out.emplace_back("road_40", random_weights(road_40, 7));
  out.emplace_back("grid_64", random_weights(gen::grid(8, 8), 9));
  out.emplace_back("road_150", random_weights(road_150, 11));
  out.emplace_back("expander_300",
                   random_weights(gen::expander(300, 4, 13), 15));
  out.emplace_back(
      "split_30",
      random_weights(gen::disjoint_union(gen::path(10), gen::cycle(20)), 17));
  out.emplace_back("split_130",
                   random_weights(gen::disjoint_union(gen::grid(8, 10),
                                                      gen::path(50)),
                                  19));
  out.emplace_back("single", WeightedGraph::from_edges(1, {}));
  return out;
}

TEST(Sweep, ApspAndDiameterMatchPerSourceDijkstraAtAnyPoolSize) {
  for (const auto& [name, g] : sweep_inputs()) {
    const NodeId n = g.num_nodes();
    const std::vector<Weight> want = per_source_apsp(g);
    ASSERT_EQ(want, floyd_warshall(g)) << name;
    Weight want_diam = 0;
    bool unreachable = false;
    for (const Weight d : want) {
      if (d == kInfWeight) {
        unreachable = true;
      } else {
        want_diam = std::max(want_diam, d);
      }
    }
    // The disconnected inputs must actually exercise kInfWeight rows.
    EXPECT_EQ(unreachable, name.rfind("split", 0) == 0) << name;
    for (const std::size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(apsp_matrix(g, n, &pool), want)
          << name << " threads " << threads;
      EXPECT_EQ(weighted_diameter_exact(g, &pool), want_diam)
          << name << " threads " << threads;
    }
  }
}

TEST(WeightedGraph, ParallelEdgesKeepMinimumWeight) {
  const WeightedGraph g = WeightedGraph::from_edges(
      2, {{0, 1, 7}, {0, 1, 3}, {1, 0, 5}});
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].w, 3u);
  EXPECT_EQ(g.neighbors(1)[0].w, 3u);
}

TEST(WeightedGraph, DropsSelfLoops) {
  const WeightedGraph g =
      WeightedGraph::from_edges(2, {{0, 0, 1}, {0, 1, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  for (const auto& [name, graph] : testutil::small_connected_corpus()) {
    if (graph.num_nodes() > 600) continue;  // keep the sweep cheap
    const WeightedGraph w = WeightedGraph::from_unit_weights(graph);
    const auto dj = dijkstra(w, 0);
    const auto bf = bfs_distances(graph, 0);
    ASSERT_EQ(dj.size(), bf.size()) << name;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_EQ(dj[v], bf[v]) << name << " node " << v;
    }
  }
}

TEST(Dijkstra, WeightedShortcutPreferred) {
  // 0-1-2 with weights 1+1 vs direct 0-2 weight 3: path wins.
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 3}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const WeightedGraph g = WeightedGraph::from_edges(4, {{0, 1, 2}, {2, 3, 2}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[1], 2u);
  EXPECT_EQ(d[2], kInfWeight);
}

TEST(WeightedEccentricity, PathWithWeights) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 5}});
  EXPECT_EQ(weighted_eccentricity(g, 0), 16u);
  EXPECT_EQ(weighted_eccentricity(g, 2), 11u);
}

TEST(WeightedDiameter, MatchesUnweightedOnUnitWeights) {
  const Graph g = gen::grid(6, 7);
  const WeightedGraph w = WeightedGraph::from_unit_weights(g);
  EXPECT_EQ(weighted_diameter_exact(w), testutil::brute_force_diameter(g));
}

TEST(WeightedDiameter, RespectsWeights) {
  // Triangle 0-1:100, 1-2:100, 0-2:1.  The heaviest shortest path is the
  // direct 100-weight edge (the two-hop alternative costs 101).
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 100}, {1, 2, 100}, {0, 2, 1}});
  EXPECT_EQ(weighted_diameter_exact(g), 100u);
  // Dropping the shortcut pushes the diameter to 200.
  const WeightedGraph h =
      WeightedGraph::from_edges(3, {{0, 1, 100}, {1, 2, 100}});
  EXPECT_EQ(weighted_diameter_exact(h), 200u);
}

TEST(ApspMatrix, SymmetricAndConsistentWithDijkstra) {
  const Graph base = gen::ring_of_cliques(5, 4);
  const WeightedGraph g = WeightedGraph::from_unit_weights(base);
  const NodeId n = g.num_nodes();
  const auto mat = apsp_matrix(g);
  for (NodeId u = 0; u < n; ++u) {
    const auto d = dijkstra(g, u);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v], d[v]);
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v],
                mat[static_cast<std::size_t>(v) * n + u]);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + u], 0u);
  }
}

TEST(ApspMatrixDeathTest, RefusesOversizedInput) {
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::path(100));
  EXPECT_DEATH((void)apsp_matrix(g, /*max_nodes=*/50), "too large");
}

}  // namespace
}  // namespace gclus
