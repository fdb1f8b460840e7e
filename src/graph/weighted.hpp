// Weighted graphs, Dijkstra, and the quotient's all-sources sweeps.
//
// The decomposition pipeline needs weights only on the *quotient* graph
// (§4: edge weight = shortest inter-cluster connection length).  Two of its
// steps run Dijkstra from every quotient node: the exact weighted diameter
// Δ′_C behind Δ″ = 2R + Δ′_C (Corollary 1) and the distance oracle's dense
// APSP matrix.  With thousands of quotient nodes each sweep costs seconds
// on one core, so both run as one parallel sweep: workers claim sources
// from an atomic cursor, and each reuses its own distance row and heap
// storage across the sources it takes.
//
// Pools: every sweep takes a trailing `ThreadPool*`; nullptr means the
// process-global pool.  A sweep dispatches on that pool, and pools reject
// nested run_on_workers, so a caller already running on a pool's worker
// (an MR reducer, say) must pass a different pool — `ThreadPool(1)` runs
// the sweep inline on the calling thread.
//
// Results: distances are exact, and each row depends only on its source,
// so every output is bit-identical at any thread count.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus {

class ThreadPool;

struct WeightedHalfEdge {
  NodeId to;
  Weight w;

  friend bool operator==(const WeightedHalfEdge&,
                         const WeightedHalfEdge&) = default;
};

/// CSR weighted undirected graph.
class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Builds from a list of undirected weighted edges (u, v, w).  Parallel
  /// edges are collapsed to the minimum weight; self-loops are dropped.
  static WeightedGraph from_edges(
      NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges);

  /// Lifts an unweighted graph to weight-1 edges.
  static WeightedGraph from_unit_weights(const Graph& g);

  /// Adopts prebuilt CSR arrays verbatim (no re-sorting or dedup) — the
  /// deserialization entry point for graph/io.hpp, which validates the
  /// arrays structurally (and by checksum) before constructing.  Only the
  /// cheap shape invariants are re-checked here.
  static WeightedGraph from_csr(std::vector<EdgeId> offsets,
                                std::vector<WeightedHalfEdge> adj);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const { return adj_.size() / 2; }
  [[nodiscard]] EdgeId num_half_edges() const { return adj_.size(); }

  [[nodiscard]] std::span<const WeightedHalfEdge> neighbors(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] std::span<const EdgeId> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const WeightedHalfEdge> adjacency() const {
    return adj_;
  }

 private:
  std::vector<EdgeId> offsets_;
  std::vector<WeightedHalfEdge> adj_;
};

/// Single-source shortest paths: one row of the sweep kernel, run on the
/// calling thread.  Unreachable nodes hold kInfWeight.
[[nodiscard]] std::vector<Weight> dijkstra(const WeightedGraph& g,
                                           NodeId source);

/// Weighted eccentricity of `source` (max finite distance).
[[nodiscard]] Weight weighted_eccentricity(const WeightedGraph& g,
                                           NodeId source);

/// Weighted diameter (max finite distance over all pairs), by Dijkstra
/// from every node swept across `pool` (nullptr: the global pool).
/// Intended for quotient graphs (thousands of nodes), not raw inputs.
[[nodiscard]] Weight weighted_diameter_exact(const WeightedGraph& g,
                                             ThreadPool* pool = nullptr);

/// Up to this node count the sweep's row kernel skips the heap and runs
/// linear-scan Dijkstra straight over the output row: for tiny quotient
/// graphs (deep meshes and paths decompose into a handful of clusters) the
/// O(n²) scan beats heap traffic, and the row doubles as the
/// tentative-distance array.  Distances are exact either way — only the
/// schedule changes — so results are bit-identical across the two paths.
inline constexpr NodeId kApspSmallGraphNodes = 64;

/// Largest graph apsp_matrix builds a dense matrix for, and so the largest
/// quotient a distance oracle accepts: at 8-byte weights the matrix is
/// n² · 8 bytes, 12.8 GB at the cap, so the O(n²) memory stays deliberate.
inline constexpr NodeId kDenseApspMaxNodes = 40000;

/// All-pairs shortest paths as a dense n×n matrix (row-major), the
/// distance oracle's §4 payload for the quotient graph.  Rows are filled
/// in place by the sweep across `pool` (nullptr: the global pool).  Aborts
/// past `max_nodes`; callers facing untrusted sizes check first.
[[nodiscard]] std::vector<Weight> apsp_matrix(
    const WeightedGraph& g, NodeId max_nodes = kDenseApspMaxNodes,
    ThreadPool* pool = nullptr);

}  // namespace gclus
