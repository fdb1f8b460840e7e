// Edge-list to CSR construction.
//
// The builder accepts arbitrary (possibly duplicated, self-looped,
// one-directional) edge lists and normalizes them into the Graph
// invariants: symmetric, sorted, duplicate- and loop-free.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace gclus {

class ThreadPool;

/// An undirected edge as a pair of endpoints.
using Edge = std::pair<NodeId, NodeId>;

class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id universe [0, num_nodes).
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Records an undirected edge {u, v}.  Self-loops and duplicates are
  /// tolerated here and removed in build().
  void add_edge(NodeId u, NodeId v) {
    GCLUS_CHECK(u < num_nodes_ && v < num_nodes_, "edge endpoint out of range");
    edges_.emplace_back(u, v);
  }

  void add_edges(const std::vector<Edge>& edges) {
    edges_.reserve(edges_.size() + edges.size());
    for (const auto& [u, v] : edges) add_edge(u, v);
  }

  /// Bulk move-in for large edge lists (the parallel parser's path): the
  /// endpoints are range-checked but the vector's buffer is adopted, not
  /// copied.  Only valid when no edges have been added yet.
  void adopt_edges(std::vector<Edge>&& edges) {
    GCLUS_CHECK(edges_.empty(), "adopt_edges requires an empty builder");
    for (const auto& [u, v] : edges) {
      GCLUS_CHECK(u < num_nodes_ && v < num_nodes_,
                  "edge endpoint out of range");
    }
    edges_ = std::move(edges);
  }

  [[nodiscard]] std::size_t num_pending_edges() const { return edges_.size(); }

  /// Builds the normalized CSR graph, consuming the accumulated edges.
  /// Large builds run a bucketed counting sort on `pool` (edge blocks
  /// scatter into node-range buckets, then one task per range sorts its
  /// rows); small ones run inline.  The no-argument form uses the
  /// process-global pool.  The result is byte-identical for any pool.
  [[nodiscard]] Graph build();
  [[nodiscard]] Graph build(ThreadPool& pool);

 private:
  /// build() on `par`, or inline on the caller when `par` is null.
  Graph build_on(ThreadPool* par);

  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

/// One-shot convenience: normalize `edges` over [0, num_nodes) into a Graph.
[[nodiscard]] Graph build_graph(NodeId num_nodes,
                                const std::vector<Edge>& edges);

}  // namespace gclus
