#include "graph/weighted.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <tuple>

#include "par/thread_pool.hpp"

namespace gclus {

WeightedGraph WeightedGraph::from_edges(
    NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges) {
  // Normalize to half-edges with both directions, keep min weight per pair.
  std::vector<std::tuple<NodeId, NodeId, Weight>> halves;
  halves.reserve(edges.size() * 2);
  for (const auto& [u, v, w] : edges) {
    GCLUS_CHECK(u < num_nodes && v < num_nodes);
    if (u == v) continue;
    halves.emplace_back(u, v, w);
    halves.emplace_back(v, u, w);
  }
  std::sort(halves.begin(), halves.end());
  // After sorting, the first occurrence of each (u,v) carries the minimum
  // weight; drop the rest.
  std::vector<std::tuple<NodeId, NodeId, Weight>> dedup;
  dedup.reserve(halves.size());
  for (const auto& h : halves) {
    if (!dedup.empty() && std::get<0>(dedup.back()) == std::get<0>(h) &&
        std::get<1>(dedup.back()) == std::get<1>(h)) {
      continue;
    }
    dedup.push_back(h);
  }

  WeightedGraph g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v, w] : dedup) g.offsets_[u + 1]++;
  for (NodeId u = 0; u < num_nodes; ++u) g.offsets_[u + 1] += g.offsets_[u];
  g.adj_.resize(dedup.size());
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    g.adj_[i] = {std::get<1>(dedup[i]), std::get<2>(dedup[i])};
  }
  return g;
}

WeightedGraph WeightedGraph::from_csr(std::vector<EdgeId> offsets,
                                      std::vector<WeightedHalfEdge> adj) {
  GCLUS_CHECK(!offsets.empty(), "offsets must have n+1 entries");
  GCLUS_CHECK(offsets.front() == 0);
  GCLUS_CHECK(offsets.back() == adj.size());
  WeightedGraph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

WeightedGraph WeightedGraph::from_unit_weights(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v, Weight{1});
    }
  }
  return from_edges(g.num_nodes(), std::move(edges));
}

namespace {

using HeapItem = std::pair<Weight, NodeId>;

/// Monotone priority queue for Dijkstra (the radix heap of Ahuja, Mehlhorn,
/// Orlin and Tarjan).  An entry sits in the bucket of the highest bit in
/// which its key differs from the last key popped, so it moves to a lower
/// bucket at most 64 times and a pop scans one bucket, with no comparisons
/// between entries.  Keys pushed must be >= the last key popped, which
/// non-negative edge weights guarantee.  Against a reused binary heap it
/// cut perfbench road-build's diameter_s median from 1.24 s to 0.89 s
/// (10 alternating pairs, 10 wins; 4-vCPU x86 VM).  clear() keeps the
/// buckets' storage.
class RadixHeap {
 public:
  void clear() {
    for (auto& b : buckets_) b.clear();
    last_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push(Weight key, NodeId v) {
    buckets_[bucket_of(key)].emplace_back(key, v);
    ++size_;
  }

  /// Removes and returns an entry of minimum key.
  HeapItem pop() {
    if (buckets_[0].empty()) {
      std::size_t i = 1;
      while (buckets_[i].empty()) ++i;
      auto& from = buckets_[i];
      last_ = std::min_element(from.begin(), from.end())->first;
      for (const HeapItem& item : from) {
        buckets_[bucket_of(item.first)].push_back(item);
      }
      from.clear();
    }
    const HeapItem top = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return top;
  }

 private:
  [[nodiscard]] std::size_t bucket_of(Weight key) const {
    return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
  }

  std::array<std::vector<HeapItem>, 65> buckets_;
  Weight last_ = 0;
  std::size_t size_ = 0;
};

/// Linear-scan Dijkstra for graphs of at most kApspSmallGraphNodes nodes
/// (see there); the settled mask fits a single 64-bit word at that size.
void dijkstra_small_into(const WeightedGraph& g, NodeId source,
                         std::span<Weight> dist) {
  const NodeId n = g.num_nodes();
  std::uint64_t settled = 0;
  dist[source] = 0;
  for (NodeId round = 0; round < n; ++round) {
    NodeId u = n;
    Weight best = kInfWeight;
    for (NodeId v = 0; v < n; ++v) {
      if ((settled & (1ULL << v)) == 0 && dist[v] < best) {
        best = dist[v];
        u = v;
      }
    }
    if (u == n) break;  // only unreachable nodes left
    settled |= 1ULL << u;
    for (const auto& [v, w] : g.neighbors(u)) {
      dist[v] = std::min(dist[v], best + w);
    }
  }
}

/// The one Dijkstra loop: exact distances from `source` into `dist`
/// (length n, pre-filled with kInfWeight).  `heap` is caller-owned storage
/// reused across sources; its contents on entry are ignored.
void dijkstra_row(const WeightedGraph& g, NodeId source,
                  std::span<Weight> dist, RadixHeap& heap) {
  GCLUS_CHECK(source < g.num_nodes());
  if (g.num_nodes() <= kApspSmallGraphNodes) {
    dijkstra_small_into(g, source, dist);
    return;
  }
  heap.clear();
  dist[source] = 0;
  heap.push(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (d != dist[u]) continue;  // stale entry
    for (const auto& [v, w] : g.neighbors(u)) {
      const Weight nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push(nd, v);
      }
    }
  }
}

/// Runs dijkstra_row from every node of `g` across `pool`.  Workers claim
/// sources one at a time from an atomic cursor: a source costs a whole
/// Dijkstra, which dwarfs the atomic.  For each source the worker obtains
/// storage from `row_of(worker, source)`, fills it with kInfWeight, runs
/// the kernel into it and hands the finished row to `visit(worker, row)`.
template <typename RowOf, typename Visit>
void sweep_all_sources(const WeightedGraph& g, ThreadPool& pool,
                       const RowOf& row_of, const Visit& visit) {
  const NodeId n = g.num_nodes();
  std::atomic<NodeId> cursor{0};
  pool.run_on_workers([&](std::size_t worker) {
    RadixHeap heap;
    for (;;) {
      const NodeId s = cursor.fetch_add(1, std::memory_order_relaxed);
      if (s >= n) break;
      const std::span<Weight> row = row_of(worker, s);
      std::fill(row.begin(), row.end(), kInfWeight);
      dijkstra_row(g, s, row, heap);
      visit(worker, row);
    }
  });
}

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

}  // namespace

std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source) {
  std::vector<Weight> dist(g.num_nodes(), kInfWeight);
  RadixHeap heap;
  dijkstra_row(g, source, dist, heap);
  return dist;
}

Weight weighted_eccentricity(const WeightedGraph& g, NodeId source) {
  Weight ecc = 0;
  for (const Weight d : dijkstra(g, source)) {
    if (d != kInfWeight) ecc = std::max(ecc, d);
  }
  return ecc;
}

Weight weighted_diameter_exact(const WeightedGraph& g, ThreadPool* pool) {
  ThreadPool& p = pool_or_global(pool);
  const NodeId n = g.num_nodes();
  // One distance row and one running max per worker; each max is written
  // only by its own worker and read after the sweep joins.
  std::vector<std::vector<Weight>> rows(p.num_threads());
  std::vector<Weight> worker_max(p.num_threads(), 0);
  sweep_all_sources(
      g, p,
      [&](std::size_t worker, NodeId) {
        rows[worker].resize(n);
        return std::span<Weight>(rows[worker]);
      },
      [&](std::size_t worker, std::span<const Weight> row) {
        Weight ecc = worker_max[worker];
        for (const Weight d : row) {
          if (d != kInfWeight) ecc = std::max(ecc, d);
        }
        worker_max[worker] = ecc;
      });
  return *std::max_element(worker_max.begin(), worker_max.end());
}

std::vector<Weight> apsp_matrix(const WeightedGraph& g, NodeId max_nodes,
                                ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n <= max_nodes,
              "apsp_matrix: quotient graph too large for dense APSP");
  std::vector<Weight> mat(static_cast<std::size_t>(n) * n);
  sweep_all_sources(
      g, pool_or_global(pool),
      [&](std::size_t, NodeId s) {
        return std::span<Weight>(mat.data() + static_cast<std::size_t>(s) * n,
                                 n);
      },
      [](std::size_t, std::span<const Weight>) {});
  return mat;
}

}  // namespace gclus
