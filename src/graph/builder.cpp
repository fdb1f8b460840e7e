#include "graph/builder.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <utility>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

namespace {

// Builds with fewer edges than this run every phase inline on the caller:
// a pool dispatch costs more than the whole build (the decompositions'
// quotient graphs, the tests' graphs).
constexpr std::size_t kInlineBuildEdges = std::size_t{1} << 16;

// Source ids split into at most 2^kRangeBits contiguous ranges of 2^shift
// nodes.  A range's counting sort touches one cursor per node of the range
// (a cache-resident array), and a block's scatter keeps one cursor per
// range (L1-resident).
constexpr unsigned kRangeBits = 10;

// Edge blocks per worker in the count and scatter phases.
constexpr std::size_t kBlocksPerWorker = 4;

/// A half-edge in the range-grouped staging array.  Trivial, so the array
/// is allocated without a serial zero fill.
struct HalfEdge {
  NodeId src;
  NodeId dst;
};

/// Runs task(t) for every t in [0, count): inline when `pool` is null,
/// else on the pool's workers, which take tasks one at a time.
template <typename Task>
void run_tasks(ThreadPool* pool, std::size_t count, const Task& task) {
  if (pool != nullptr) {
    parallel_for(*pool, 0, count, task, /*grain=*/1);
  } else {
    for (std::size_t t = 0; t < count; ++t) task(t);
  }
}

}  // namespace

// Small builds run inline, so they do not start the global pool either.
Graph GraphBuilder::build() {
  return build_on(edges_.size() < kInlineBuildEdges ? nullptr
                                                    : &ThreadPool::global());
}

Graph GraphBuilder::build(ThreadPool& pool) {
  return build_on(edges_.size() < kInlineBuildEdges ? nullptr : &pool);
}

// Bucketed counting sort, with no atomics, so a hub's half-edges do not
// serialize on one counter:
//   1. Each edge block counts its half-edges per source range; a
//      range-major exclusive prefix sum gives every (range, block) pair a
//      disjoint slice of the staging array, and each block scatters both
//      directions of its non-loop edges into its slices.
//   2. One task per range counting-sorts the range's half-edges by source
//      straight into the final `neighbors`/`offsets`, then sorts and
//      dedups each row, compacting the range's rows to its front.
//   3. Only when some duplicate was dropped are the ranges packed into a
//      new array.
// Rows come out sorted and unique, so the CSR does not depend on the block
// or range schedule: it is byte-identical for any pool.
Graph GraphBuilder::build_on(ThreadPool* par) {
  const std::uint64_t n = num_nodes_;
  const std::size_t num_edges = edges_.size();
  const std::size_t workers = par == nullptr ? 1 : par->num_threads();

  const unsigned bits = n <= 1 ? 0 : std::bit_width(n - 1);
  const unsigned shift = bits > kRangeBits ? bits - kRangeBits : 0;
  const std::size_t num_ranges =
      static_cast<std::size_t>((n + (std::uint64_t{1} << shift) - 1) >> shift);
  const auto range_lo = [&](std::size_t r) {
    return static_cast<NodeId>(std::uint64_t{r} << shift);
  };
  const auto range_hi = [&](std::size_t r) {
    return static_cast<NodeId>(std::min(n, std::uint64_t{r + 1} << shift));
  };

  const std::size_t num_blocks = workers == 1 ? 1 : kBlocksPerWorker * workers;
  const std::size_t block_len = (num_edges + num_blocks - 1) / num_blocks;
  const auto block = [&](std::size_t b) {
    const std::size_t lo = std::min(b * block_len, num_edges);
    return std::span(edges_).subspan(lo, std::min(block_len, num_edges - lo));
  };

  // slice[r * num_blocks + b]: first staging slot of block b's half-edges
  // with a source in range r.  Blocks count locally and write their column
  // once, so no two blocks share a hot counter's cache line.
  std::vector<EdgeId> slice(num_ranges * num_blocks, 0);
  run_tasks(par, num_blocks, [&](std::size_t b) {
    std::vector<EdgeId> count(num_ranges, 0);
    for (const auto& [u, v] : block(b)) {
      if (u == v) continue;
      ++count[u >> shift];
      ++count[v >> shift];
    }
    for (std::size_t r = 0; r < num_ranges; ++r) {
      slice[r * num_blocks + b] = count[r];
    }
  });
  const EdgeId total = exclusive_prefix_sum(slice);
  const auto range_begin = [&](std::size_t r) {
    return r < num_ranges ? slice[r * num_blocks] : total;
  };

  auto staging = std::make_unique_for_overwrite<HalfEdge[]>(total);
  run_tasks(par, num_blocks, [&](std::size_t b) {
    std::vector<EdgeId> at(num_ranges);
    for (std::size_t r = 0; r < num_ranges; ++r) {
      at[r] = slice[r * num_blocks + b];
    }
    for (const auto& [u, v] : block(b)) {
      if (u == v) continue;
      staging[at[u >> shift]++] = {u, v};
      staging[at[v >> shift]++] = {v, u};
    }
  });
  edges_ = {};

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> neighbors(total);
  std::vector<EdgeId> kept(num_ranges);
  run_tasks(par, num_ranges, [&](std::size_t r) {
    const NodeId lo = range_lo(r);
    const NodeId hi = range_hi(r);
    const EdgeId begin = range_begin(r);
    const EdgeId end = range_begin(r + 1);
    std::vector<EdgeId> cursor(hi - lo, 0);
    for (EdgeId i = begin; i < end; ++i) ++cursor[staging[i].src - lo];
    EdgeId pos = begin;
    for (NodeId u = lo; u < hi; ++u) {
      offsets[u] = pos;
      pos += std::exchange(cursor[u - lo], pos);
    }
    for (EdgeId i = begin; i < end; ++i) {
      neighbors[cursor[staging[i].src - lo]++] = staging[i].dst;
    }
    // cursor[u - lo] is now the end of row u.
    NodeId* const nbr = neighbors.data();
    EdgeId at = begin;
    for (NodeId u = lo; u < hi; ++u) {
      NodeId* const row = nbr + offsets[u];
      NodeId* const row_end = nbr + cursor[u - lo];
      std::sort(row, row_end);
      NodeId* const last = std::unique(row, row_end);
      offsets[u] = at;
      if (nbr + at != row) std::copy(row, last, nbr + at);
      at += static_cast<EdgeId>(last - row);
    }
    kept[r] = at - begin;
  });
  staging.reset();

  // kept[r] becomes range r's first slot in the packed array.
  const EdgeId kept_total = exclusive_prefix_sum(kept);
  offsets[n] = kept_total;
  if (kept_total != total) {
    std::vector<NodeId> packed(kept_total);
    run_tasks(par, num_ranges, [&](std::size_t r) {
      const EdgeId from = range_begin(r);
      const EdgeId to = kept[r];
      const EdgeId len = (r + 1 < num_ranges ? kept[r + 1] : kept_total) - to;
      std::copy_n(neighbors.data() + from, len, packed.data() + to);
      for (NodeId u = range_lo(r); u < range_hi(r); ++u) {
        offsets[u] = offsets[u] - from + to;
      }
    });
    neighbors.swap(packed);
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph build_graph(NodeId num_nodes, const std::vector<Edge>& edges) {
  GraphBuilder b(num_nodes);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

}  // namespace gclus
