// The synchronous cluster-growing engine.
//
// All decomposition algorithms in this library (CLUSTER, CLUSTER2, the MPX
// and random-centers baselines) share the same primitive: a set of
// clusters, each with a frontier, grows one hop per step, claiming
// uncovered nodes; concurrent claims on a node are resolved by an atomic
// minimum over a per-cluster priority key.  Because fetch-min is
// commutative, the final partition is a pure function of (graph, centers,
// priorities) — independent of thread schedule — which is what the
// determinism and MR-equivalence tests rely on.
//
// The engine is direction-optimizing.  Each step runs in one of two
// directions with identical claim semantics:
//   * push (top-down): every frontier node bids its cluster key to its
//     uncovered neighbors via atomic fetch-min — work proportional to the
//     frontier's degree sum;
//   * pull (bottom-up): every uncovered node scans its own neighbors for
//     frontier claimants — membership tested against a packed frontier
//     bitmap (1 bit/node, cache-resident even for dense frontiers) — and
//     takes the minimum key locally, contention-free because each node
//     writes only itself.
// The two directions agree exactly: between steps every covered neighbor
// of an uncovered node is a member of the current frontier (it was covered
// in the immediately preceding step or activated as a center since), so
// the pull-side minimum over frontier neighbors equals the push-side
// fetch-min over frontier bids.  GrowthOptions picks the direction per
// step with the classic degree-sum heuristic, or pins it for tests.
//
// Per-step work is proportional to the cheaper of the two degree sums; a
// full growth to cover the graph costs O(n + m) total claims.
// Scratch memory: all per-node and per-worker buffers live in a
// GrowthScratch (api/workspace.hpp).  By default each GrowthState owns a
// private one — allocation behavior identical to the historical engine —
// but a caller serving many runs on the same graph passes a Workspace and
// the engine borrows its warm scratch instead, skipping the O(n + m)
// allocate/fault cost per request (the reset of per-node state still
// happens every run; see Workspace's header).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/run_context.hpp"
#include "api/workspace.hpp"
#include "common/traversal.hpp"
#include "common/types.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

/// One per-step record of the direction decision and the degree sums that
/// drove it (the raw data behind the bench JSON's decision log).
struct GrowthStepLog {
  std::uint32_t step = 0;
  bool pull = false;
  NodeId frontier_size = 0;
  std::uint64_t frontier_degree_sum = 0;
  std::uint64_t uncovered_degree_sum = 0;
  NodeId newly_covered = 0;
};

struct GrowthStats {
  std::size_t push_steps = 0;
  std::size_t pull_steps = 0;
  std::uint64_t push_edges_scanned = 0;
  std::uint64_t pull_edges_scanned = 0;
  std::vector<GrowthStepLog> steps;
};

/// The engine is generic over the graph representation `G` — plain CSR
/// (Graph) or the Rice-coded CompressedGraph — through the shared accessor
/// surface (num_nodes/num_half_edges/degree/neighbors).  Both claim
/// directions reduce neighbors with commutative minima, and both
/// representations list neighbors in ascending id order, so the final
/// partition is byte-identical across representations.  Members are
/// defined in growth.cpp and explicitly instantiated for Graph and
/// CompressedGraph; GrowthState below keeps every existing call site
/// unchanged.
template <class G>
class GrowthStateT {
 public:
  /// Starts with every node uncovered and no clusters.  With a non-null
  /// `workspace` the engine borrows its growth scratch for the lifetime of
  /// this object (released on destruction); otherwise it allocates a
  /// private scratch.
  explicit GrowthStateT(const G& g, ThreadPool& pool,
                        GrowthOptions options = default_growth_options(),
                        Workspace* workspace = nullptr);

  /// Resolves pool, growth options, and workspace from the context.
  GrowthStateT(const G& g, const RunContext& ctx);

  ~GrowthStateT();

  GrowthStateT(const GrowthStateT&) = delete;
  GrowthStateT& operator=(const GrowthStateT&) = delete;

  /// Registers a new singleton cluster centered at `v` (must be uncovered).
  /// `priority` resolves multi-cluster claims: smaller wins.  Defaults to
  /// the cluster id, i.e. earlier-activated clusters win ties.
  /// Returns the new cluster's id.
  ClusterId add_center(NodeId v,
                       std::uint64_t priority = kPriorityFromClusterId);

  /// One synchronous growth step over all active frontiers.
  /// Returns the number of newly covered nodes.
  NodeId step();

  /// Grows for exactly `steps` steps (stops early only if the frontier
  /// empties).  Returns nodes covered.
  NodeId grow_steps(std::size_t steps);

  /// Grows until at least `target_new` additional nodes are covered or the
  /// frontier empties.  Returns nodes covered.
  NodeId grow_until_covered(NodeId target_new);

  [[nodiscard]] NodeId covered_count() const { return covered_count_; }
  [[nodiscard]] NodeId uncovered_count() const {
    return static_cast<NodeId>(g_->num_nodes() - covered_count_);
  }
  [[nodiscard]] bool frontier_empty() const { return b_->frontier.empty(); }
  [[nodiscard]] std::size_t steps_executed() const { return steps_executed_; }
  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(centers_.size());
  }
  [[nodiscard]] bool is_covered(NodeId v) const { return b_->covered[v] != 0; }

  /// Per-step direction decisions and edge-scan counters.
  [[nodiscard]] const GrowthStats& stats() const { return stats_; }

  /// An ascending superset of the uncovered nodes, compacted lazily as
  /// coverage grows — center sampling iterates this instead of rescanning
  /// the full node range every round.  Entries may be stale (already
  /// covered); callers must re-check is_covered().
  [[nodiscard]] const std::vector<NodeId>& uncovered_candidates();

  /// Smallest uncovered node, or kInvalidNode when fully covered.
  [[nodiscard]] NodeId first_uncovered();

  /// Turns every still-uncovered node into a singleton cluster.
  void add_singletons_for_uncovered();

  /// Extracts the final Clustering.  All nodes must be covered.
  [[nodiscard]] Clustering finish() &&;

  static constexpr std::uint64_t kPriorityFromClusterId = ~std::uint64_t{0};

 private:
  /// Applies GrowthOptions to pick this step's direction, with hysteresis
  /// between the push->pull and pull->push thresholds.
  [[nodiscard]] bool decide_pull();

  /// Top-down step: frontier nodes fetch-min their keys into uncovered
  /// neighbors, then proposals commit exactly once.
  NodeId step_push(std::uint32_t step_index);

  /// Bottom-up step: uncovered nodes take the minimum key over their
  /// covered (== frontier) neighbors.  Coverage flags flip only after the
  /// scan barrier so concurrent workers never observe same-step coverage.
  NodeId step_pull(std::uint32_t step_index);

  /// Rebuilds frontier_ from the per-worker buffers (prefix-sum parallel
  /// compaction) and refreshes the degree-sum bookkeeping.
  void install_next_frontier(std::uint64_t next_degree_sum);

  /// Drops covered entries from uncovered_candidates_ once more than half
  /// are stale; amortized O(n) over a full growth.
  void maybe_compact_candidates();

  const G* g_;
  ThreadPool* pool_;
  GrowthOptions options_;

  /// The per-run buffers, either borrowed from workspace_ or privately
  /// owned.  Roles (b_ = the scratch):
  ///   * b_->claim — claim key per node: (priority << 32) | cluster_id
  ///     while racing; the cluster id is the low 32 bits; kUnclaimed when
  ///     untouched;
  ///   * b_->covered — committed coverage flags;
  ///   * b_->committing — commit dedup latches (push phase 2);
  ///   * b_->dist — per-node hop distance to the claiming center;
  ///   * b_->frontier_bits — dense frontier: bit v set iff v is in
  ///     b_->frontier.  Pull steps test it instead of the byte-wide
  ///     covered array (8x less memory traffic on the neighbor scan);
  ///     atomic words because distinct frontier nodes can share a word
  ///     during the parallel set/clear passes;
  ///   * b_->uncovered_candidates — ascending superset of the uncovered
  ///     nodes (see uncovered_candidates());
  ///   * b_->proposals / b_->next_frontier / b_->sample — per-worker
  ///     output buffers.
  Workspace* workspace_ = nullptr;
  std::unique_ptr<GrowthScratch> owned_;
  GrowthScratch* b_ = nullptr;

  std::vector<NodeId> centers_;            // per cluster
  std::vector<std::uint32_t> activation_;  // per cluster: steps_executed_
                                           // at activation time

  std::uint64_t frontier_degree_sum_ = 0;   // over current frontier
  std::uint64_t uncovered_degree_sum_ = 0;  // over uncovered nodes
  bool pulling_ = false;                    // hysteresis state for kAuto

  NodeId covered_count_ = 0;
  std::size_t steps_executed_ = 0;
  GrowthStats stats_;

  static constexpr std::uint64_t kUnclaimed = ~std::uint64_t{0};

  void set_frontier_bit(NodeId v) {
    b_->frontier_bits[v >> 6].fetch_or(1ULL << (v & 63),
                                       std::memory_order_relaxed);
  }
  void clear_frontier_bit(NodeId v) {
    b_->frontier_bits[v >> 6].fetch_and(~(1ULL << (v & 63)),
                                        std::memory_order_relaxed);
  }
  [[nodiscard]] bool in_frontier(NodeId v) const {
    return (b_->frontier_bits[v >> 6].load(std::memory_order_relaxed) >>
            (v & 63)) &
           1ULL;
  }

  [[nodiscard]] static std::uint64_t make_key(ClusterId c,
                                              std::uint64_t priority) {
    return (priority << 32) | static_cast<std::uint64_t>(c);
  }
  [[nodiscard]] static ClusterId key_cluster(std::uint64_t key) {
    return static_cast<ClusterId>(key & 0xffffffffULL);
  }

  // The center sampler reuses the scratch's per-worker sample buffers.
  template <class G2>
  friend std::vector<NodeId> sample_uncovered_centers(GrowthStateT<G2>& state,
                                                      ThreadPool& pool,
                                                      std::uint64_t seed,
                                                      std::uint64_t draw_key,
                                                      double p);
};

/// The historical name: the engine over the plain CSR Graph.
using GrowthState = GrowthStateT<Graph>;

/// Samples every uncovered node independently with probability `p`, using
/// the deterministic draw keyed_bernoulli(seed, draw_key, node) — the
/// selected set depends only on the key inputs, never on the sweep
/// schedule.  Sweeps the engine's uncovered worklist in parallel and
/// returns the selected nodes in ascending order, ready for add_center in
/// node order.  Shared by CLUSTER's and CLUSTER2's batch selection.
template <class G2>
[[nodiscard]] std::vector<NodeId> sample_uncovered_centers(
    GrowthStateT<G2>& state, ThreadPool& pool, std::uint64_t seed,
    std::uint64_t draw_key, double p);

}  // namespace gclus
