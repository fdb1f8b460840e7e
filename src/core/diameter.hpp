// Decomposition-based diameter approximation (§4, Corollary 1).
//
// Pipeline: cluster the graph (CLUSTER2 by default; the paper's own
// experiments use plain CLUSTER for efficiency — both are offered), build
// the quotient graph, and read the diameter off it:
//   * Δ_C  — diameter of the unweighted quotient: a LOWER bound on Δ;
//   * Δ′   — 2·R·(Δ_C + 1) + Δ_C: the coarse upper bound of Corollary 1;
//   * Δ″   — 2·R + Δ′_C with Δ′_C the weighted-quotient diameter: the
//            tighter upper bound the experiments report (Δ″ ≤ Δ′).
// With high probability Δ ≤ Δ″ and Δ″ = O(Δ·log³ n).
#pragma once

#include <cstdint>

#include "api/run_context.hpp"
#include "core/cluster.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"

namespace gclus {

/// Execution environment plus the pipeline selector.  The full context —
/// including the growth knobs this struct historically lacked — flows into
/// the underlying CLUSTER/CLUSTER2 run.
struct DiameterOptions : RunContext {
  /// true: full CLUSTER2 pipeline (Algorithm 2) as analyzed in §4.
  /// false: the simplified single-CLUSTER pipeline used in §6.2's
  /// experiments ("for efficiency, we used CLUSTER instead of CLUSTER2,
  /// thus avoiding repeating the clustering twice").
  bool use_cluster2 = false;
};

struct DiameterApprox {
  /// Lower bound: diameter of the unweighted quotient graph.
  Dist lower_bound = 0;

  /// Δ″ = 2·R + Δ′_C — the estimate the paper's tables report as Δ′.
  std::uint64_t upper_bound = 0;

  /// Δ′ = 2·R·(Δ_C+1) + Δ_C — the coarser Corollary-1 bound.
  std::uint64_t upper_bound_coarse = 0;

  /// Weighted quotient diameter Δ′_C.
  Weight weighted_quotient_diameter = 0;

  /// Maximum cluster radius of the clustering used (R_ALG or R_ALG2).
  Dist max_radius = 0;

  /// Quotient size — the paper's n_C and m_C columns.
  NodeId quotient_nodes = 0;
  EdgeId quotient_edges = 0;

  /// Total cluster-growing steps (drives the MR round count, Lemma 3).
  std::size_t growth_steps = 0;

  /// Number of clusters in the decomposition.
  ClusterId num_clusters = 0;
};

/// Approximates the diameter of the *connected* graph `g` using a
/// decomposition of granularity `tau`.
[[nodiscard]] DiameterApprox approximate_diameter(
    const Graph& g, std::uint32_t tau, const DiameterOptions& options = {});

/// Same pipeline, but reusing an already-computed clustering (lets benches
/// time the phases separately and tests inject crafted clusterings).  The
/// weighted-quotient sweep for Δ′_C runs on `context`'s pool; the result
/// is identical at any thread count.
[[nodiscard]] DiameterApprox diameter_from_clustering(
    const Graph& g, const Clustering& clustering,
    const RunContext& context = {});

}  // namespace gclus
