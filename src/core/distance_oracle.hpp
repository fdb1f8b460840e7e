// Linear-space distance oracle (§4, final remark).
//
// Build: run the decomposition at granularity τ = O(√n / log⁴ n), build
// the *weighted* quotient graph, and store its dense all-pairs
// shortest-path matrix plus the per-node (cluster, dist-to-center) labels.
// Query: d′(u,v) = dist(u, ctr(u)) + apsp[ctr(u)][ctr(v)] + dist(v, ctr(v))
// is an upper bound on dist(u,v), because every weighted quotient path
// corresponds to a concrete path in G through the cluster centers.  The
// paper shows d′(u,v) = O(d(u,v)·log³ n + R_ALG2) with high probability —
// polylogarithmic distortion for far-apart node pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/run_context.hpp"
#include "common/status.hpp"
#include "core/cluster.hpp"
#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace gclus {

/// Execution environment plus the oracle's structural knobs.  The build's
/// decomposition runs on the derived sub-stream
/// derive_seed(seed, kSeedTagOracleBuild), so an oracle built with seed s
/// never replays the exact clustering of a user's own CLUSTER2(s) run.
/// Compatibility note: this is a deliberate break from the pre-RunContext
/// library, which passed the seed through verbatim — oracles rebuilt from
/// stored seeds will choose a different (equally valid) clustering.  All
/// quality guarantees are distribution-level, and the serialized artifact
/// (server/artifact.hpp) stores the resolved knobs, not the stream, so
/// nothing persisted depends on the old behavior.
struct DistanceOracleOptions : RunContext {
  /// 0 means "choose τ automatically" as max(1, √n / log²n) — large enough
  /// to keep the quotient near √n nodes so the APSP matrix stays linear
  /// in the input size.
  std::uint32_t tau = 0;

  /// Use CLUSTER2 (the analyzed variant) instead of plain CLUSTER.
  bool use_cluster2 = true;
};

/// τ actually used for an n-node build when `tau` may be the 0 sentinel.
[[nodiscard]] std::uint32_t resolve_oracle_tau(NodeId n, std::uint32_t tau);

struct OracleBuild;

class DistanceOracle {
 public:
  /// Builds the oracle over the *connected* graph `g`.  Aborts where
  /// build_full returns an error.
  static DistanceOracle build(const Graph& g,
                              const DistanceOracleOptions& options = {});

  /// Like build, but also hands back the clustering and weighted quotient
  /// the oracle was derived from.  kResourceExhausted, before the matrix
  /// is allocated, when the quotient exceeds kDenseApspMaxNodes.  The
  /// quotient APSP sweep runs on the options' pool, the one the clustering
  /// used.  Telemetry (when options.telemetry is set): "oracle.tau",
  /// "oracle.quotient_nodes", "oracle.quotient_half_edges",
  /// "oracle.apsp_small_path" (1 when the linear-scan small-quotient APSP
  /// path was taken).
  [[nodiscard]] static StatusOr<OracleBuild> build_full(
      const Graph& g, const DistanceOracleOptions& options = {});

  /// Upper bound on dist(u, v).  Exact 0 when u == v.
  [[nodiscard]] std::uint64_t upper_bound(NodeId u, NodeId v) const;

  /// Clusters in the underlying decomposition.
  [[nodiscard]] ClusterId num_clusters() const {
    return static_cast<ClusterId>(num_clusters_);
  }

  /// Maximum cluster radius (the additive term of the guarantee).
  [[nodiscard]] Dist max_radius() const { return max_radius_; }

  /// Bytes of storage: labels + APSP matrix.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// The stored label arrays and the dense k×k row-major APSP matrix —
  /// the exact payload the artifact sidecar serializes.
  [[nodiscard]] std::span<const ClusterId> cluster_of() const {
    return cluster_of_;
  }
  [[nodiscard]] std::span<const Dist> dist_to_center() const {
    return dist_to_center_;
  }
  [[nodiscard]] std::span<const Weight> apsp() const { return apsp_; }

 private:
  friend struct OracleBuild;
  DistanceOracle() = default;

  std::vector<ClusterId> cluster_of_;
  std::vector<Dist> dist_to_center_;
  std::vector<Weight> apsp_;  // num_clusters_² row-major
  std::size_t num_clusters_ = 0;
  Dist max_radius_ = 0;
};

/// Everything the oracle build produces, for callers that persist or
/// inspect the intermediate structures (the artifact serializer stores
/// the clustering labels and the quotient next to the APSP matrix).
struct OracleBuild {
  Clustering clustering;
  WeightedGraph quotient;
  DistanceOracle oracle;
  std::uint32_t resolved_tau = 0;
};

}  // namespace gclus
