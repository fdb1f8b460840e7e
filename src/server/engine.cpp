#include "server/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

namespace gclus::server {

namespace {

/// A quotient APSP entry of kInfWeight means two clusters cannot reach
/// each other — the input graph was disconnected, which the oracle's
/// query formula cannot serve.
bool apsp_fully_connected(const OracleArtifact& a) {
  return std::find(a.apsp.begin(), a.apsp.end(), kInfWeight) == a.apsp.end();
}

}  // namespace

StatusOr<QueryEngine> QueryEngine::build(Graph g,
                                         const DistanceOracleOptions& opts) {
  if (g.num_nodes() == 0) {
    return InvalidArgumentError("cannot build a query engine over an empty "
                                "graph");
  }
  GCLUS_ASSIGN_OR_RETURN(OracleArtifact a, build_oracle_artifact(g, opts));
  if (!apsp_fully_connected(a)) {
    return InvalidArgumentError(
        "cannot build a query engine over a disconnected graph (the oracle "
        "needs every cluster pair reachable)");
  }
  return QueryEngine(std::move(g), std::move(a), /*loaded=*/false);
}

StatusOr<QueryEngine> QueryEngine::from_artifact(Graph g, OracleArtifact a) {
  GCLUS_RETURN_IF_ERROR(validate_artifact_for_graph(a, g));
  if (!apsp_fully_connected(a)) {
    return InvalidArgumentError(
        "artifact APSP has unreachable cluster pairs (built over a "
        "disconnected graph)");
  }
  return QueryEngine(std::move(g), std::move(a), /*loaded=*/true);
}

StatusOr<QueryEngine> QueryEngine::load(Graph g, const std::string& path,
                                        const ArtifactLoadOptions& opts) {
  OracleArtifact a;
  GCLUS_ASSIGN_OR_RETURN(a, load_oracle_artifact(path, opts));
  return from_artifact(std::move(g), std::move(a));
}

StatusOr<QueryEngine> QueryEngine::load_or_build(
    Graph g, const std::string& path, const DistanceOracleOptions& opts,
    LoadReport* report) {
  LoadReport local;
  LoadReport& rep = report != nullptr ? *report : local;
  rep = LoadReport{};

  auto loaded = load(Graph(g), path);
  if (loaded.ok()) {
    rep.loaded_from_artifact = true;
    return loaded;
  }
  const StatusCode code = loaded.status().code();
  if (code == StatusCode::kDataLoss || code == StatusCode::kInvalidArgument) {
    // A corrupt (or wrong-graph) sidecar would otherwise poison every
    // later restart; evict it so the republish below heals the path.
    std::fprintf(stderr, "gclus: evicting corrupt oracle artifact %s (%s)\n",
                 path.c_str(), loaded.status().to_string().c_str());
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort; rebuild either way
    rep.evicted_corrupt = true;
  }

  auto built = build(std::move(g), opts);
  if (!built.ok()) return built;
  rep.rebuilt = true;
  // Best-effort republish: an unwritable volume degrades to serving the
  // in-memory build, never fails the caller.
  rep.republished = built->save(path).ok();
  return built;
}

Status QueryEngine::save(const std::string& path) const {
  return write_oracle_artifact(artifact_, path);
}

Status QueryEngine::check_node(NodeId u) const {
  if (u >= graph_.num_nodes()) {
    return InvalidArgumentError("node id " + std::to_string(u) +
                                " out of range (graph has " +
                                std::to_string(graph_.num_nodes()) +
                                " nodes)");
  }
  return OkStatus();
}

StatusOr<std::uint64_t> QueryEngine::approx_distance(NodeId u,
                                                     NodeId v) const {
  GCLUS_RETURN_IF_ERROR(check_node(u));
  GCLUS_RETURN_IF_ERROR(check_node(v));
  if (u == v) return std::uint64_t{0};
  const ClusterId cu = artifact_.cluster_of[u];
  const ClusterId cv = artifact_.cluster_of[v];
  const std::uint64_t label_cost =
      static_cast<std::uint64_t>(artifact_.dist_to_center[u]) +
      artifact_.dist_to_center[v];
  if (cu == cv) return label_cost;  // u -> center -> v inside the cluster
  const std::size_t k = artifact_.meta.num_clusters;
  return label_cost + artifact_.apsp[static_cast<std::size_t>(cu) * k + cv];
}

StatusOr<bool> QueryEngine::same_cluster(NodeId u, NodeId v) const {
  GCLUS_RETURN_IF_ERROR(check_node(u));
  GCLUS_RETURN_IF_ERROR(check_node(v));
  return artifact_.cluster_of[u] == artifact_.cluster_of[v];
}

Status QueryEngine::cluster_neighborhood(NodeId u, std::uint32_t hops,
                                         QueryScratch& scratch,
                                         std::vector<ClusterId>& out) const {
  GCLUS_RETURN_IF_ERROR(check_node(u));
  const auto k = static_cast<std::size_t>(artifact_.meta.num_clusters);
  if (scratch.mark.size() < k) scratch.mark.assign(k, 0);
  if (++scratch.epoch == 0) {  // epoch wrapped: all marks are stale
    std::fill(scratch.mark.begin(), scratch.mark.end(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;

  out.clear();
  scratch.frontier.clear();
  const ClusterId start = artifact_.cluster_of[u];
  scratch.mark[start] = epoch;
  scratch.frontier.push_back(start);
  out.push_back(start);
  for (std::uint32_t level = 0; level < hops && !scratch.frontier.empty();
       ++level) {
    scratch.next.clear();
    for (const ClusterId c : scratch.frontier) {
      const EdgeId begin = artifact_.quotient_offsets[c];
      const EdgeId end = artifact_.quotient_offsets[c + 1];
      for (EdgeId e = begin; e < end; ++e) {
        const ClusterId d = artifact_.quotient_neighbors[e];
        if (scratch.mark[d] != epoch) {
          scratch.mark[d] = epoch;
          scratch.next.push_back(d);
          out.push_back(d);
        }
      }
    }
    std::swap(scratch.frontier, scratch.next);
  }
  std::sort(out.begin(), out.end());
  return OkStatus();
}

StatusOr<std::vector<ClusterId>> QueryEngine::cluster_neighborhood(
    NodeId u, std::uint32_t hops) const {
  QueryScratch scratch;
  std::vector<ClusterId> out;
  GCLUS_RETURN_IF_ERROR(cluster_neighborhood(u, hops, scratch, out));
  return out;
}

}  // namespace gclus::server
