#include "server/artifact.hpp"

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/faultpoint.hpp"
#include "graph/container.hpp"
#include "graph/wire.hpp"
#include "par/parallel_for.hpp"

namespace gclus::server {

namespace {

using namespace io::wire;

// Bytes "GCLUSORC" when stored little-endian.
constexpr std::uint64_t kOrcMagic = 0x43524F53554C4347ULL;
constexpr std::uint32_t kOrcVersion = 2;
constexpr std::uint64_t kOrcHeaderBytes = 144;
/// Header bytes under the checksum: everything before the checksum field,
/// so a bit flip anywhere in the metadata is detected, not only in fields
/// the parser can cross-check.
constexpr std::uint64_t kOrcChecksumCoverBytes = 128;
/// Header offset of the first of the seven section positions.
constexpr std::uint64_t kOrcPositionsAt = 72;
constexpr std::size_t kOrcSections = 7;

/// The payload vectors an owned (built or copy-loaded) artifact views.
struct OwnedPayload {
  std::vector<ClusterId> cluster_of;
  std::vector<Dist> dist_to_center;
  std::vector<NodeId> centers;
  std::vector<EdgeId> quotient_offsets;
  std::vector<ClusterId> quotient_neighbors;
  std::vector<Weight> quotient_weights;
  std::vector<Weight> apsp;
};

OracleArtifact artifact_from_owned(OracleArtifactMeta meta,
                                   std::shared_ptr<OwnedPayload> owned) {
  OracleArtifact a;
  a.meta = meta;
  a.cluster_of = owned->cluster_of;
  a.dist_to_center = owned->dist_to_center;
  a.centers = owned->centers;
  a.quotient_offsets = owned->quotient_offsets;
  a.quotient_neighbors = owned->quotient_neighbors;
  a.quotient_weights = owned->quotient_weights;
  a.apsp = owned->apsp;
  a.mapped = false;
  a.storage = std::move(owned);
  return a;
}

/// Serializes `a` to `path` in one pass (no atomicity — the caller
/// publishes the temp file this writes).
Status write_artifact_bytes(const OracleArtifact& a, const std::string& path) {
  const OracleArtifactMeta& m = a.meta;
  const io::Section sections[kOrcSections] = {
      io::Section::of(a.cluster_of),       io::Section::of(a.dist_to_center),
      io::Section::of(a.centers),          io::Section::of(a.quotient_offsets),
      io::Section::of(a.quotient_neighbors),
      io::Section::of(a.quotient_weights), io::Section::of(a.apsp)};
  const auto pos = io::place_sections(kOrcHeaderBytes, sections);

  // The checksum covers the header's first 128 bytes, so they are
  // assembled before it is computed.
  std::array<std::byte, kOrcHeaderBytes> header{};
  store_le_at(header.data() + 0, kOrcMagic);
  store_le_at(header.data() + 8, kOrcVersion);
  store_le_at(header.data() + 16, m.graph_num_nodes);
  store_le_at(header.data() + 24, m.graph_num_half_edges);
  store_le_at(header.data() + 32, m.num_clusters);
  store_le_at(header.data() + 40, m.quotient_num_half_edges);
  store_le_at(header.data() + 48, m.build_seed);
  store_le_at(header.data() + 56, m.tau);
  store_le_at(header.data() + 60, std::uint32_t{m.use_cluster2 ? 1u : 0u});
  store_le_at(header.data() + 64, m.max_radius);
  for (std::size_t i = 0; i < kOrcSections; ++i) {
    store_le_at(header.data() + kOrcPositionsAt + 8 * i, pos[i]);
  }
  store_le_at(header.data() + kOrcChecksumCoverBytes,
              io::container_checksum(
                  std::span(header).first(kOrcChecksumCoverBytes), sections));
  return io::write_container(path, header, sections, "artifact.write");
}

/// Parses and bounds-checks the header against the file size.
/// kInvalidArgument: the bytes don't claim to be a supported artifact;
/// kDataLoss: they do, but the structure is inconsistent.  `refs` gets
/// the seven payload sections in file order.
Status parse_header(std::span<const std::byte> file, OracleArtifactMeta& m,
                    std::array<io::SectionRef, kOrcSections>& refs) {
  const std::byte* data = file.data();
  if (file.size() < 8 || read_le_at<std::uint64_t>(data) != kOrcMagic) {
    return InvalidArgumentError("not a gclus oracle artifact (bad magic)");
  }
  if (file.size() < kOrcHeaderBytes) {
    return DataLossError("file shorter than an artifact header");
  }
  if (read_le_at<std::uint32_t>(data + 8) != kOrcVersion) {
    return InvalidArgumentError("unsupported artifact version");
  }
  if (read_le_at<std::uint32_t>(data + 12) != 0) {
    return InvalidArgumentError("unknown artifact flags");
  }
  m.graph_num_nodes = read_le_at<std::uint64_t>(data + 16);
  m.graph_num_half_edges = read_le_at<std::uint64_t>(data + 24);
  m.num_clusters = read_le_at<std::uint64_t>(data + 32);
  m.quotient_num_half_edges = read_le_at<std::uint64_t>(data + 40);
  m.build_seed = read_le_at<std::uint64_t>(data + 48);
  m.tau = read_le_at<std::uint32_t>(data + 56);
  const std::uint32_t use_cluster2 = read_le_at<std::uint32_t>(data + 60);
  m.max_radius = read_le_at<std::uint32_t>(data + 64);
  // The padding and reserved fields are not covered by the payload
  // checksum, so a flipped bit there would otherwise load silently.
  if (read_le_at<std::uint32_t>(data + 68) != 0) {
    return InvalidArgumentError("nonzero artifact header padding");
  }
  if (read_le_at<std::uint64_t>(data + 136) != 0) {
    return InvalidArgumentError("nonzero reserved artifact header field");
  }

  if (use_cluster2 > 1) {
    return DataLossError("corrupt artifact header (use_cluster2 flag)");
  }
  m.use_cluster2 = use_cluster2 == 1;
  if (m.graph_num_nodes == 0 ||
      m.graph_num_nodes > std::numeric_limits<NodeId>::max()) {
    return DataLossError("artifact node count out of NodeId range");
  }
  if (m.num_clusters == 0 || m.num_clusters > m.graph_num_nodes) {
    return DataLossError("artifact cluster count out of range");
  }
  if (m.tau == 0) {
    return DataLossError("corrupt artifact header (zero tau)");
  }

  const std::uint64_t n = m.graph_num_nodes;
  const std::uint64_t k = m.num_clusters;
  const std::uint64_t qm = m.quotient_num_half_edges;
  const std::uint64_t counts[kOrcSections] = {n, n, k, k + 1, qm, qm, k * k};
  const std::uint32_t widths[kOrcSections] = {4, 4, 4, 8, 4, 8, 8};
  for (std::size_t i = 0; i < kOrcSections; ++i) {
    refs[i] = {read_le_at<std::uint64_t>(data + kOrcPositionsAt + 8 * i),
               counts[i], widths[i]};
  }
  return io::check_sections(file.size(), kOrcHeaderBytes, refs, "artifact");
}

/// Structural validation of the decoded sections: every index a query
/// will ever compute stays in range.  Guards the serving path against
/// corrupted-but-checksum-consistent (e.g. maliciously crafted) files.
/// The scans run on the global pool; each failure names the lowest
/// failing index, and the checks run in a fixed order, so the message
/// does not depend on the thread count.
Status validate_artifact_arrays(const OracleArtifact& a) {
  const std::uint64_t k = a.meta.num_clusters;
  const std::uint64_t n = a.meta.graph_num_nodes;
  ThreadPool& pool = ThreadPool::global();
  // kDataLoss naming `what` and the lowest i in [begin, end) with bad(i).
  const auto scan = [&](const char* what, std::size_t begin, std::size_t end,
                        const auto& bad) {
    const std::size_t at = parallel_find_first(pool, begin, end, bad);
    return at == end ? OkStatus()
                     : DataLossError("corrupt artifact (" + std::string(what) +
                                     " at " + std::to_string(at) + ")");
  };
  const auto& label = a.cluster_of;
  GCLUS_RETURN_IF_ERROR(
      scan("cluster label out of range", 0, label.size(),
           [&](std::size_t v) { return label[v] >= k; }));
  GCLUS_RETURN_IF_ERROR(
      scan("center labels inconsistent", 0, a.centers.size(),
           [&](std::size_t c) {
             const NodeId ctr = a.centers[c];
             return ctr >= n || label[ctr] != c || a.dist_to_center[ctr] != 0;
           }));
  const auto& off = a.quotient_offsets;
  if (off.empty() || off.front() != 0 ||
      off.back() != a.quotient_neighbors.size()) {
    return DataLossError("corrupt artifact (quotient offset endpoints)");
  }
  GCLUS_RETURN_IF_ERROR(
      scan("quotient offsets not monotone", 1, off.size(),
           [&](std::size_t c) { return off[c] < off[c - 1]; }));
  const auto& qadj = a.quotient_neighbors;
  GCLUS_RETURN_IF_ERROR(
      scan("quotient neighbor out of range", 0, qadj.size(),
           [&](std::size_t e) { return qadj[e] >= k; }));
  GCLUS_RETURN_IF_ERROR(scan("APSP diagonal nonzero", 0, k, [&](std::size_t c) {
    return a.apsp[c * k + c] != 0;
  }));
  return OkStatus();
}

}  // namespace

StatusOr<OracleArtifact> build_oracle_artifact(
    const Graph& g, const DistanceOracleOptions& opts) {
  GCLUS_ASSIGN_OR_RETURN(OracleBuild build,
                         DistanceOracle::build_full(g, opts));

  OracleArtifactMeta meta;
  meta.graph_num_nodes = g.num_nodes();
  meta.graph_num_half_edges = g.num_half_edges();
  meta.num_clusters = build.clustering.num_clusters();
  meta.quotient_num_half_edges = build.quotient.num_half_edges();
  meta.build_seed = opts.seed;
  meta.tau = build.resolved_tau;
  meta.use_cluster2 = opts.use_cluster2;
  meta.max_radius = build.clustering.max_radius();

  auto owned = std::make_shared<OwnedPayload>();
  owned->cluster_of = std::move(build.clustering.assignment);
  owned->dist_to_center = std::move(build.clustering.dist_to_center);
  owned->centers = std::move(build.clustering.centers);
  const auto qoff = build.quotient.offsets();
  owned->quotient_offsets.assign(qoff.begin(), qoff.end());
  const auto qadj = build.quotient.adjacency();
  owned->quotient_neighbors.resize(qadj.size());
  owned->quotient_weights.resize(qadj.size());
  for (std::size_t i = 0; i < qadj.size(); ++i) {
    owned->quotient_neighbors[i] = qadj[i].to;
    owned->quotient_weights[i] = qadj[i].w;
  }
  const auto apsp = build.oracle.apsp();
  owned->apsp.assign(apsp.begin(), apsp.end());
  return artifact_from_owned(meta, std::move(owned));
}

Status write_oracle_artifact(const OracleArtifact& a,
                             const std::string& path) {
  return io::publish_file(
      path,
      [&](const std::string& tmp) { return write_artifact_bytes(a, tmp); },
      "artifact.publish");
}

StatusOr<OracleArtifact> load_oracle_artifact(const std::string& path,
                                              const ArtifactLoadOptions& opts) {
  // An injected load failure behaves like an undetected-until-now corrupt
  // sidecar: the caller's evict-and-rebuild path takes over.
  if (GCLUS_FAULTPOINT("artifact.load")) {
    return DataLossError(path + ": injected corrupt artifact");
  }
  // Only a little-endian host uses a mapping in place; others decode.
  GCLUS_ASSIGN_OR_RETURN(
      const io::FileContents fc,
      io::read_or_map_file(path, opts.prefer_mmap && kLittleEndian));

  OracleArtifact a;
  std::array<io::SectionRef, kOrcSections> refs;
  GCLUS_RETURN_IF_ERROR(
      parse_header(fc.bytes, a.meta, refs).with_context(path));
  if (opts.verify &&
      io::container_checksum(fc, kOrcChecksumCoverBytes, refs) !=
          read_le_at<std::uint64_t>(fc.bytes.data() + kOrcChecksumCoverBytes)) {
    return DataLossError(path + ": artifact checksum mismatch");
  }

  auto owned = std::make_shared<OwnedPayload>();
  const auto view = [&](std::size_t i, auto& vec) {
    return io::view(fc, refs[i].pos, refs[i].count, vec);
  };
  a.cluster_of = view(0, owned->cluster_of);
  a.dist_to_center = view(1, owned->dist_to_center);
  a.centers = view(2, owned->centers);
  a.quotient_offsets = view(3, owned->quotient_offsets);
  a.quotient_neighbors = view(4, owned->quotient_neighbors);
  a.quotient_weights = view(5, owned->quotient_weights);
  a.apsp = view(6, owned->apsp);
  a.mapped = fc.mapped;
  a.storage = fc.mapped ? fc.keepalive : std::shared_ptr<const void>(owned);

  if (opts.verify) {
    GCLUS_RETURN_IF_ERROR(validate_artifact_arrays(a).with_context(path));
  }
  return a;
}

Status validate_artifact_for_graph(const OracleArtifact& a, const Graph& g) {
  if (a.meta.graph_num_nodes != g.num_nodes() ||
      a.meta.graph_num_half_edges != g.num_half_edges()) {
    return InvalidArgumentError(
        "artifact was built over a different graph (" +
        std::to_string(a.meta.graph_num_nodes) + " nodes / " +
        std::to_string(a.meta.graph_num_half_edges) + " half-edges vs " +
        std::to_string(g.num_nodes()) + " / " +
        std::to_string(g.num_half_edges()) + ")");
  }
  return OkStatus();
}

}  // namespace gclus::server
