// Format pins: every binary format the library writes — CSR v2 plain,
// unit-weighted and compressed, and the `.orc` oracle artifact — must
// stay byte-identical for fixed inputs.  Each case writes one file and
// compares a 64-bit FNV-1a of the whole file against a recorded constant,
// so a refactor of the serializers cannot change a single byte without
// failing here.  A deliberate format
// change updates the constants together with the format version.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/weighted.hpp"
#include "graph/wire.hpp"
#include "server/artifact.hpp"

namespace gclus {
namespace {

/// RAII temp file.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  return io::wire::fnv1a(io::wire::kFnvOffsetBasis, bytes.data(),
                         bytes.size());
}

struct PinnedGraph {
  const char* name;
  Graph graph;
  std::uint64_t plain;
  std::uint64_t weighted;
  std::uint64_t compressed;
  std::uint64_t artifact;  ///< 0: no artifact (the graph is not connected)
};

std::vector<PinnedGraph> pinned_graphs() {
  std::vector<PinnedGraph> out;
  out.push_back({"grid-8x8", gen::grid(8, 8), 12646741287927745446ULL,
                 4720911459082171467ULL, 1623250335712656223ULL,
                 17567016158715569178ULL});
  out.push_back({"edgeless-5", build_graph(5, {}), 4748622265218701986ULL,
                 4256504288786257923ULL, 8274392193176478037ULL, 0});
  out.push_back({"pa-500", gen::preferential_attachment(500, 3, 17),
                 382762410140542962ULL, 3128973857951284955ULL,
                 1363379681228867343ULL, 539862710295696335ULL});
  return out;
}

TEST(FormatPin, CsrAndArtifactBytesAreUnchanged) {
  TempFile f("gclus_format_pin.bin");
  for (const PinnedGraph& p : pinned_graphs()) {
    SCOPED_TRACE(p.name);
    ASSERT_TRUE(io::write_csr(p.graph, f.path).ok());
    EXPECT_EQ(file_hash(f.path), p.plain);

    ASSERT_TRUE(
        io::write_csr(WeightedGraph::from_unit_weights(p.graph), f.path).ok());
    EXPECT_EQ(file_hash(f.path), p.weighted);

    ASSERT_TRUE(io::write_csr(compress(p.graph), f.path).ok());
    EXPECT_EQ(file_hash(f.path), p.compressed);

    if (p.artifact == 0) continue;
    DistanceOracleOptions opts;
    opts.seed = 11;
    opts.tau = 4;
    const auto built = server::build_oracle_artifact(p.graph, opts);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    ASSERT_TRUE(server::write_oracle_artifact(built.value(), f.path).ok());
    EXPECT_EQ(file_hash(f.path), p.artifact);
  }
}

}  // namespace
}  // namespace gclus
