// Tests for the container checksum (graph/container.hpp): the value
// matches an independent implementation of the documented rule, does not
// depend on the pool size, the load path or the overload that computes
// it, and through the CSR v2 and `.orc` loaders catches a bit flip on
// either side of a chunk boundary, in the last partial chunk, and two
// swapped chunks.  Files of the previous format version are rejected as
// kInvalidArgument.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/container.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/wire.hpp"
#include "par/thread_pool.hpp"
#include "server/artifact.hpp"

namespace gclus::io {
namespace {

constexpr std::uint64_t kMiB = kChecksumChunkBytes;

/// RAII temp file.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> raw{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

void write_bytes(const std::string& path, const std::vector<std::byte>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// ---- reference implementation of the documented rule ------------------------

std::uint64_t ref_mix(std::uint64_t s, std::uint64_t w) {
  const std::uint64_t x = (s ^ w) * 0x9E3779B97F4A7C15ULL;
  return x ^ (x >> 29);
}

std::uint64_t ref_chunk(const std::byte* p, std::uint64_t n) {
  constexpr std::uint64_t kB = 0xCBF29CE484222325ULL;
  std::uint64_t lane[4] = {kB, kB + 1, kB + 2, kB + 3};
  std::uint64_t at = 0;
  for (; at + 32 <= n; at += 32) {
    for (int i = 0; i < 4; ++i) {
      std::uint64_t w = 0;
      for (int b = 7; b >= 0; --b) {
        w = (w << 8) | static_cast<std::uint8_t>(p[at + 8 * i + b]);
      }
      lane[i] = ref_mix(lane[i], w);
    }
  }
  std::uint64_t h = kB;
  for (const std::uint64_t l : lane) h = ref_mix(h, l);
  for (; at < n; ++at) {
    h ^= static_cast<std::uint8_t>(p[at]);
    h *= 0x100000001B3ULL;
  }
  return ref_mix(h, n);
}

/// The checksum of byte ranges (already little-endian), by the rule.
std::uint64_t ref_checksum(
    const std::vector<std::pair<const std::byte*, std::uint64_t>>& ranges) {
  std::uint64_t c = 0xCBF29CE484222325ULL;
  for (const auto& [p, n] : ranges) {
    for (std::uint64_t at = 0; at < n; at += 1 << 20) {
      c = ref_mix(c, ref_chunk(p + at, std::min<std::uint64_t>(1 << 20,
                                                               n - at)));
    }
  }
  return c;
}

/// Deterministic bytes with no repeated chunk.
std::vector<std::byte> pattern(std::uint64_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x);
  }
  return out;
}

/// A layout to checksum: a header prefix and byte sections.
struct Layout {
  const char* name;
  std::uint64_t prefix;
  std::vector<std::uint64_t> section_bytes;
};

std::vector<Layout> layouts() {
  std::vector<Layout> out;
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
        std::uint64_t{32}, kMiB - 1, kMiB, kMiB + 1}) {
    out.push_back({"one section", 0, {n}});
    out.push_back({"prefix + one section", 128, {n}});
  }
  out.push_back({"three multi-MiB sections", 128,
                 {5 * kMiB / 2 + 8, kMiB + 4, 3 * kMiB + 24}});
  return out;
}

TEST(ContainerChecksum, MatchesTheDocumentedRule) {
  const std::vector<std::byte> header = pattern(128, 99);
  for (const Layout& l : layouts()) {
    SCOPED_TRACE(l.name);
    std::vector<std::vector<std::byte>> data;
    std::vector<Section> sections;
    std::vector<std::pair<const std::byte*, std::uint64_t>> ranges = {
        {header.data(), l.prefix}};
    for (std::size_t i = 0; i < l.section_bytes.size(); ++i) {
      data.push_back(pattern(l.section_bytes[i], i + 1));
    }
    for (const auto& d : data) {
      sections.push_back({d.data(), d.size(), 1});
      ranges.push_back({d.data(), d.size()});
    }
    SCOPED_TRACE(l.section_bytes.front());
    EXPECT_EQ(container_checksum(std::span(header).first(l.prefix), sections),
              ref_checksum(ranges));
  }
}

TEST(ContainerChecksum, SameAtEveryPoolSizeLoadPathAndOverload) {
  TempFile f("gclus_container_checksum.bin");
  const std::vector<std::byte> header_bytes = pattern(144, 7);
  const std::span<const std::byte> header(header_bytes);
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const Layout& l : layouts()) {
    SCOPED_TRACE(l.name);
    SCOPED_TRACE(l.section_bytes.front());
    // The widest element width that divides each section, so the write
    // side also takes the element path a big-endian host swaps through.
    std::vector<std::vector<std::byte>> data;
    std::vector<Section> sections;
    for (std::size_t i = 0; i < l.section_bytes.size(); ++i) {
      const std::uint64_t n = l.section_bytes[i];
      const std::uint32_t w = n % 8 == 0 ? 8 : n % 4 == 0 ? 4 : 1;
      data.push_back(pattern(n, i + 1));
      sections.push_back({data.back().data(), n / w, w});
    }
    const std::uint64_t want =
        container_checksum(header.first(l.prefix), sections, pool1);
    EXPECT_EQ(container_checksum(header.first(l.prefix), sections, pool2),
              want);
    EXPECT_EQ(container_checksum(header.first(l.prefix), sections, pool8),
              want);

    ASSERT_TRUE(write_container(f.path, header, sections, "io.write").ok());
    const auto pos = place_sections(header.size(), sections);
    std::vector<SectionRef> refs;
    for (std::size_t i = 0; i < sections.size(); ++i) {
      refs.push_back({pos[i], sections[i].count, sections[i].width});
    }
    for (const bool prefer_mmap : {true, false}) {
      SCOPED_TRACE(prefer_mmap ? "mmap" : "read");
      const auto file = read_or_map_file(f.path, prefer_mmap);
      ASSERT_TRUE(file.ok()) << file.status().to_string();
      ASSERT_TRUE(check_sections(file.value().bytes.size(), header.size(),
                                 refs, "test")
                      .ok());
      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        EXPECT_EQ(container_checksum(file.value(), l.prefix, refs, *pool),
                  want);
      }
    }
  }
}

// ---- through the loaders -----------------------------------------------------

/// A plain CSR v2 file whose neighbors section spans six chunks and ends
/// in a partial chunk with a 24-byte tail: 600x601 grid, 1,439,998
/// half-edges.
struct BigCsr {
  TempFile file{"gclus_container_big.csr2"};
  std::vector<std::byte> bytes;
  std::uint64_t offsets_pos = 0;
  std::uint64_t neighbors_pos = 0;
  std::uint64_t neighbors_bytes = 0;

  BigCsr() {
    const Graph g = gen::grid(600, 601);
    EXPECT_TRUE(write_csr(g, file.path).ok());
    bytes = read_bytes(file.path);
    offsets_pos = wire::read_le_at<std::uint64_t>(bytes.data() + 32);
    neighbors_pos = wire::read_le_at<std::uint64_t>(bytes.data() + 40);
    neighbors_bytes = 4 * g.num_half_edges();
  }

  /// Loads `patched` with verification.
  StatusCode load(const std::vector<std::byte>& patched) const {
    write_bytes(file.path, patched);
    const auto loaded = load_csr(file.path);
    return loaded.ok() ? StatusCode::kOk : loaded.status().code();
  }
};

TEST(ContainerChecksum, CsrBitFlipsAtChunkEdgesAreDataLoss) {
  const BigCsr csr;
  ASSERT_EQ(csr.neighbors_bytes % kMiB % 32, 24u);
  ASSERT_EQ(csr.load(csr.bytes), StatusCode::kOk);
  const std::uint64_t tail_start =
      csr.neighbors_pos + csr.neighbors_bytes - csr.neighbors_bytes % 32;
  const struct {
    const char* where;
    std::uint64_t at;
  } flips[] = {
      {"offsets: last byte of chunk 0", csr.offsets_pos + kMiB - 1},
      {"offsets: first byte of chunk 1", csr.offsets_pos + kMiB},
      {"neighbors: last byte of chunk 0", csr.neighbors_pos + kMiB - 1},
      {"neighbors: first byte of chunk 1", csr.neighbors_pos + kMiB},
      {"neighbors: first tail byte", tail_start},
      {"neighbors: last tail byte", csr.bytes.size() - 1},
  };
  for (const auto& flip : flips) {
    SCOPED_TRACE(flip.where);
    for (const int bit : {0, 7}) {
      std::vector<std::byte> patched = csr.bytes;
      patched[flip.at] ^= std::byte{1} << bit;
      EXPECT_EQ(csr.load(patched), StatusCode::kDataLoss);
    }
  }
}

TEST(ContainerChecksum, SwappedChunksAreDataLoss) {
  const BigCsr csr;
  const auto chunk = [&](std::uint64_t i) {
    return csr.bytes.begin() +
           static_cast<std::ptrdiff_t>(csr.neighbors_pos + i * kMiB);
  };
  ASSERT_FALSE(std::equal(chunk(0), chunk(1), chunk(1)));
  std::vector<std::byte> patched = csr.bytes;
  std::swap_ranges(patched.begin() + (chunk(0) - csr.bytes.begin()),
                   patched.begin() + (chunk(1) - csr.bytes.begin()),
                   patched.begin() + (chunk(1) - csr.bytes.begin()));
  EXPECT_EQ(csr.load(patched), StatusCode::kDataLoss);
}

TEST(ContainerChecksum, ArtifactBitFlipsAtChunkEdgesAreDataLoss) {
  // 1.2 MB of cluster labels: the first section crosses a chunk edge.
  const Graph g = gen::expander(300000, 4, 3);
  DistanceOracleOptions opts;
  opts.seed = 3;
  opts.tau = 4;
  opts.use_cluster2 = false;
  const auto built = server::build_oracle_artifact(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  TempFile f("gclus_container_big.orc");
  ASSERT_TRUE(server::write_oracle_artifact(built.value(), f.path).ok());
  const std::vector<std::byte> bytes = read_bytes(f.path);
  const auto labels_pos = wire::read_le_at<std::uint64_t>(bytes.data() + 72);
  for (const std::uint64_t at :
       {labels_pos + kMiB - 1, labels_pos + kMiB, bytes.size() - 1}) {
    SCOPED_TRACE(at);
    std::vector<std::byte> patched = bytes;
    patched[at] ^= std::byte{0x10};
    write_bytes(f.path, patched);
    const auto loaded = server::load_oracle_artifact(f.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ContainerChecksum, StructuralErrorsNameTheLowestBadIndex) {
  // Two out-of-range neighbor ids far apart, re-sealed with a matching
  // checksum: the parallel scan must report the first one.
  const BigCsr csr;
  std::vector<std::byte> patched = csr.bytes;
  const auto n = wire::read_le_at<std::uint64_t>(csr.bytes.data() + 16);
  for (const std::uint64_t e : {std::uint64_t{900000}, std::uint64_t{70001}}) {
    wire::store_le_at(patched.data() + csr.neighbors_pos + 4 * e,
                      static_cast<std::uint32_t>(n));
  }
  const SectionRef refs[] = {{csr.offsets_pos, n + 1, 8},
                             {csr.neighbors_pos, csr.neighbors_bytes / 4, 4}};
  wire::store_le_at(patched.data() + 56,
                    container_checksum(FileContents{patched, nullptr, false},
                                       0, refs));
  write_bytes(csr.file.path, patched);
  const auto loaded = load_csr(csr.file.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("at half-edge 70001"),
            std::string::npos)
      << loaded.status().to_string();
}

TEST(ContainerChecksum, PreviousFormatVersionsAreInvalidArgument) {
  TempFile f("gclus_container_old.bin");
  ASSERT_TRUE(write_csr(gen::grid(8, 8), f.path).ok());
  std::vector<std::byte> bytes = read_bytes(f.path);
  wire::store_le_at(bytes.data() + 8, std::uint32_t{2});
  write_bytes(f.path, bytes);
  const auto csr = load_csr(f.path);
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(probe_csr_file(f.path).has_value());

  DistanceOracleOptions opts;
  opts.seed = 11;
  opts.tau = 4;
  const auto built = server::build_oracle_artifact(gen::grid(8, 8), opts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  ASSERT_TRUE(server::write_oracle_artifact(built.value(), f.path).ok());
  bytes = read_bytes(f.path);
  wire::store_le_at(bytes.data() + 8, std::uint32_t{1});
  write_bytes(f.path, bytes);
  const auto orc = server::load_oracle_artifact(f.path);
  ASSERT_FALSE(orc.ok());
  EXPECT_EQ(orc.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gclus::io
