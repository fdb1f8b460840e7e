// The fault-injection capstone: every registered fault point is forced —
// one-shot and persistently — against the four I/O-facing subsystems
// (CSR v2 round-trip, the MR out-of-core shuffle, the dataset cache, the
// oracle artifact sidecar), asserting the process never aborts: each run either returns a clean
// error Status or completes in degraded mode with output byte-identical
// to the fault-free reference.  A header/payload bit-flip sweep covers
// silent on-disk corruption the same way, and an end-to-end mr.cluster
// run pins the degraded-shuffle partition to the fault-free one.
//
// CI greps this binary's "fault points triggered:" line, and the sweep
// asserts every point fired, so neither the sweep nor a single point can
// silently become a no-op.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_context.hpp"
#include "common/faultpoint.hpp"
#include "common/status.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mapreduce/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "test_util.hpp"
#include "workloads/datasets.hpp"

namespace gclus {
namespace {

namespace fs = std::filesystem;

// Installed before main(): the persistent-fault sweeps exhaust retry
// loops hundreds of times and must not sleep through the backoffs.
const bool kFastRetries = [] {
  ::setenv("GCLUS_IO_BACKOFF_US", "0", 1);
  return true;
}();

const std::string& sweep_dir() {
  static const std::string dir = [] {
    const std::string d = ::testing::TempDir() + "gclus_fault_sweep";
    std::error_code ec;
    fs::remove_all(d, ec);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t le64_at(const std::vector<char>& bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
  }
  return v;
}

// --- Scenario 1: CSR v2 write + load round-trip. -----------------------------
// Contract under injection: the write fails cleanly, the load fails
// cleanly, or the loaded graph is byte-identical to what was written.
void run_csr_scenario(const Graph& ref, const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // a stale file must not mask a failed write
  const Status wst = io::write_csr(ref, path);
  if (!wst.ok()) {
    EXPECT_FALSE(wst.message().empty());
    return;
  }
  for (const io::CsrLoadMode mode :
       {io::CsrLoadMode::kAuto, io::CsrLoadMode::kCopy}) {
    io::CsrLoadOptions opts;
    opts.mode = mode;
    const auto loaded = io::load_csr(path, opts);
    if (loaded.ok()) {
      EXPECT_TRUE(testutil::same_csr(*loaded, ref));
    } else {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

// --- Scenario 2: one spilling MR round. --------------------------------------
using KV = std::pair<std::uint32_t, std::uint64_t>;

std::vector<KV> mr_input() {
  std::vector<KV> input;
  input.reserve(3000);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    input.emplace_back(static_cast<std::uint32_t>(mix64(i) % 13), i);
  }
  return input;
}

StatusOr<std::vector<KV>> run_mr(const std::string& primary,
                                 const std::string& fallback) {
  mr::Config cfg;
  cfg.num_workers = 2;
  cfg.num_partitions = 8;
  cfg.spill_memory_bytes = 1 << 10;  // tiny: every run spills
  cfg.spill_dir = primary;
  cfg.spill_fallback_dir = fallback;
  mr::Engine engine(cfg);
  return engine.try_round_combine<std::uint32_t, std::uint64_t, std::uint32_t,
                                  std::uint64_t>(
      mr_input(),
      [](const std::uint32_t& k, std::span<std::uint64_t> vs,
         mr::Emitter<std::uint32_t, std::uint64_t>& emit) {
        std::uint64_t sum = 0;
        for (const auto v : vs) sum += v;
        emit.emit(k, sum);
      },
      [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; });
}

// --- Scenario 3: the dataset cache. ------------------------------------------
// The cache degrades through every failure (corrupt entry, failed write,
// failed publish): it must always hand back the built graph.
void run_cache_scenario(const std::string& cache_dir, const std::string& key) {
  ::setenv("GCLUS_DATASET_CACHE_DIR", cache_dir.c_str(), 1);
  const Graph ref = gen::grid(12, 12);
  const auto build = [] { return gen::grid(12, 12); };
  EXPECT_TRUE(testutil::same_csr(workloads::cached_graph(key, build), ref));
  // Second call: the hit path (or eviction + rebuild under injection).
  EXPECT_TRUE(testutil::same_csr(workloads::cached_graph(key, build), ref));
  ::unsetenv("GCLUS_DATASET_CACHE_DIR");
}

// --- Scenario 4: the oracle artifact sidecar. --------------------------------
// load_or_build must always hand back a working engine whose answers are
// byte-identical to the fault-free build: a failed or corrupt load is
// evicted and rebuilt, and a failed republish only costs the *next*
// restart its fast path — never the caller its engine.
DistanceOracleOptions artifact_opts() {
  DistanceOracleOptions opts;
  opts.seed = 11;
  opts.tau = 4;
  return opts;
}

std::vector<std::uint64_t> artifact_answers(const server::QueryEngine& e) {
  std::vector<std::uint64_t> out;
  for (NodeId u = 0; u < e.num_nodes(); u += 7) {
    for (NodeId v = 0; v < e.num_nodes(); v += 5) {
      const auto d = e.approx_distance(u, v);
      EXPECT_TRUE(d.ok());
      out.push_back(d.ok() ? *d : ~std::uint64_t{0});
    }
  }
  return out;
}

// --- Scenario 5: the network front end. --------------------------------------
// One full wire round trip (connect, send a query-batch frame, read the
// result frame) under injection.  net.accept drops the freshly accepted
// socket, net.read/net.write fail the frame I/O as transient
// kUnavailable; the client's bounded retry either recovers (one-shot
// faults) with answers byte-identical to the in-process reference, or
// gives up with a clean escalated Status (persistent faults) — the server
// process survives every variant.
std::vector<server::Query> net_queries(NodeId n) {
  std::vector<server::Query> qs;
  for (NodeId u = 0; u < n; ++u) {
    qs.push_back({server::QueryKind::kApproxDistance, u, (u * 7 + 3) % n});
    qs.push_back({server::QueryKind::kSameCluster, u, (u * 5 + 1) % n});
    qs.push_back({server::QueryKind::kClusterNeighborhood, u, 1 + u % 3});
  }
  return qs;
}

void run_net_scenario(net::NetServer& nserver,
                      const std::vector<server::Query>& qs,
                      const std::vector<server::QueryResult>& ref) {
  auto client = net::Client::connect(nserver.port());
  if (!client.ok()) {
    EXPECT_FALSE(client.status().message().empty());
    return;
  }
  const auto got = client->submit(qs);
  if (got.ok()) {
    EXPECT_EQ(*got, ref);
  } else {
    EXPECT_FALSE(got.status().message().empty());
  }
}

void run_artifact_scenario(const Graph& g,
                           const std::vector<std::uint64_t>& ref,
                           const std::string& path) {
  // Two rounds: the first typically rebuilds (no sidecar yet), the second
  // exercises the load path against whatever the first one published.
  for (int round = 0; round < 2; ++round) {
    const auto engine =
        server::QueryEngine::load_or_build(Graph(g), path, artifact_opts());
    ASSERT_TRUE(engine.ok()) << engine.status().to_string();
    EXPECT_EQ(artifact_answers(*engine), ref);
  }
}

TEST(FaultSweep, EveryPointFailsCleanlyOrDegrades) {
  ASSERT_TRUE(kFastRetries);
  fault::disarm_all();
  fault::reset_counters();
  const std::string& base = sweep_dir();
  const Graph csr_ref = gen::ring_of_cliques(6, 5);

  const auto mr_ref = run_mr(base + "/mr-ref-p", base + "/mr-ref-f");
  ASSERT_TRUE(mr_ref.ok()) << mr_ref.status().to_string();

  const auto art_ref_engine =
      server::QueryEngine::build(Graph(csr_ref), artifact_opts());
  ASSERT_TRUE(art_ref_engine.ok()) << art_ref_engine.status().to_string();
  const std::vector<std::uint64_t> art_ref = artifact_answers(*art_ref_engine);

  // One live NetServer shared across the sweep: the same process must keep
  // serving after every injected network failure.
  auto net_engine = std::make_shared<const server::QueryEngine>(
      server::QueryEngine::build(Graph(csr_ref), artifact_opts()).value());
  server::QueryServer net_qserver(net_engine);
  auto nserver = net::NetServer::start(net_qserver);
  ASSERT_TRUE(nserver.ok()) << nserver.status().to_string();
  const std::vector<server::Query> net_qs = net_queries(csr_ref.num_nodes());
  const auto net_ref_ticket = net_qserver.submit(net_qs).value();
  const std::vector<server::QueryResult> net_ref = net_ref_ticket.wait();

  const std::pair<const char*, fault::FaultSpec> modes[] = {
      {"once", fault::FaultSpec::once()},
      {"always", fault::FaultSpec::always()},
  };
  for (const char* name : fault::all_fault_points()) {
    for (const auto& [tag, spec] : modes) {
      SCOPED_TRACE(std::string(name) + ":" + tag);
      const std::string stem = base + "/" + name + "-" + tag;
      fault::arm(name, spec);
      run_csr_scenario(csr_ref, stem + ".csr2");
      const auto mr_out = run_mr(stem + "-p", stem + "-f");
      if (mr_out.ok()) {
        EXPECT_EQ(*mr_out, *mr_ref);
      } else {
        EXPECT_FALSE(mr_out.status().message().empty());
      }
      run_cache_scenario(base + "/cache", std::string("k-") + name + "-" + tag);
      run_artifact_scenario(csr_ref, art_ref, stem + ".orc");
      run_net_scenario(**nserver, net_qs, net_ref);
      fault::disarm_all();
    }
    // The sweep is only a sweep if forcing the point actually reached it.
    EXPECT_GT(fault::trigger_count(name), 0u) << name;
  }

  const auto triggered = fault::triggered_counters();
  EXPECT_EQ(triggered.size(), fault::all_fault_points().size());
  // CI greps for this exact prefix and asserts a nonzero count.
  std::printf("fault points triggered: %zu\n", triggered.size());
}

// End-to-end degradation on a registered algorithm: with the spill
// directory unusable the MR engine keeps the shuffle in memory, and the
// resulting partition must match the fault-free run exactly.
TEST(FaultSweep, MrClusterIsByteIdenticalUnderSpillDegradation) {
  fault::disarm_all();
  const Graph g = gen::ring_of_cliques(24, 16);
  AlgoParams params;
  params.set("tau", "16");
  params.set("spill_bytes", "8192");
  const auto run_once = [&] {
    RunContext ctx;
    ctx.seed = 7;
    return registry().try_run("mr.cluster", g, params, ctx).value();
  };

  const Clustering clean = run_once();
  fault::arm("spill.mkdir", fault::FaultSpec::always());
  const Clustering degraded = run_once();
  fault::disarm_all();

  EXPECT_EQ(degraded.assignment, clean.assignment);
  EXPECT_EQ(degraded.centers, clean.centers);
  EXPECT_EQ(degraded.radius, clean.radius);
  EXPECT_EQ(degraded.sizes, clean.sizes);
}

// Flip every header byte and the first 64 payload bytes of a valid CSR v2
// file: each variant must be rejected as kDataLoss / kInvalidArgument —
// never a crash, never a silent success.
TEST(CorruptionSweep, EveryHeaderAndLeadingPayloadByteFlipFailsCleanly) {
  fault::disarm_all();
  const std::string path = sweep_dir() + "/bitflip.csr2";
  const Graph g = gen::grid(10, 10);
  ASSERT_TRUE(io::write_csr(g, path).ok());
  std::vector<char> bytes = slurp(path);
  constexpr std::size_t kHeaderBytes = 72;
  ASSERT_GE(bytes.size(), kHeaderBytes);
  const std::uint64_t offsets_pos = le64_at(bytes, 32);
  ASSERT_LE(offsets_pos + 64, bytes.size());

  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) targets.push_back(i);
  for (std::size_t i = 0; i < 64; ++i) {
    targets.push_back(static_cast<std::size_t>(offsets_pos) + i);
  }

  for (const std::size_t off : targets) {
    SCOPED_TRACE("flipped byte " + std::to_string(off));
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
    spit(path, bytes);
    for (const io::CsrLoadMode mode :
         {io::CsrLoadMode::kAuto, io::CsrLoadMode::kCopy}) {
      io::CsrLoadOptions opts;
      opts.mode = mode;
      const auto loaded = io::load_csr(path, opts);
      ASSERT_FALSE(loaded.ok());
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << loaded.status().to_string();
    }
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
  }

  spit(path, bytes);  // restored: must load again, byte-identical
  const auto restored = io::load_csr(path);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_TRUE(testutil::same_csr(*restored, g));
}

}  // namespace
}  // namespace gclus
