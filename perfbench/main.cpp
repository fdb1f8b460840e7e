// End-to-end pipeline benchmark: edge list -> verified CSR -> oracle
// (CLUSTER2 + quotient + APSP) and diameter (CLUSTER + quotient) ->
// published artifact -> restart -> serving over loopback GQRP.
//
// Subcommands (run.py drives them; see README.md):
//   perfbench gen --scale full|tiny --seed S --out F
//       Generates the input graph and writes it as edge-list text.  Runs
//       in its own process so generation never shows in a measured
//       process's time or peak RSS.
//   perfbench publish --scale S --seed S --edges F
//                     --csr F --orc F
//       Runs the ingest and oracle stages once and leaves the CSR v2 file
//       and the .orc artifact behind: the serve workload's restart input.
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --scale S --edges F [--csr F --orc F] --workdir D
//                 [--spans F]
//       Runs one workload and prints the result object as the last line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/diameter.hpp"
#include "core/distance_oracle.hpp"
#include "core/quotient.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "query_workload.hpp"
#include "serve.hpp"
#include "server/engine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gclus::Graph;
using gclus::Timer;
using gclus::server::QueryEngine;

// ---- configuration ---------------------------------------------------------

/// Input sizes and granularities.  "full" is the measured configuration;
/// "tiny" exists for the self-test, which compares counts across thread
/// counts in seconds rather than minutes.
struct Scale {
  gclus::NodeId road_side;  ///< road_like(side, side, 0.05, 0.1)
  std::uint32_t oracle_tau;
  std::uint32_t diameter_tau;
  std::size_t stream_batches;   ///< serving stream length, in batches
  std::size_t stretch_sources;  ///< exact BFS sources for the stretch check
  std::size_t stretch_targets;  ///< sampled targets per source
  double inproc_s;              ///< traced in-process queue loop
};

constexpr Scale kFull{2300, 1024, 4, 1024, 8, 8192, 2.0};
constexpr Scale kTiny{60, 8, 4, 64, 4, 64, 0.2};

/// Open-loop schedule, in batches of kBatchSize per second over all
/// connections (2.05M queries/s), frozen so latency is read at one fixed
/// load on every commit.  It is about a quarter of the ~17k batches/s the
/// road-serve closed loop measured when the benchmark was introduced: at
/// half that throughput each connection's request-response pipeline ran
/// near saturation once wake-up latency was counted, and the windowed p99
/// moved 0.25-40 ms from run to run.
constexpr double kOpenLoopBatchesPerS = 4000.0;

/// Repetitions of the pre-stage set-up, of each build stage, and serving
/// sessions; each reports its best repetition.  Serving takes --seconds.
constexpr int kSetupReps = 51;
constexpr int kStageReps = 3;
constexpr int kRestartReps = 3;

/// Share of a serving session spent in the closed loop; the open loop
/// takes the rest.  Throughput moves more between runs than the open
/// loop's median latency, so it gets the larger share.
constexpr double kClosedShare = 2.0 / 3.0;

constexpr std::uint64_t kStreamSeedTag = 0x5E7E;
constexpr std::uint64_t kProbeSeedTag = 0x9B0B;
constexpr std::uint64_t kStretchSeedTag = 0x57E7;
constexpr std::uint64_t kDiameterSeedTag = 0xD1A0;

struct Workload {
  const char* name;
  /// Serve first (restart from cached artifacts), then the build stages;
  /// otherwise the build stages, then serving on what they published.
  bool serve_first;
};

constexpr Workload kWorkloads[] = {
    {"road-build", false},
    {"road-serve", true},
};

struct Args {
  std::string cmd;
  std::string workload;
  std::string scale = "full";
  std::string edges, csr, orc, out, workdir, spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <class T>
T value_or_die(gclus::StatusOr<T> r, const char* what) {
  if (!r.ok()) die(std::string(what) + ": " + r.status().to_string());
  return std::move(r).value();
}

void ok_or_die(const gclus::Status& s, const char* what) {
  if (!s.ok()) die(std::string(what) + ": " + s.to_string());
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench gen|publish|run --key value ...");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--scale") a.scale = v;
    else if (k == "--edges") a.edges = v;
    else if (k == "--csr") a.csr = v;
    else if (k == "--orc") a.orc = v;
    else if (k == "--out") a.out = v;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else die("unknown argument " + k);
  }
  if ((argc - 2) % 2 != 0) die("arguments come in --key value pairs");
  return a;
}

const Scale& scale_of(const Args& a) {
  if (a.scale == "full") return kFull;
  if (a.scale == "tiny") return kTiny;
  die("unknown scale " + a.scale);
}

// ---- shared helpers --------------------------------------------------------

std::uint64_t adjacency_digest(const Graph& g) {
  std::uint64_t h = gclus::hash_combine(g.num_nodes(), g.num_half_edges());
  for (const gclus::EdgeId o : g.offsets()) h = gclus::hash_combine(h, o);
  for (const gclus::NodeId v : g.neighbor_array()) h = gclus::hash_combine(h, v);
  return h;
}

std::uint64_t apsp_digest(std::span<const gclus::Weight> apsp) {
  std::uint64_t h = apsp.size();
  for (const gclus::Weight w : apsp) h = gclus::hash_combine(h, w);
  return h;
}

/// The best of repeated measurements: the least time.  Noise on a shared
/// host only ever adds time, so the best repetition is the steadiest
/// estimate of the program's own cost (Chen and Revels, "Robust
/// benchmarking in noisy environments", 2016).
double least(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

gclus::DistanceOracleOptions oracle_options(const Scale& sc,
                                            std::uint64_t seed) {
  gclus::DistanceOracleOptions o;
  o.tau = sc.oracle_tau;
  o.seed = seed;
  return o;
}

// ---- run state -------------------------------------------------------------

/// Named metric values in report order, with units.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Correctness checks and operation accounting.  Every stage execution,
/// every check and every wire batch is one attempted operation; a failed
/// check or a refused or wrong batch is a failed one.
struct Ledger {
  std::uint64_t stages = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t batches_answered = 0;
  std::uint64_t batches_refused = 0;
  std::uint64_t batches_wrong = 0;

  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++checks_failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void add_loop(const LoopStats& s) {
    batches_sent += s.sent;
    batches_answered += s.answered;
    batches_refused += s.refused;
    batches_wrong += s.mismatched;
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return stages + checks + batches_sent;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return checks_failed + batches_refused + batches_wrong;
  }
};

struct Run {
  const Args& args;
  const Scale& sc;
  const Workload& wl;
  Tracer& tr;
  std::string csr_path;  ///< CSR the build stages publish
  std::string orc_path;  ///< artifact the build stages publish
  Metrics e2e;
  Metrics layer;
  Ledger ledger;
};

// ---- build stages ----------------------------------------------------------

/// Edge-list text -> CSR v2 file -> verified CSR load.  Returns the stage
/// wall time; `verified` receives the loaded graph.
double ingest_stage(Run& r, Graph& verified) {
  Timer t;
  Graph parsed;
  {
    auto stage = r.tr.span("stage.ingest", Layer::kBench);
    {
      auto s = r.tr.span("io::load_edge_list", Layer::kGraph);
      parsed = value_or_die(gclus::io::load_edge_list(r.args.edges), "parse");
      r.layer.set("graph.parse_s", s.elapsed_s(), "s");
    }
    {
      auto s = r.tr.span("io::write_csr", Layer::kGraph);
      ok_or_die(gclus::io::write_csr(parsed, r.csr_path), "write csr");
      r.layer.set("graph.csr_write_s", s.elapsed_s(), "s");
    }
    {
      auto s = r.tr.span("io::load_csr", Layer::kGraph);
      gclus::io::CsrLoadOptions opts;
      opts.verify = true;
      verified = value_or_die(gclus::io::load_csr(r.csr_path, opts), "load csr");
      r.layer.set("graph.csr_load_s", s.elapsed_s(), "s");
    }
  }
  const double seconds = t.elapsed_s();
  ++r.ledger.stages;
  {
    auto s = r.tr.span("check.csr_roundtrip", Layer::kCheck);
    r.ledger.expect(verified.num_nodes() == parsed.num_nodes() &&
                        verified.num_half_edges() == parsed.num_half_edges() &&
                        adjacency_digest(verified) == adjacency_digest(parsed),
                    "reloaded CSR has the parsed graph's n, m and adjacency");
  }
  r.layer.set("graph.text_bytes", file_bytes(r.args.edges), "bytes");
  r.layer.set("graph.csr_bytes", file_bytes(r.csr_path), "bytes");
  r.layer.set("graph.nodes", verified.num_nodes(), "count");
  r.layer.set("graph.half_edges", static_cast<double>(verified.num_half_edges()),
              "count");
  return seconds;
}

/// Verified CSR -> QueryEngine::build -> published .orc.
double oracle_stage(Run& r, const Graph& g,
                    std::shared_ptr<const QueryEngine>& engine,
                    double& build_s) {
  Timer t;
  {
    auto stage = r.tr.span("stage.oracle", Layer::kBench);
    {
      auto s = r.tr.span("QueryEngine::build", Layer::kServer);
      engine = std::make_shared<const QueryEngine>(value_or_die(
          QueryEngine::build(g, oracle_options(r.sc, r.args.seed)),
          "oracle build"));
      build_s = s.elapsed_s();
    }
    {
      auto s = r.tr.span("QueryEngine::save", Layer::kServer);
      ok_or_die(engine->save(r.orc_path), "save artifact");
      r.layer.set("artifact.write_s", s.elapsed_s(), "s");
    }
  }
  ++r.ledger.stages;
  r.layer.set("artifact.bytes", file_bytes(r.orc_path), "bytes");
  return t.elapsed_s();
}

/// Traced runs only: the calls QueryEngine::build makes, one span each,
/// checked against the engine the untraced call produced.
void oracle_split(Run& r, const Graph& g, const QueryEngine& built,
                  double build_s) {
  auto stage = r.tr.span("stage.oracle_split", Layer::kBench);
  gclus::ClusterOptions copts;
  copts.seed = gclus::derive_seed(r.args.seed, gclus::kSeedTagOracleBuild);
  gclus::Cluster2Result c2;
  gclus::QuotientGraph q;
  std::vector<gclus::Weight> apsp;
  double split_s = 0.0;
  {
    auto s = r.tr.span("cluster2", Layer::kCore);
    c2 = gclus::cluster2(g, r.sc.oracle_tau, copts);
    split_s += s.elapsed_s();
    r.layer.set("decomp.cluster2_s", s.elapsed_s(), "s");
  }
  {
    auto s = r.tr.span("build_quotient", Layer::kCore);
    q = gclus::build_quotient(g, c2.clustering, /*with_weights=*/true);
    split_s += s.elapsed_s();
    r.layer.set("quotient.build_s", s.elapsed_s(), "s");
  }
  {
    auto s = r.tr.span("apsp_matrix", Layer::kGraph);
    apsp = gclus::apsp_matrix(q.weighted, /*max_nodes=*/40000);
    split_s += s.elapsed_s();
    r.layer.set("apsp.matrix_s", s.elapsed_s(), "s");
  }
  const gclus::Clustering& c = c2.clustering;
  r.layer.set("decomp.growth_steps", static_cast<double>(c.growth_steps), "count");
  r.layer.set("decomp.push_steps", static_cast<double>(c.push_steps), "count");
  r.layer.set("decomp.pull_steps", static_cast<double>(c.pull_steps), "count");
  r.layer.set("decomp.prelim_steps",
              static_cast<double>(c2.prelim_growth_steps), "count");
  // One synchronous round per growth step in the §5 model (Lemma 3).
  r.layer.set("decomp.rounds",
              static_cast<double>(c.growth_steps + c2.prelim_growth_steps),
              "count");
  r.layer.set("decomp.clusters", c.num_clusters(), "count");
  r.layer.set("decomp.max_radius", c.max_radius(), "hops");
  r.layer.set("quotient.nodes", q.weighted.num_nodes(), "count");
  r.layer.set("quotient.half_edges",
              static_cast<double>(q.weighted.num_half_edges()), "count");
  r.layer.set("trace.overhead_s", split_s - build_s, "s");
  const auto& meta = built.artifact().meta;
  r.ledger.expect(c.num_clusters() == meta.num_clusters &&
                      q.weighted.num_half_edges() ==
                          meta.quotient_num_half_edges &&
                      apsp_digest(apsp) == apsp_digest(built.artifact().apsp),
                  "split oracle path reproduces the built oracle (clusters, "
                  "quotient size, APSP digest)");
}

/// approximate_diameter (CLUSTER pipeline of §6.2); traced runs time its
/// two calls separately.
double diameter_stage(Run& r, const Graph& g, int round,
                      gclus::DiameterApprox& out) {
  const std::uint32_t tau = r.sc.diameter_tau;
  gclus::DiameterOptions opts;
  opts.seed = round == 0 ? r.args.seed
                         : gclus::derive_seed(r.args.seed,
                                              kDiameterSeedTag + round);
  Timer t;
  {
    auto stage = r.tr.span("stage.diameter", Layer::kBench);
    if (!r.tr.enabled()) {
      auto s = r.tr.span("approximate_diameter", Layer::kCore);
      out = gclus::approximate_diameter(g, tau, opts);
    } else {
      // Exactly the calls approximate_diameter makes with use_cluster2 off.
      gclus::ClusterOptions copts;
      copts.context() = opts.context();
      gclus::Clustering c;
      {
        auto s = r.tr.span("cluster", Layer::kCore);
        c = gclus::cluster(g, tau, copts);
        r.layer.set("diameter.cluster_s", s.elapsed_s(), "s");
      }
      {
        auto s = r.tr.span("diameter_from_clustering", Layer::kCore);
        out = gclus::diameter_from_clustering(g, c);
        r.layer.set("diameter.quotient_s", s.elapsed_s(), "s");
      }
    }
  }
  ++r.ledger.stages;
  r.layer.set("diameter.quotient_nodes", out.quotient_nodes, "count");
  r.layer.set("diameter.growth_steps", static_cast<double>(out.growth_steps),
              "count");
  r.layer.set("diameter.upper_bound", static_cast<double>(out.upper_bound),
              "hops");
  return t.elapsed_s();
}

/// Answer quality: oracle stretch against exact BFS on sampled pairs, and
/// Δ″ against the double-sweep lower bound.
void quality_checks(Run& r, const Graph& g, const QueryEngine& engine,
                    const std::vector<gclus::DiameterApprox>& diameters) {
  struct Pair {
    gclus::NodeId src, dst;
    gclus::Dist dist;
  };
  std::vector<Pair> pairs;
  std::vector<double> ratios;
  std::uint64_t below = 0;
  const auto evaluate = [&](const QueryEngine& e) {
    for (const Pair& p : pairs) {
      const auto answer = e.approx_distance(p.src, p.dst);
      if (!answer.ok() || *answer < p.dist) {
        ++below;
        continue;
      }
      ratios.push_back(static_cast<double>(*answer) /
                       static_cast<double>(p.dist));
    }
  };
  {
    auto s = r.tr.span("check.stretch", Layer::kCheck);
    gclus::Rng rng(gclus::derive_seed(r.args.seed, kStretchSeedTag));
    const gclus::NodeId n = g.num_nodes();
    for (std::size_t i = 0; i < r.sc.stretch_sources; ++i) {
      const auto src = static_cast<gclus::NodeId>(rng.next_below(n));
      // Sequential: on the road graph's ~3.5k levels a level-synchronous
      // BFS spends most of its time dispatching tiny frontiers.
      const std::vector<gclus::Dist> dist = gclus::bfs_distances(g, src);
      for (std::size_t j = 0; j < r.sc.stretch_targets; ++j) {
        const auto dst = static_cast<gclus::NodeId>(rng.next_below(n));
        if (dist[dst] != 0 && dist[dst] != gclus::kInfDist) {
          pairs.push_back({src, dst, dist[dst]});
        }
      }
    }
    evaluate(engine);
  }
  r.ledger.expect(below == 0 && !ratios.empty(),
                  "no oracle answer below the exact BFS distance (" +
                      std::to_string(below) + " violations)");
  gclus::Dist lb = 0;
  {
    auto s = r.tr.span("check.double_sweep", Layer::kCheck);
    lb = gclus::double_sweep_lower_bound(g, 0);
  }
  double dratio = 0.0;
  for (const gclus::DiameterApprox& d : diameters) {
    r.ledger.expect(d.upper_bound >= lb && lb > 0,
                    "diameter upper bound >= double-sweep lower bound");
    dratio += static_cast<double>(d.upper_bound) /
              static_cast<double>(std::max<gclus::Dist>(1, lb)) /
              static_cast<double>(diameters.size());
  }
  const double p50 = percentile(ratios, 0.5);
  const double p99 = percentile(ratios, 0.99);
  r.e2e.set("stretch_p50", p50, "ratio");
  r.e2e.set("stretch_p99", p99, "ratio");
  r.e2e.set("diameter_ratio", dratio, "ratio");
  r.layer.set("quality.stretch_p50", p50, "ratio");
  r.layer.set("quality.stretch_p99", p99, "ratio");
  r.layer.set("diameter.lower_bound", lb, "hops");
}

// ---- serving ---------------------------------------------------------------

/// Traced runs only: the engine, queue and codec layers without the wire.
void serve_layers(Run& r, const Service& svc, const BatchedStream& stream) {
  std::vector<gclus::server::Query> all, hoods;
  for (const auto& b : stream.batches) {
    for (const auto& q : b) {
      all.push_back(q);
      if (q.kind == gclus::server::QueryKind::kClusterNeighborhood) {
        hoods.push_back(q);
      }
    }
  }
  {
    auto s = r.tr.span("execute_query", Layer::kServer);
    r.layer.set("engine.query_ns", serial_ns_per_query(*svc.engine, all), "ns");
  }
  {
    auto s = r.tr.span("execute_query.neighborhood", Layer::kServer);
    r.layer.set("engine.neighborhood_ns",
                serial_ns_per_query(*svc.engine, hoods), "ns");
  }
  {
    auto s = r.tr.span("QueryServer.inproc", Layer::kServer);
    const LoopStats q = inproc_loop(svc.engine, stream, r.sc.inproc_s);
    r.ledger.add_loop(q);
    r.layer.set("server.inproc_qps", percentile(window_qps(q), kQpsPercentile),
                "queries/s");
    r.layer.set("server.batch_p50_ms", windowed_percentile(q, 0.5), "ms");
    r.layer.set("server.batch_p99_ms", windowed_percentile(q, 0.99), "ms");
  }
  {
    auto s = r.tr.span("codec", Layer::kNet);
    bool ok = false;
    r.layer.set("net.codec_ns_per_query", codec_ns_per_query(stream, ok), "ns");
    r.ledger.expect(ok, "codec round trip reproduces every batch");
  }
}

/// What the serving sessions of one run accumulate.
struct ServeTally {
  std::vector<gclus::server::Query> probe;  ///< first batch after restart
  BatchedStream stream;
  std::vector<double> restart_s, csr_s, art_s, p50, p90, p99, lag;
  std::vector<double> qps;  ///< closed-loop windows of every session
  std::uint64_t results_sent = 0, bad_frames = 0, shed = 0;
  std::uint64_t wrong = 0, refused = 0;
};

/// One serving session: restart the service from the published files, then
/// a closed loop of `closed_s` and an open loop of `open_s` seconds.  Each
/// session has a fresh set of server threads, placed afresh by the
/// scheduler.
void serve_session(Run& r, ServeTally& t, const std::string& csr,
                   const std::string& orc, double closed_s, double open_s) {
  auto stage = r.tr.span("stage.serve", Layer::kBench);
  const bool first = t.restart_s.empty();
  if (first) {
    const auto info = gclus::io::probe_csr_file(csr);
    if (!info) die("cannot probe " + csr);
    t.probe = gclus_cli::make_queries(
        static_cast<gclus::NodeId>(info->num_nodes), kBatchSize, 0.8,
        gclus::derive_seed(r.args.seed, kProbeSeedTag));
  }
  Service svc;
  std::vector<gclus::server::QueryResult> probe_answers;
  {
    auto s = r.tr.span("restart", Layer::kServer);
    RestartTimes times;
    svc = value_or_die(
        restart_service(csr, orc, t.probe, probe_answers, times), "restart");
    t.restart_s.push_back(times.total_s);
    t.csr_s.push_back(times.csr_load_s);
    t.art_s.push_back(times.artifact_load_s);
  }
  ++r.ledger.stages;
  if (first) {
    auto s = r.tr.span("replay", Layer::kServer);
    t.stream = make_stream(*svc.engine, r.sc.stream_batches,
                           gclus::derive_seed(r.args.seed, kStreamSeedTag));
  }
  {
    gclus::server::QueryScratch scratch;
    std::vector<gclus::ClusterId> buf;
    std::vector<gclus::server::QueryResult> expect;
    for (const auto& q : t.probe) {
      expect.push_back(
          gclus::server::execute_query(*svc.engine, q, scratch, buf));
    }
    r.ledger.expect(expect == probe_answers,
                    "first wire batch after restart matches serial replay");
  }
  if (first && r.tr.enabled()) serve_layers(r, svc, t.stream);

  const std::uint16_t port = svc.net->port();
  LoopStats closed, open;
  {
    auto s = r.tr.span("wire.closed_loop", Layer::kNet);
    closed = closed_loop(port, t.stream, closed_s);
  }
  {
    auto s = r.tr.span("wire.open_loop", Layer::kNet);
    open = open_loop(port, t.stream, open_s, kOpenLoopBatchesPerS);
  }
  r.ledger.add_loop(closed);
  r.ledger.add_loop(open);
  const std::vector<double> qps = window_qps(closed);
  t.qps.insert(t.qps.end(), qps.begin(), qps.end());
  t.p50.push_back(windowed_percentile(open, 0.5));
  t.p90.push_back(windowed_percentile(open, 0.9));
  t.p99.push_back(windowed_percentile(open, 0.99));
  t.lag.push_back(percentile(open.lag_ms, 0.99));
  t.wrong += closed.mismatched + open.mismatched;
  t.refused += closed.refused + open.refused;

  svc.net->request_drain();
  svc.net->drain();
  t.results_sent += svc.net->stats().results_sent;
  t.bad_frames += svc.net->stats().bad_frames;
  t.shed += svc.queue->stats().shed_batches;
  stop_service(svc);
}

/// Reports the sessions' figures and runs the serving checks: throughput
/// over the closed-loop windows of all sessions, every other figure the
/// best session's.  Returns the stream digest of the restarted engine's
/// answers.
std::uint64_t finish_serve(Run& r, const ServeTally& t) {
  r.layer.set("serve.restart_s", least(t.restart_s), "s");
  r.layer.set("artifact.load_s", least(t.art_s), "s");
  r.layer.set("graph.restart_csr_load_s", least(t.csr_s), "s");
  if (r.wl.serve_first) r.e2e.set("setup_s", least(t.restart_s), "s");
  r.e2e.set("serve_qps", percentile(t.qps, kQpsPercentile), "queries/s");
  r.e2e.set("serve_p50_ms", least(t.p50), "ms");
  r.layer.set("serve_p90_ms", least(t.p90), "ms");
  r.layer.set("serve_p99_ms", least(t.p99), "ms");
  r.layer.set("loadgen.lag_p99_ms", least(t.lag), "ms");
  r.layer.set("net.results_sent", static_cast<double>(t.results_sent), "count");
  r.layer.set("net.bad_frames", static_cast<double>(t.bad_frames), "count");
  r.layer.set("server.shed_batches", static_cast<double>(t.shed), "count");
  r.ledger.expect(t.shed == 0, "no batch shed by the server");
  r.ledger.expect(t.bad_frames == 0, "no malformed frame on the wire");
  r.ledger.expect(t.wrong == 0 && t.refused == 0,
                  "wire answers equal the serial execute_query replay");
  return stream_digest(t.stream);
}

/// Stream digest of `engine`'s answers to the serving stream.
std::uint64_t fresh_stream_digest(const Run& r, const QueryEngine& engine) {
  return stream_digest(make_stream(
      engine, r.sc.stream_batches,
      gclus::derive_seed(r.args.seed, kStreamSeedTag)));
}

// ---- workloads -------------------------------------------------------------

/// Work the benchmark does before the first stage: start a thread pool of
/// the size the stages use, create the output directory, stat the input.
double setup_once(const Run& r) {
  Timer t;
  {
    gclus::ThreadPool pool(gclus::ThreadPool::global().num_threads());
    pool.run_on_workers([](std::size_t) {});
  }
  fs::create_directories(r.args.workdir);
  if (file_bytes(r.args.edges) <= 0.0) die("missing input " + r.args.edges);
  return t.elapsed_s();
}

struct BuildOutputs {
  Graph graph;
  std::shared_ptr<const QueryEngine> engine;
  std::vector<gclus::DiameterApprox> diameters;  ///< one per round
};

/// Stage wall times of every round; report_stages reduces them.
struct StageTimes {
  std::vector<double> ingest, oracle, diameter;
};

/// One round of the three build stages in pipeline order; `round` 0 also
/// runs the traced oracle split.
void build_round(Run& r, BuildOutputs& out, StageTimes& times, int round) {
  // Write-back of earlier rounds' files must not overlap a stage.
  ::sync();
  out.engine.reset();
  out.graph = Graph{};  // unmap before the CSR file is rewritten
  times.ingest.push_back(ingest_stage(r, out.graph));
  ::sync();
  double build_s = 0.0;
  times.oracle.push_back(oracle_stage(r, out.graph, out.engine, build_s));
  if (round == 0 && r.tr.enabled()) {
    oracle_split(r, out.graph, *out.engine, build_s);
  }
  ::sync();
  out.diameters.emplace_back();
  times.diameter.push_back(
      diameter_stage(r, out.graph, round, out.diameters.back()));
}

/// Ingest and the oracle repeat the same work each round and report the
/// best round.  The diameter draws a new clustering each round, and the
/// quotient's size, which its exact weighted diameter costs quadratically,
/// moved its time 30% between seeds; it reports the mean over rounds.
void report_stages(Run& r, const StageTimes& times) {
  const std::vector<double>& d = times.diameter;
  r.e2e.set("ingest_s", least(times.ingest), "s");
  r.e2e.set("oracle_build_s", least(times.oracle), "s");
  r.e2e.set("diameter_s",
            std::accumulate(d.begin(), d.end(), 0.0) /
                static_cast<double>(d.size()),
            "s");
  for (std::size_t i = 0; i < d.size(); ++i) {
    std::printf("round %zu: ingest %.3f s, oracle %.3f s, diameter %.3f s\n",
                i, times.ingest[i], times.oracle[i], d[i]);
  }
}

void run_workload(Run& r) {
  auto root = r.tr.span("run", Layer::kBench);
  double rss_mb = 0.0;
  ServeTally serve;
  BuildOutputs built;
  StageTimes times;
  // Traced runs execute each stage once.  The serving sessions share
  // --seconds, each running a closed then an open loop.
  const int rounds = r.tr.enabled() ? 1 : kStageReps;
  const double closed_s = r.args.seconds / kRestartReps * kClosedShare;
  const double open_s = r.args.seconds / kRestartReps * (1 - kClosedShare);
  const auto serve_sessions = [&](const std::string& csr,
                                  const std::string& orc) {
    for (int i = 0; i < kRestartReps; ++i) {
      serve_session(r, serve, csr, orc, closed_s, open_s);
    }
  };
  if (r.wl.serve_first) {
    serve_sessions(r.args.csr, r.args.orc);
    rss_mb = peak_rss_mb();
    for (int i = 0; i < rounds; ++i) build_round(r, built, times, i);
  } else {
    std::vector<double> setup;
    {
      // Starting a pool is thread wake-ups; see IdleSpinners.
      const IdleSpinners spinners;
      for (int i = 0; i < kSetupReps; ++i) setup.push_back(setup_once(r));
    }
    r.e2e.set("setup_s", least(setup), "s");
    for (int i = 0; i < rounds; ++i) build_round(r, built, times, i);
    ::sync();  // keep write-back of the stages' files out of serving
    serve_sessions(r.csr_path, r.orc_path);
    rss_mb = peak_rss_mb();
  }
  report_stages(r, times);
  const std::uint64_t restarted_digest = finish_serve(r, serve);
  quality_checks(r, built.graph, *built.engine, built.diameters);
  r.ledger.expect(fresh_stream_digest(r, *built.engine) == restarted_digest,
                  "answers after restart match the fresh build");
  r.e2e.set("peak_rss_mb", rss_mb, "MB");
}

void report(Run& r) {
  r.layer.set("self.graph_s", r.tr.self_time_s(Layer::kGraph), "s");
  r.layer.set("self.core_s", r.tr.self_time_s(Layer::kCore), "s");
  r.layer.set("self.server_s", r.tr.self_time_s(Layer::kServer), "s");
  r.layer.set("self.net_s", r.tr.self_time_s(Layer::kNet), "s");
  const Ledger& l = r.ledger;
  std::printf(
      "operations: stages=%llu checks=%llu checks_failed=%llu "
      "batches_sent=%llu answered=%llu refused=%llu wrong=%llu\n",
      static_cast<unsigned long long>(l.stages),
      static_cast<unsigned long long>(l.checks),
      static_cast<unsigned long long>(l.checks_failed),
      static_cast<unsigned long long>(l.batches_sent),
      static_cast<unsigned long long>(l.batches_answered),
      static_cast<unsigned long long>(l.batches_refused),
      static_cast<unsigned long long>(l.batches_wrong));
  if (r.tr.enabled()) {
    std::printf("self time (s): graph=%.4f core=%.4f server=%.4f net=%.4f "
                "bench=%.4f check=%.4f\n",
                r.tr.self_time_s(Layer::kGraph), r.tr.self_time_s(Layer::kCore),
                r.tr.self_time_s(Layer::kServer), r.tr.self_time_s(Layer::kNet),
                r.tr.self_time_s(Layer::kBench), r.tr.self_time_s(Layer::kCheck));
    if (!r.args.spans.empty() && !r.tr.write_jsonl(r.args.spans)) {
      die("cannot write spans to " + r.args.spans);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              l.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(l.attempted()),
              static_cast<unsigned long long>(l.failed()),
              (r.tr.enabled() ? r.layer : r.e2e).json().c_str());
}

// ---- subcommands -----------------------------------------------------------

int cmd_gen(const Args& a) {
  if (a.out.empty()) die("gen needs --out");
  const Scale& sc = scale_of(a);
  const Graph g =
      gclus::gen::road_like(sc.road_side, sc.road_side, 0.05, 0.1, a.seed);
  const std::string tmp = a.out + ".tmp";
  gclus::io::write_edge_list_file(g, tmp);
  if (file_bytes(tmp) <= 0.0) die("failed to write " + tmp);
  fs::rename(tmp, a.out);
  std::printf("generated %s: n=%u half_edges=%llu\n", a.out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_half_edges()));
  return 0;
}

int cmd_publish(const Args& a) {
  if (a.edges.empty() || a.csr.empty() || a.orc.empty()) {
    die("publish needs --edges, --csr and --orc");
  }
  const Graph parsed =
      value_or_die(gclus::io::load_edge_list(a.edges), "parse");
  ok_or_die(gclus::io::write_csr(parsed, a.csr + ".tmp"), "write csr");
  const Graph g = value_or_die(gclus::io::load_csr(a.csr + ".tmp"), "load csr");
  const QueryEngine e = value_or_die(
      QueryEngine::build(g, oracle_options(scale_of(a), a.seed)), "build");
  ok_or_die(e.save(a.orc), "save");
  fs::rename(a.csr + ".tmp", a.csr);
  return 0;
}

int cmd_run(const Args& a) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) wl = &w;
  }
  if (wl == nullptr) die("unknown workload " + a.workload);
  if (a.edges.empty() || a.workdir.empty()) die("run needs --edges, --workdir");
  if (wl->serve_first && (a.csr.empty() || a.orc.empty())) {
    die(a.workload + " needs --csr and --orc");
  }
  Tracer tracer(a.trace, a.workload + "-s" + std::to_string(a.seed) + "-" +
                             std::to_string(::getpid()));
  Run r{a, scale_of(a), *wl, tracer, a.workdir + "/graph.csr2",
        a.workdir + "/oracle.orc", {}, {}, {}};
  fs::create_directories(a.workdir);
  run_workload(r);
  report(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  if (a.cmd == "gen") return cmd_gen(a);
  if (a.cmd == "publish") return cmd_publish(a);
  if (a.cmd == "run") return cmd_run(a);
  die("unknown subcommand " + a.cmd);
}
