// Serving half of the pipeline benchmark: restart from published files,
// the canonical query stream, and the load loops that drive the engine,
// the batch queue and the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "net/server.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"

namespace perfbench {

inline constexpr std::size_t kBatchSize = 512;
inline constexpr std::size_t kServerWorkers = 2;
/// Connections opened by the one load-generating process.
inline constexpr std::size_t kConnections = 2;

/// Order-sensitive digest of a batch's answers.
[[nodiscard]] std::uint64_t digest_results(
    const std::vector<gclus::server::QueryResult>& results);

/// The canonical serving mix (examples/query_workload.hpp) cut into
/// batches, with each batch's answers from a serial execute_query replay
/// on the reference engine — what every wire and queue answer must match.
struct BatchedStream {
  std::vector<std::vector<gclus::server::Query>> batches;
  std::vector<std::vector<gclus::server::QueryResult>> answers;
  std::vector<std::uint64_t> digests;
  [[nodiscard]] std::size_t num_queries() const {
    return batches.size() * kBatchSize;
  }
};

[[nodiscard]] BatchedStream make_stream(const gclus::server::QueryEngine& ref,
                                        std::size_t num_batches,
                                        std::uint64_t seed);

/// Digest of the whole stream's serial answers (restart-equivalence probe).
[[nodiscard]] std::uint64_t stream_digest(const BatchedStream& s);

/// A restarted query service: verified CSR, loaded oracle artifact, the
/// batch queue and the loopback listener.  Members are declared in
/// dependency order so destruction drains the listener before the queue.
struct Service {
  std::shared_ptr<const gclus::server::QueryEngine> engine;
  std::unique_ptr<gclus::server::QueryServer> queue;
  std::unique_ptr<gclus::net::NetServer> net;
};

/// Drains the listener, then the queue, then releases the engine.
void stop_service(Service& svc);

/// Keeps every CPU the process may use busy at the lowest priority for its
/// lifetime.  On a virtual machine a vCPU with nothing to run halts, and
/// waking it again waits for the host's scheduler, so anything made of
/// thread wake-ups (a loopback round trip, starting a thread pool)
/// measured the host's load more than the program: loopback throughput
/// swung 4x between otherwise equal runs.  A SCHED_IDLE spinner yields to
/// any other thread at once but keeps its CPU from halting, the effect of
/// booting with idle=poll.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct RestartTimes {
  double csr_load_s = 0.0;       ///< io::load_csr with verification
  double artifact_load_s = 0.0;  ///< QueryEngine::load
  double total_s = 0.0;          ///< ... through the first answered batch
};

/// Restarts the service from `csr_path` + `orc_path` and waits for one
/// answered batch (`probe`) over the wire; `probe_results` receives it.
[[nodiscard]] gclus::StatusOr<Service> restart_service(
    const std::string& csr_path, const std::string& orc_path,
    const std::vector<gclus::server::Query>& probe,
    std::vector<gclus::server::QueryResult>& probe_results,
    RestartTimes& times);

/// Outcome of one load loop.  Latencies are per batch, in milliseconds.
struct LoopStats {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;     ///< error status instead of answers
  std::uint64_t mismatched = 0;  ///< answers differing from the replay
  double seconds = 0.0;
  std::vector<double> latency_ms;
  /// Per latency sample: seconds from loop start to the batch's due time
  /// (open loop) or completion (closed loop); selects its window.
  std::vector<double> at_s;
  std::vector<double> lag_ms;  ///< open loop: send time minus due time
};

/// Latency is read over consecutive windows of this length and reported as
/// the median over windows, so a scheduling stall on a shared host moves a
/// figure only if stalls recur in most windows.  At the open-loop rate a
/// window holds ~1000 batches, so its p99 has ~10 samples beyond it.
inline constexpr double kWindowS = 0.25;

/// Median over windows of the q-th latency percentile within the window.
[[nodiscard]] double windowed_percentile(const LoopStats& s, double q);

/// Throughput is read over shorter windows than latency: a window's
/// count of answered batches needs no tail, and more windows give the
/// throughput percentile (kQpsPercentile) more samples to choose from.
inline constexpr double kQpsWindowS = 0.1;

/// Throughput reported for a set of windows: their 95th percentile, the
/// level that the best 5% of the windows reach.  Stalls from a shared host
/// only ever take throughput away, and they came and went over seconds, so
/// an upper percentile moves less between equal runs than the median over
/// windows (README.md has the figures).
inline constexpr double kQpsPercentile = 0.95;

/// Answered queries per second in each kQpsWindowS window of the loop.
[[nodiscard]] std::vector<double> window_qps(const LoopStats& s);

/// Closed loop over the wire: each connection sends its next batch when
/// the previous one is answered.
[[nodiscard]] LoopStats closed_loop(std::uint16_t port, const BatchedStream& s,
                                    double seconds);

/// Open loop over the wire at a fixed total batch rate, split evenly over
/// the connections; latency is measured from each batch's due time.
[[nodiscard]] LoopStats open_loop(std::uint16_t port, const BatchedStream& s,
                                  double seconds, double batches_per_s);

/// The closed loop without the wire: submitters feed a private
/// QueryServer directly; latency is Ticket::latency_s (queue entry to
/// completion).
[[nodiscard]] LoopStats inproc_loop(
    std::shared_ptr<const gclus::server::QueryEngine> engine,
    const BatchedStream& s, double seconds);

/// Serial execute_query over `queries`, nanoseconds per query.
[[nodiscard]] double serial_ns_per_query(
    const gclus::server::QueryEngine& engine,
    const std::vector<gclus::server::Query>& queries);

/// Serial encode/decode round trip of every batch (query frame out,
/// result frame back), nanoseconds per query; false in `ok` when a frame
/// fails to decode or decodes to something else.
[[nodiscard]] double codec_ns_per_query(const BatchedStream& s, bool& ok);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace perfbench
