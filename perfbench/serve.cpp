#include "serve.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "graph/io.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "query_workload.hpp"

namespace perfbench {

using gclus::StatusOr;
using gclus::server::Query;
using gclus::server::QueryEngine;
using gclus::server::QueryResult;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kZipf = 0.8;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Checks one wire/queue answer against the replay and tallies it.
void tally(const BatchedStream& s, std::size_t batch,
           const std::vector<QueryResult>& results, LoopStats& out) {
  ++out.answered;
  if (digest_results(results) != s.digests[batch]) ++out.mismatched;
}

/// Runs `body(connection_index, stats)` on kConnections threads and merges
/// their stats.
template <class Body>
LoopStats run_connections(Body body) {
  const IdleSpinners spinners;
  std::vector<LoopStats> per(kConnections);
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] { body(c, per[c]); });
  }
  for (std::thread& t : threads) t.join();
  LoopStats out;
  for (const LoopStats& p : per) {
    out.sent += p.sent;
    out.answered += p.answered;
    out.refused += p.refused;
    out.mismatched += p.mismatched;
    out.seconds = std::max(out.seconds, p.seconds);
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    out.at_s.insert(out.at_s.end(), p.at_s.begin(), p.at_s.end());
    out.lag_ms.insert(out.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  return out;
}

}  // namespace

std::uint64_t digest_results(const std::vector<QueryResult>& results) {
  std::uint64_t h = results.size();
  for (const QueryResult& r : results) {
    h = gclus::hash_combine(h, static_cast<std::uint64_t>(r.code), r.value);
  }
  return h;
}

BatchedStream make_stream(const QueryEngine& ref, std::size_t num_batches,
                          std::uint64_t seed) {
  BatchedStream s;
  const std::vector<Query> all = gclus_cli::make_queries(
      ref.num_nodes(), num_batches * kBatchSize, kZipf, seed);
  gclus::server::QueryScratch scratch;
  std::vector<gclus::ClusterId> buf;
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<Query> batch(all.begin() + b * kBatchSize,
                             all.begin() + (b + 1) * kBatchSize);
    std::vector<QueryResult> answers;
    answers.reserve(kBatchSize);
    for (const Query& q : batch) {
      answers.push_back(gclus::server::execute_query(ref, q, scratch, buf));
    }
    s.digests.push_back(digest_results(answers));
    s.batches.push_back(std::move(batch));
    s.answers.push_back(std::move(answers));
  }
  return s;
}

std::uint64_t stream_digest(const BatchedStream& s) {
  std::uint64_t h = 0;
  for (const std::uint64_t d : s.digests) h = gclus::hash_combine(h, d);
  return h;
}

StatusOr<Service> restart_service(const std::string& csr_path,
                                  const std::string& orc_path,
                                  const std::vector<Query>& probe,
                                  std::vector<QueryResult>& probe_results,
                                  RestartTimes& times) {
  const Clock::time_point t0 = Clock::now();
  gclus::io::CsrLoadOptions csr_opts;
  csr_opts.verify = true;
  GCLUS_ASSIGN_OR_RETURN(gclus::Graph g, gclus::io::load_csr(csr_path, csr_opts));
  times.csr_load_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  GCLUS_ASSIGN_OR_RETURN(QueryEngine engine,
                         QueryEngine::load(std::move(g), orc_path));
  times.artifact_load_s = seconds_since(t1);

  Service svc;
  svc.engine = std::make_shared<const QueryEngine>(std::move(engine));
  gclus::server::ServerOptions sopts;
  sopts.workers = kServerWorkers;
  svc.queue = std::make_unique<gclus::server::QueryServer>(svc.engine, sopts);
  GCLUS_ASSIGN_OR_RETURN(svc.net, gclus::net::NetServer::start(*svc.queue));
  GCLUS_ASSIGN_OR_RETURN(gclus::net::Client client,
                         gclus::net::Client::connect(svc.net->port()));
  GCLUS_ASSIGN_OR_RETURN(probe_results, client.submit(probe));
  times.total_s = seconds_since(t0);
  return svc;
}

IdleSpinners::IdleSpinners() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int n =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

void stop_service(Service& svc) {
  svc.net.reset();
  svc.queue.reset();
  svc.engine.reset();
}

LoopStats closed_loop(std::uint16_t port, const BatchedStream& s,
                      double seconds) {
  const Clock::time_point start = Clock::now();
  return run_connections([&](std::size_t c, LoopStats& out) {
    auto client = gclus::net::Client::connect(port);
    if (!client.ok()) {
      ++out.sent;
      ++out.refused;
      return;
    }
    for (std::size_t k = c; seconds_since(start) < seconds;
         k += kConnections) {
      const std::size_t b = k % s.batches.size();
      const Clock::time_point sent = Clock::now();
      ++out.sent;
      auto r = client->submit(s.batches[b]);
      if (!r.ok()) {
        ++out.refused;
        continue;
      }
      const Clock::time_point done = Clock::now();
      out.latency_ms.push_back(ms_between(sent, done));
      out.at_s.push_back(ms_between(start, done) / 1e3);
      tally(s, b, *r, out);
    }
    out.seconds = seconds_since(start);
  });
}

LoopStats open_loop(std::uint16_t port, const BatchedStream& s, double seconds,
                    double batches_per_s) {
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / batches_per_s));
  };
  const Clock::time_point end = due_of(static_cast<std::size_t>(
      std::ceil(seconds * batches_per_s)));
  return run_connections([&](std::size_t c, LoopStats& out) {
    auto client = gclus::net::Client::connect(port);
    if (!client.ok()) {
      ++out.sent;
      ++out.refused;
      return;
    }
    for (std::size_t k = c;; k += kConnections) {
      const Clock::time_point due = due_of(k);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const std::size_t b = k % s.batches.size();
      const Clock::time_point sent = Clock::now();
      ++out.sent;
      auto r = client->submit(s.batches[b]);
      const Clock::time_point done = Clock::now();
      out.lag_ms.push_back(ms_between(due, sent));
      if (!r.ok()) {
        ++out.refused;
        continue;
      }
      out.latency_ms.push_back(ms_between(due, done));
      out.at_s.push_back(ms_between(start, due) / 1e3);
      tally(s, b, *r, out);
    }
    out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  });
}

LoopStats inproc_loop(std::shared_ptr<const QueryEngine> engine,
                      const BatchedStream& s, double seconds) {
  gclus::server::ServerOptions sopts;
  sopts.workers = kServerWorkers;
  gclus::server::QueryServer queue(std::move(engine), sopts);
  const Clock::time_point start = Clock::now();
  LoopStats out = run_connections([&](std::size_t c, LoopStats& st) {
    for (std::size_t k = c; seconds_since(start) < seconds;
         k += kConnections) {
      const std::size_t b = k % s.batches.size();
      ++st.sent;
      auto ticket = queue.submit(s.batches[b]);
      if (!ticket.ok()) {
        ++st.refused;
        continue;
      }
      const std::vector<QueryResult>& r = ticket->wait();
      st.latency_ms.push_back(ticket->latency_s() * 1e3);
      st.at_s.push_back(seconds_since(start));
      tally(s, b, r, st);
    }
    st.seconds = seconds_since(start);
  });
  queue.shutdown();
  return out;
}

double serial_ns_per_query(const QueryEngine& engine,
                           const std::vector<Query>& queries) {
  gclus::server::QueryScratch scratch;
  std::vector<gclus::ClusterId> buf;
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Query& q : queries) {
    sink += gclus::server::execute_query(engine, q, scratch, buf).value;
  }
  const double s = seconds_since(t0);
  // Keep the loop observable so it cannot be elided.
  if (sink == 0x5eed) std::fprintf(stderr, "#");
  return s * 1e9 / static_cast<double>(std::max<std::size_t>(1, queries.size()));
}

double codec_ns_per_query(const BatchedStream& s, bool& ok) {
  ok = true;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    const auto qbytes = gclus::net::encode_query_batch(s.batches[b]);
    auto qf = gclus::net::decode_frame(qbytes.data() + gclus::net::kLenPrefixSize,
                                       qbytes.size() - gclus::net::kLenPrefixSize);
    const auto rbytes = gclus::net::encode_result_batch(s.answers[b]);
    auto rf = gclus::net::decode_frame(rbytes.data() + gclus::net::kLenPrefixSize,
                                       rbytes.size() - gclus::net::kLenPrefixSize);
    if (!qf.ok() || !rf.ok() || rf->results != s.answers[b] ||
        !std::equal(qf->queries.begin(), qf->queries.end(),
                    s.batches[b].begin(), s.batches[b].end(),
                    [](const Query& x, const Query& y) {
                      return x.kind == y.kind && x.u == y.u && x.arg == y.arg;
                    })) {
      ok = false;
    }
  }
  return seconds_since(t0) * 1e9 /
         static_cast<double>(std::max<std::size_t>(1, s.num_queries()));
}

namespace {

/// Splits `s` into whole windows of `window_s` (one shorter window if the
/// loop ran less than that) and returns each window's sample indices.
std::vector<std::vector<std::size_t>> windows_of(const LoopStats& s,
                                                 double& window_s) {
  window_s = std::min(window_s, s.seconds);
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(s.seconds / window_s)));
  std::vector<std::vector<std::size_t>> w(count);
  for (std::size_t i = 0; i < s.at_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(s.at_s[i] / window_s);
    if (k < count) w[k].push_back(i);
  }
  return w;
}

}  // namespace

double windowed_percentile(const LoopStats& s, double q) {
  double window_s = kWindowS;
  std::vector<double> per_window;
  for (const auto& idx : windows_of(s, window_s)) {
    std::vector<double> lat;
    for (const std::size_t i : idx) lat.push_back(s.latency_ms[i]);
    if (!lat.empty()) per_window.push_back(percentile(std::move(lat), q));
  }
  return percentile(std::move(per_window), 0.5);
}

std::vector<double> window_qps(const LoopStats& s) {
  double window_s = kQpsWindowS;
  std::vector<double> per_window;
  for (const auto& idx : windows_of(s, window_s)) {
    per_window.push_back(static_cast<double>(idx.size() * kBatchSize) /
                         window_s);
  }
  return per_window;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
