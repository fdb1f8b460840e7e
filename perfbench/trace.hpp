// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library module, never inside the library, so a traced run executes the
// same library code as an untraced one.  Every span carries the module
// ("layer") whose public call it wraps; a layer's self time is the sum
// over its spans of the span's duration minus the time its child spans
// cover.  Spans are opened and closed on the driver thread only, so they
// nest strictly and need no locking; the file is written once, when the
// run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which part of the program a span's call goes into.  kBench is the
/// benchmark's own glue (stage wrappers), kCheck its correctness checks.
enum class Layer : std::uint8_t { kBench, kGraph, kCore, kServer, kNet, kCheck };

[[nodiscard]] const char* layer_name(Layer layer);

class Tracer {
 public:
  /// A disabled tracer records nothing and Scope costs one branch.
  Tracer(bool enabled, std::string run_id);

  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened (valid whether or not tracing is on).
    [[nodiscard]] double elapsed_s() const;

   private:
    friend class Tracer;
    Scope(Tracer& tracer, int index);
    Tracer& tracer_;
    int index_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Opens a span that closes when the returned Scope is destroyed.
  [[nodiscard]] Scope span(const char* name, Layer layer);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Self time summed over every closed span of `layer`.
  [[nodiscard]] double self_time_s(Layer layer) const;
  /// Writes one JSON object per span: run id, index, name, layer,
  /// parent index (-1 for roots), start and end in seconds since the
  /// tracer was created, and self time.  Returns false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    Layer layer;
    int parent;
    double start_s;
    double end_s;
  };
  [[nodiscard]] double self_time_of(std::size_t index) const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
