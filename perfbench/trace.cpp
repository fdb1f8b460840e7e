#include "trace.hpp"

#include <cstdio>

namespace perfbench {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kGraph: return "graph";
    case Layer::kCore: return "core";
    case Layer::kServer: return "server";
    case Layer::kNet: return "net";
    case Layer::kCheck: return "check";
  }
  return "?";
}

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      origin_(std::chrono::steady_clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, int index)
    : tracer_(tracer), index_(index), start_(std::chrono::steady_clock::now()) {}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Record& r = tracer_.records_[static_cast<std::size_t>(index_)];
  r.end_s = seconds_between(tracer_.origin_, std::chrono::steady_clock::now());
  tracer_.open_.pop_back();
}

double Tracer::Scope::elapsed_s() const {
  return seconds_between(start_, std::chrono::steady_clock::now());
}

Tracer::Scope Tracer::span(const char* name, Layer layer) {
  if (!enabled_) return Scope(*this, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(records_.size());
  records_.push_back({name, layer, parent,
                      seconds_between(origin_, std::chrono::steady_clock::now()),
                      -1.0});
  open_.push_back(index);
  return Scope(*this, index);
}

double Tracer::self_time_of(std::size_t index) const {
  const Record& r = records_[index];
  double self = r.end_s - r.start_s;
  // Children start after their parent, so scanning forward finds them all.
  for (std::size_t j = index + 1; j < records_.size(); ++j) {
    if (records_[j].parent == static_cast<int>(index)) {
      self -= records_[j].end_s - records_[j].start_s;
    }
  }
  return self;
}

double Tracer::self_time_s(Layer layer) const {
  double total = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].layer == layer && records_[i].end_s >= 0.0) {
      total += self_time_of(i);
    }
  }
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"run\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"self_s\":%.9f}\n",
                 run_id_.c_str(), i, r.name.c_str(), layer_name(r.layer),
                 r.parent, r.start_s, r.end_s, self_time_of(i));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
