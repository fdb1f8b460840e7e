#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/check.hpp"
#include "graph/generators.hpp"

namespace gclus::bench {

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(const std::string& key, Json v) {
  GCLUS_CHECK(kind_ == Kind::kObject, "Json::set on a non-object");
  members_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return set(key, std::move(j));
}

Json& Json::set(const std::string& key, std::uint64_t v) {
  Json j;
  j.kind_ = Kind::kInteger;
  j.integer_ = v;
  return set(key, std::move(j));
}

Json& Json::set(const std::string& key, const std::string& v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = v;
  return set(key, std::move(j));
}

Json& Json::set(const std::string& key, const char* v) {
  return set(key, std::string(v));
}

Json& Json::set(const std::string& key, bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return set(key, std::move(j));
}

Json& Json::push(Json v) {
  GCLUS_CHECK(kind_ == Kind::kArray, "Json::push on a non-array");
  elements_.push_back(std::move(v));
  return *this;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out, int depth) const {
  const std::string indent(2 * (depth + 1), ' ');
  const std::string closing_indent(2 * depth, ' ');
  switch (kind_) {
    case Kind::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", number_);
      out += buf;
      break;
    }
    case Kind::kInteger:
      out += std::to_string(integer_);
      break;
    case Kind::kString:
      append_escaped(out, string_);
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kArray:
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        out += indent;
        elements_[i].dump_to(out, depth + 1);
        if (i + 1 < elements_.size()) out += ',';
        out += '\n';
      }
      out += closing_indent + "]";
      break;
    case Kind::kObject:
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += indent;
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += '\n';
      }
      out += closing_indent + "}";
      break;
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

void write_json_file(const std::string& path, const Json& root) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  GCLUS_CHECK(f != nullptr, "cannot open ", path, " for writing");
  const std::string text = root.dump();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int newline_ok = std::fputc('\n', f);
  GCLUS_CHECK(written == text.size() && newline_ok != EOF,
              "short write to ", path);
  GCLUS_CHECK(std::fclose(f) == 0, "close failed for ", path);
}

const BenchDataset& load_bench_dataset(const std::string& name) {
  static std::map<std::string, BenchDataset> cache;
  static std::mutex mu;
  std::lock_guard lock(mu);
  auto it = cache.find(name);
  if (it == cache.end()) {
    BenchDataset d;
    d.dataset = workloads::load_dataset(name);
    d.diameter = exact_diameter(d.dataset.graph).diameter;
    it = cache.emplace(name, std::move(d)).first;
  }
  return it->second;
}

std::vector<const BenchDataset*> all_bench_datasets() {
  std::vector<const BenchDataset*> out;
  for (const auto& name : workloads::dataset_names()) {
    out.push_back(&load_bench_dataset(name));
  }
  return out;
}

Graph cached_expander(NodeId n, unsigned degree, std::uint64_t seed) {
  const std::string key = "expander-n" + std::to_string(n) + "-d" +
                          std::to_string(degree) + "-s" +
                          std::to_string(seed);
  return workloads::cached_graph(
      key, [&] { return gen::expander(n, degree, seed); });
}

double round_latency_s() {
  static const double latency = [] {
    if (const char* env = std::getenv("GCLUS_ROUND_LATENCY")) {
      const double v = std::strtod(env, nullptr);
      if (v >= 0.0) return v;
    }
    return 0.3;
  }();
  return latency;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(const std::string& title,
                         const std::string& caption) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title.c_str());
  if (!caption.empty()) std::printf("%s\n", caption.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = headers_.size() - 1;
  for (const std::size_t w : width) total += w + 2;
  std::string rule(total, '-');
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

Clustering run_registry(const std::string& algo, const Graph& g,
                        const AlgoParams& params, RunContext ctx) {
  return registry().try_run(algo, g, params, ctx).value();
}

std::uint32_t tau_for_target_clusters(const Graph& g, double target_clusters) {
  const double logn =
      std::max(1.0, std::log2(static_cast<double>(g.num_nodes())));
  // Empirically CLUSTER returns ~4·τ·log n · (few waves) clusters; the
  // log²n theory constant overshoots at these scales, so divide by
  // 8·log n which lands near the target across the registry.
  const double tau = target_clusters / (8.0 * logn);
  return static_cast<std::uint32_t>(std::max(1.0, std::round(tau)));
}

}  // namespace gclus::bench
