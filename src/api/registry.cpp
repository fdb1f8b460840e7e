#include "api/registry.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace gclus {

const char* param_type_name(ParamSpec::Type type) {
  switch (type) {
    case ParamSpec::Type::kU32:
      return "u32";
    case ParamSpec::Type::kU64:
      return "u64";
    case ParamSpec::Type::kDouble:
      return "double";
    case ParamSpec::Type::kBool:
      break;
  }
  return "bool";
}

AlgoParams::AlgoParams(
    std::initializer_list<std::pair<std::string, std::string>> entries) {
  for (const auto& [key, value] : entries) set(key, value);
}

AlgoParams& AlgoParams::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
  return *this;
}

AlgoParams& AlgoParams::set(const std::string& key, std::uint64_t value) {
  return set(key, std::to_string(value));
}

AlgoParams& AlgoParams::set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return set(key, std::string(buf));
}

bool AlgoParams::contains(const std::string& key) const {
  return entries_.count(key) != 0;
}

namespace {

std::uint64_t parse_u64_param(const std::string& key,
                              const std::string& value) {
  const StatusOr<std::uint64_t> v = parse_u64(value);
  GCLUS_CHECK(v.ok(), "parameter ", key, ": '", value,
              "' is not an unsigned integer");
  return *v;
}

}  // namespace

std::uint32_t AlgoParams::get_u32(const std::string& key,
                                  std::uint32_t fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::uint64_t v = parse_u64_param(key, it->second);
  GCLUS_CHECK(v <= 0xffffffffULL, "parameter ", key, ": ", it->second,
              " does not fit in 32 bits");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t AlgoParams::get_u64(const std::string& key,
                                  std::uint64_t fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  return parse_u64_param(key, it->second);
}

double AlgoParams::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  GCLUS_CHECK(end != it->second.c_str() && *end == '\0', "parameter ", key,
              ": '", it->second, "' is not a number");
  return v;
}

bool AlgoParams::get_bool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  GCLUS_CHECK(false, "parameter ", key, ": '", v, "' is not a boolean");
  return fallback;
}

void Registry::add(AlgoInfo info) {
  GCLUS_CHECK(!info.name.empty() && info.run != nullptr);
  const auto [it, inserted] = algos_.emplace(info.name, std::move(info));
  GCLUS_CHECK(inserted, "algorithm registered twice: ", it->first);
}

const AlgoInfo* Registry::find(const std::string& name) const {
  const auto it = algos_.find(name);
  return it == algos_.end() ? nullptr : &it->second;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [name, info] : algos_) out.push_back(name);
  return out;
}

/// Selection checks shared by both try_run overloads: resolves the
/// algorithm and rejects undeclared parameter keys.
StatusOr<const AlgoInfo*> Registry::select(const std::string& name,
                                           const AlgoParams& params) const {
  const AlgoInfo* info = find(name);
  if (info == nullptr) {
    std::string known;
    for (const auto& n : names()) known += " " + n;
    return InvalidArgumentError("unknown algorithm '" + name +
                                "'; registered:" + known);
  }
  for (const auto& [key, value] : params.entries()) {
    bool declared = false;
    for (const ParamSpec& spec : info->params) {
      if (spec.key == key) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      std::string known;
      for (const ParamSpec& spec : info->params) known += " " + spec.key;
      return InvalidArgumentError("algorithm '" + name +
                                  "' has no parameter '" + key +
                                  "'; declared:" + known);
    }
  }
  return info;
}

StatusOr<Clustering> Registry::try_run(const std::string& name, const Graph& g,
                                       const AlgoParams& params,
                                       RunContext& ctx) const {
  GCLUS_ASSIGN_OR_RETURN(const AlgoInfo* info, select(name, params));
  return info->run(g, params, ctx);
}

StatusOr<Clustering> Registry::try_run(const std::string& name,
                                       const CompressedGraph& g,
                                       const AlgoParams& params,
                                       RunContext& ctx) const {
  GCLUS_ASSIGN_OR_RETURN(const AlgoInfo* info, select(name, params));
  if (info->run_compressed) return info->run_compressed(g, params, ctx);
  // Plain-CSR-only algorithm: materialize the plain CSR and run the
  // ordinary adapter, which is definitionally output-identical.
  const Graph plain = g.decompress(ctx.pool_or_global());
  return info->run(plain, params, ctx);
}

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    detail::register_builtin_algorithms(*r);
    return r;
  }();
  return *instance;
}

}  // namespace gclus
