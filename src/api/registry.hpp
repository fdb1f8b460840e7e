// The algorithm registry — one string-keyed front door for every
// decomposition algorithm in the library.
//
// Each algorithm registers a uniform adapter
//     Clustering run(const Graph&, const AlgoParams&, RunContext&)
// plus a declared parameter schema, so benches, examples, tests, and any
// future serving endpoint select algorithms and set parameters by name
// (`--algo=cluster2 --tau=64`) instead of linking against a per-algorithm
// options struct and switch statement.  Adapters are thin: they translate
// the string-keyed parameters into the algorithm's native options struct
// (whose RunContext slice is the caller's context, verbatim), so a
// registry run is byte-identical to the corresponding direct call with the
// same seed.
//
// Parameter handling is strict: Registry::try_run validates every supplied
// key against the algorithm's schema and rejects unknown keys, and the
// adapters abort on malformed values — a typo'd "--tua=64" must not
// silently run with the default.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/run_context.hpp"
#include "common/status.hpp"
#include "core/clustering.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"

namespace gclus {

/// Typed declaration of one algorithm parameter.
struct ParamSpec {
  enum class Type { kU32, kU64, kDouble, kBool };

  std::string key;
  Type type = Type::kU32;
  std::string default_value;  // rendered for --list / docs
  std::string help;
};

const char* param_type_name(ParamSpec::Type type);

/// String-keyed parameter bag.  Values are stored as strings (the CLI and
/// config formats they come from) and parsed on access; parse failures
/// abort with the offending key and value.
class AlgoParams {
 public:
  AlgoParams() = default;
  AlgoParams(
      std::initializer_list<std::pair<std::string, std::string>> entries);

  AlgoParams& set(const std::string& key, const std::string& value);
  AlgoParams& set(const std::string& key, std::uint64_t value);
  /// Doubles are rendered with round-trip precision (%.17g), so a value
  /// threaded through the registry equals the one a direct call would see.
  AlgoParams& set(const std::string& key, double value);

  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

struct AlgoInfo {
  std::string name;
  std::string summary;
  std::vector<ParamSpec> params;
  std::function<Clustering(const Graph&, const AlgoParams&, RunContext&)> run;
  /// Native compressed-mode adapter, or null when the algorithm is
  /// instantiated for plain CSR only — Registry::try_run on a
  /// CompressedGraph then decompresses and runs the plain adapter, so
  /// every algorithm accepts either representation with identical output.
  std::function<Clustering(const CompressedGraph&, const AlgoParams&,
                           RunContext&)>
      run_compressed = nullptr;
};

class Registry {
 public:
  /// Registers an algorithm; duplicate names abort.
  void add(AlgoInfo info);

  /// nullptr when `name` is not registered.
  [[nodiscard]] const AlgoInfo* find(const std::string& name) const;

  /// Registered names, ascending.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Validates `params` against the schema of `name` and invokes its
  /// adapter.  Selection errors — unknown algorithm, undeclared parameter
  /// key — come back as kInvalidArgument, so a serving caller can reject
  /// one bad request and keep going.  (Malformed parameter *values* abort
  /// inside the adapter; the schema declares keys, not value grammars.)
  [[nodiscard]] StatusOr<Clustering> try_run(const std::string& name,
                                             const Graph& g,
                                             const AlgoParams& params,
                                             RunContext& ctx) const;

  /// Runs `name` on a compressed graph: natively when the algorithm
  /// registered a compressed adapter, else by decompressing first.  The
  /// result is identical to running on the equivalent plain Graph.
  [[nodiscard]] StatusOr<Clustering> try_run(const std::string& name,
                                             const CompressedGraph& g,
                                             const AlgoParams& params,
                                             RunContext& ctx) const;

 private:
  [[nodiscard]] StatusOr<const AlgoInfo*> select(
      const std::string& name, const AlgoParams& params) const;

  std::map<std::string, AlgoInfo> algos_;
};

/// The process-wide registry, with every built-in decomposition algorithm
/// registered on first use.
Registry& registry();

namespace detail {
/// Defined in algorithms.cpp; referenced from registry() so the
/// registration translation unit can never be dropped by the linker.
void register_builtin_algorithms(Registry& r);
}  // namespace detail

}  // namespace gclus
