#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "gen/families.hpp"
#include "gen/spec.hpp"
#include "graph/graph.hpp"

/// \file registry.hpp
/// The GraphSpec registry: maps family names to generator factories and
/// validates spec keys against each family's declared key set (typos in
/// sweep scripts fail loudly, mirroring io::Args). Benches, examples and
/// test fixtures build random graphs only through it (or through the
/// families.hpp functions it wraps): `build_graph("rreg:n=2^20,d=4,seed=7")`
/// replaces per-binary hand-rolled construction. The deterministic
/// families wrap graph/generators.hpp.
///
/// Shared keys, accepted by every randomized family:
///   seed=<S>   base RNG seed (default 1); the graph is a pure function of
///              (spec, seed), bit-identical across thread counts
///   lcc=<0|1>  keep only the largest connected component (default 0) —
///              walks need min degree >= 1, and sub-critical G(n,p) /
///              geometric / copy-model BA graphs are not always connected

namespace cobra::gen {

struct FamilyInfo {
  std::string name;
  /// One-line usage synopsis for --help output and the docs grammar table,
  /// e.g. "gnp:n=<N>,{p=<P>|avg_deg=<D>}".
  std::string synopsis;
  std::string description;
  /// Every key the family accepts (specs using others are rejected).
  std::vector<std::string> keys;
  std::function<graph::Graph(const GraphSpec&, const GenOptions&)> factory;
};

/// All registered families, sorted by name.
[[nodiscard]] const std::vector<FamilyInfo>& families();

/// Look up one family; nullptr when unknown.
[[nodiscard]] const FamilyInfo* find_family(std::string_view name);

/// Build the graph a spec names. Throws std::invalid_argument on an
/// unknown family, an unknown key, or invalid parameter values.
[[nodiscard]] graph::Graph build_graph(const GraphSpec& spec,
                                       const GenOptions& opts = {});
[[nodiscard]] graph::Graph build_graph(std::string_view spec_text,
                                       const GenOptions& opts = {});

/// The grammar table as aligned text lines (for --help and error output).
[[nodiscard]] std::string grammar_help();

}  // namespace cobra::gen
