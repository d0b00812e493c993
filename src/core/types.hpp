#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

/// \file types.hpp
/// Shared aliases and the neighbour-sampling primitive for the core
/// simulators (the process concept is sim::Process, sim/process.hpp).
///
/// All processes use one concrete engine type (`Engine` = xoshiro256++).
/// Fixing the engine keeps the simulators out-of-line (fast builds, stable
/// ABI) without virtual dispatch in the per-step hot path; cross-RNG
/// validation happens at the statistical level (tests re-run key results
/// under PCG through the generic samplers).

namespace cobra::core {

using Engine = rng::Xoshiro256;
using graph::Graph;
using graph::Vertex;

/// Uniformly random neighbor of `v` — THE primitive operation of every
/// walk in this library. Precondition: degree(v) >= 1.
[[nodiscard]] inline Vertex random_neighbor(const Graph& g, Vertex v, Engine& gen) {
  const auto nbrs = g.neighbors(v);
  return nbrs[static_cast<std::size_t>(rng::uniform_below(gen, nbrs.size()))];
}

}  // namespace cobra::core
