#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"

/// \file random_walk.hpp
/// The simple (optionally lazy) random walk — the baseline every theorem is
/// stated against. Feige's bounds put its cover time between Θ(n log n) and
/// Θ(n^3); the benches reproduce both endpoints (complete graph, lollipop).

namespace cobra::core {

class RandomWalk {
 public:
  /// A walk on `g` from `start`. `laziness` is the probability of staying
  /// put in a round (0 = standard walk, 0.5 = the usual lazy walk).
  RandomWalk(const Graph& g, Vertex start, double laziness = 0.0);

  void reset(Vertex start);

  void step(Engine& gen);

  [[nodiscard]] Vertex position() const noexcept { return position_; }

  /// Active set of size one (the walker), for the sim::Process concept.
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return {&position_, 1};
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

 private:
  const Graph* g_;
  Vertex position_;
  double laziness_;
  std::uint64_t round_ = 0;
};

}  // namespace cobra::core
