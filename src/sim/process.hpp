#pragma once

#include <cstdint>
#include <span>

#include "core/grid_drift.hpp"
#include "core/types.hpp"

/// \file process.hpp
/// The `sim::Process` concept — the one shape every experiment in this
/// repo instantiates: "advance a discrete-time vertex process one round at
/// a time, reading its active set". The paper's cobra walk, its §4 Walt
/// surrogate, the §1.2 gossip/parallel-walk baselines, the §5 biased and
/// Metropolis walks, and the SIS reading all model it, which is what lets
/// ONE driver (`sim::Runner`) replace the per-process step loops the
/// benches and examples used to hand-roll.
///
/// Requirements:
///   * `step(Engine&)`   — advance one round (any return type; SIS returns
///                         its round record, GridDrift its step event);
///   * `active()`        — the current active set as a vertex span
///                         (singleton for single-walker processes);
///   * `round()`         — rounds since construction/reset;
///   * `n()`             — the state-space size: number of graph vertices
///                         (what "cover" and first-visit arrays range over).
/// `reset(...)` is deliberately NOT part of the concept: restart signatures
/// differ per process (single start vertex, start span, pebble budget), and
/// the Runner never restarts a process — replicated experiments construct a
/// fresh process per trial inside a `sim::replicate` trial.
///
/// Processes that maintain a dual-representation core::Frontier also expose
/// `frontier()`, holding exactly the `active()` set. Stop rules and
/// observers read through it instead of `active()`, so they never pay for
/// materializing the sorted vertex list after a dense round:
/// `active_size()` below takes its O(1) `size()`, CoverStop ORs its bitmap
/// words into the coverage set, and HitTarget / ExcursionStop test
/// membership with a bit test or binary search.

namespace cobra::sim {

template <typename P>
concept Process = requires(P p, const P cp, core::Engine& gen) {
  p.step(gen);
  { cp.active() } -> std::convertible_to<std::span<const core::Vertex>>;
  { cp.round() } -> std::convertible_to<std::uint64_t>;
  { cp.n() } -> std::convertible_to<std::uint32_t>;
};

/// |active set| without materializing it: O(1) via the native frontier
/// when the process exposes one, `active().size()` otherwise.
template <typename P>
[[nodiscard]] std::size_t active_size(const P& p) {
  if constexpr (requires { p.frontier().size(); }) {
    return p.frontier().size();
  } else {
    return p.active().size();
  }
}

/// The §3 grid-drift coupling as a sim:: process. GridDriftWalk is a chain
/// on per-dimension distances, not on graph vertices, so the adapter maps
/// its state to the scalar total distance: `active()` is the singleton
/// {total distance} and `n()` is the largest reachable total + 1. Under
/// that reading, `HitTarget(0)` is exactly `run_to_origin`, and the drift
/// bench's Lemma 5 measurement becomes a stock Runner call.
class GridDriftProcess {
 public:
  GridDriftProcess(std::uint32_t dimensions, std::uint32_t distance,
                   std::uint32_t extent)
      : walk_(dimensions, distance, extent),
        n_(dimensions * extent + 1),
        state_(clamped_distance()) {}

  void step(core::Engine& gen) {
    walk_.step(gen);
    state_ = clamped_distance();
  }

  [[nodiscard]] std::span<const core::Vertex> active() const noexcept {
    return {&state_, 1};
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return walk_.round(); }
  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

  /// The wrapped chain, for per-dimension queries (distances, events).
  [[nodiscard]] core::GridDriftWalk& walk() noexcept { return walk_; }
  [[nodiscard]] const core::GridDriftWalk& walk() const noexcept {
    return walk_;
  }

 private:
  [[nodiscard]] core::Vertex clamped_distance() const noexcept {
    const std::uint64_t total = walk_.total_distance();
    return static_cast<core::Vertex>(
        total < n_ ? total : static_cast<std::uint64_t>(n_) - 1);
  }

  core::GridDriftWalk walk_;
  std::uint32_t n_;
  core::Vertex state_;  ///< cached total distance (span target)
};

}  // namespace cobra::sim
