#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"
#include "util/checkpoint_io.hpp"

/// \file cobra_walk.hpp
/// The k-cobra walk — the paper's central object (§2). At every round each
/// active vertex samples k neighbors independently, uniformly, WITH
/// replacement; the sampled vertices form the next active set (coalescing
/// is implicit: a vertex sampled several times is active once).
///
/// Implementation notes:
///   * Rounds execute on the shared FrontierEngine: the vertex-id space is
///     partitioned into fixed ranges, each range samples from an engine
///     seeded with derive_seed(round_seed, range), and offspring dedup via
///     the engine's epoch stamps (sparse rounds) or bitmap (dense rounds)
///     — in parallel across the thread pool once the frontier is large
///     enough, serially (same chunking, same bits) below that. The active
///     set is held in a dual-representation core::Frontier: on expanders
///     it becomes a bitmap once it reaches Θ(n). `frontier()` exposes it
///     as is — `size()` is always O(1), and the sim:: stop rules read its
///     bitmap words or sorted list directly — while `active()`
///     materializes the sorted vertex list on demand (O(n/64 + |S_t|)
///     after a dense round), for callers that need a span.
///   * One draw of the caller's engine per round seeds the whole round, so
///     a walk remains a pure function of (graph, start, k, engine seed)
///     regardless of thread count or frontier representation.
///   * A round costs O(k |S_t|) neighbor samples (plus O(n / 64) bitmap
///     words when dense) and nothing else.
///   * k = 1 degenerates to the simple random walk, which tests exploit.

namespace cobra::core {

class CobraWalk {
 public:
  /// A k-cobra walk on `g` starting at `start`. Requires k >= 1, a
  /// non-empty graph with min degree >= 1, and start < n. The Graph must
  /// outlive the walk.
  CobraWalk(const Graph& g, Vertex start, std::uint32_t branching = 2);

  /// Restart from a single vertex (reuses buffers).
  void reset(Vertex start);

  /// Restart from an arbitrary set of active vertices (duplicates in
  /// `starts` collapse, matching coalescence).
  void reset(std::span<const Vertex> starts);

  /// Advance one round: every active vertex emits `branching` samples.
  void step(Engine& gen);

  /// Vertices active at the current round (sorted ascending,
  /// duplicate-free). Materializes from the bitmap after dense rounds —
  /// prefer `frontier()` (its O(1) `size()`, `contains()` or bitmap
  /// `words()`) when the list itself is not needed.
  [[nodiscard]] std::span<const Vertex> active() const {
    return frontier_.vertices();
  }

  /// The active set in its native representation (O(1) size()).
  [[nodiscard]] const Frontier& frontier() const noexcept { return frontier_; }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint32_t branching() const noexcept { return k_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// Total neighbor samples drawn since the last reset (k per active vertex
  /// per round) — the work measure reported by the throughput bench.
  [[nodiscard]] std::uint64_t samples_drawn() const noexcept { return samples_; }

  /// The underlying step engine — benches/tests tune its chunking, pool
  /// and threshold through this.
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

  /// Checkpointing (sim::Checkpointable): the evolving state is the round
  /// counter, the sample tally, and the frontier in canonical ascending
  /// order — deliberately representation-free, so a snapshot taken from a
  /// dense round restores through the sparse entry point and re-earns its
  /// representation; by the engine contract that cannot change results.
  void save_state(util::CheckpointWriter& w) const;
  void restore_state(util::CheckpointReader& r);

 private:
  const Graph* g_;
  std::uint32_t k_;
  FrontierEngine engine_;
  NeighborSampler pick_;
  Frontier frontier_;
  Frontier next_;
  std::uint64_t round_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace cobra::core
