#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"

/// \file greedy_mis.hpp
/// Parallel randomized greedy MIS — the round-based maximal-independent-set
/// process whose round complexity Fischer & Noever pinned at Θ(log n)
/// ("Tight analysis of parallel randomized greedy MIS", SODA 2018). Every
/// round draws fresh random priorities for the active vertices; a vertex
/// that is a strict local minimum among its active neighbors joins the MIS,
/// and it plus its neighbors leave the active set. The process dies when
/// the active set is empty, at which point the collected set is independent
/// AND maximal by construction.
///
/// This is the library's first genuinely SHRINKING frontier process — the
/// consumer the engine's remove-from-frontier path (`retain`) was built
/// for. One step is two engine rounds over the same chunked vertex-id
/// space with a serial sweep between them:
///
///   1. winner selection  — expand over the active frontier with a sampler
///      that sinks v iff v's priority beats every active neighbor's
///      (priorities are the pure hash derive_seed(round_seed, v), so no
///      generator state is consumed per vertex and the comparison is
///      identical no matter which worker evaluates it);
///   2. removal closure   — a sweep over the winner list zeroing the
///      active flag of each winner and of its neighbors. It needs no
///      engine round: its only output is those flags, and zeroing a flag
///      is idempotent and order-free, so overlapping neighborhoods need no
///      dedup, the result no sort and the sweep no randomness;
///   3. frontier shrink   — retain over the active frontier keeping the
///      vertices whose flag survived, producing the next round's canonical
///      active set.
///
/// One draw of the caller's engine per round seeds the winner round, so a
/// run is a pure function of (graph, engine seed) — bit-identical across
/// 1/2/8 threads and sparse/dense representations, which the property
/// suite pins. Ties between equal priorities break toward the smaller
/// vertex id, keeping the winner predicate a strict total order (with a
/// 64-bit hash per vertex, ties are astronomically rare anyway). After a
/// step the engine's last-round counters describe the retain.
///
/// Models sim::Process: active() is the current active set, extinction ==
/// completion (sim::Extinction stops a Runner at exactly done()).

namespace cobra::core {

class GreedyMIS {
 public:
  /// A greedy-MIS process on `g` with every vertex initially active.
  /// Requires a non-empty graph; self-loops in `g` are ignored by the
  /// winner predicate (a vertex is never its own MIS blocker). The Graph
  /// must outlive the process.
  explicit GreedyMIS(const Graph& g, FrontierOptions opts = {});

  /// Restart with every vertex active and an empty MIS (reuses buffers).
  void reset();

  /// One round: priorities, winners into the MIS, winners + neighbors out
  /// of the active set. No-op once done().
  void step(Engine& gen);

  /// Still-active (undecided) vertices, sorted ascending.
  [[nodiscard]] std::span<const Vertex> active() const {
    return frontier_.vertices();
  }

  /// The active set in its native representation (O(1) size()).
  [[nodiscard]] const Frontier& frontier() const noexcept { return frontier_; }

  /// The independent set collected so far, sorted ascending. Maximal once
  /// done().
  [[nodiscard]] std::span<const Vertex> mis() const noexcept { return mis_; }

  /// Is `v` in the collected set?
  [[nodiscard]] bool in_mis(Vertex v) const noexcept {
    return in_mis_[v] != 0;
  }

  /// True when the active set is empty — the MIS is complete and maximal.
  [[nodiscard]] bool done() const noexcept { return frontier_.empty(); }

  /// Winners of the most recent round (observability).
  [[nodiscard]] std::uint64_t last_winners() const noexcept {
    return last_winners_;
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// The underlying step engine — benches/tests tune its chunking, pool
  /// and threshold through this.
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

 private:
  const Graph* g_;
  FrontierEngine engine_;
  Frontier frontier_;  ///< active (undecided) vertices
  Frontier winners_;   ///< this round's local minima
  Frontier next_;      ///< retain output, swapped into frontier_
  std::vector<std::uint8_t> active_flag_;  ///< == membership in frontier_
  std::vector<std::uint8_t> in_mis_;
  std::vector<Vertex> mis_;  ///< sorted ascending
  std::uint64_t round_ = 0;
  std::uint64_t last_winners_ = 0;
};

}  // namespace cobra::core
