#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file cover_time.hpp
/// The cover-time engine. Tracks which vertices a process has ever
/// activated and runs any VertexProcess until all of the graph is covered
/// (or a step budget runs out). This is the measurement the paper's every
/// theorem is about: cover time = E[min T such that every vertex belonged
/// to some active set S_t, t <= T].

namespace cobra::core {

/// Set-of-covered-vertices tracker, one bit per vertex: O(1) absorb per
/// active vertex from a sorted list, O(n/64) word ORs from a dense
/// frontier's bitmap.
class CoverageTracker {
 public:
  explicit CoverageTracker(std::uint32_t num_vertices);

  /// Mark all of `active` covered; returns how many were newly covered.
  std::uint32_t absorb(std::span<const Vertex> active);

  /// Mark every set bit of `words` (a bitmap over [0, total()) in
  /// Frontier layout: bit v & 63 of word v >> 6, bits past total() clear)
  /// covered; returns how many were newly covered.
  std::uint32_t absorb(std::span<const std::uint64_t> words);

  void reset();

  [[nodiscard]] bool is_covered(Vertex v) const {
    return ((words_[v >> 6] >> (v & 63)) & 1u) != 0;
  }
  [[nodiscard]] std::uint32_t covered_count() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t total() const noexcept { return n_; }
  [[nodiscard]] bool complete() const noexcept { return count_ == total(); }
  [[nodiscard]] double fraction() const noexcept {
    return total() == 0 ? 1.0
                        : static_cast<double>(count_) / static_cast<double>(total());
  }

  /// One 0/1 covered-flag byte per vertex (the checkpoint format).
  [[nodiscard]] std::vector<std::uint8_t> raw() const;

  /// Replace the tracker's contents with previously saved `raw()` bytes
  /// (the byte count is the vertex count; any nonzero byte is covered)
  /// and recount.
  void restore_raw(std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t n_ = 0;
  std::uint32_t count_ = 0;
};

/// Outcome of a cover run.
struct CoverResult {
  std::uint64_t steps = 0;        ///< rounds taken (valid iff covered)
  bool covered = false;           ///< false = step budget exhausted
  std::uint32_t covered_count = 0;  ///< vertices covered when stopping
};

/// Run `process` (already holding its initial active set) until the whole
/// graph is covered or `max_steps` rounds elapse. The initial active set
/// counts as covered at step 0.
template <VertexProcess P>
CoverResult run_to_cover(P& process, Engine& gen, std::uint64_t max_steps) {
  CoverageTracker tracker(process.graph().num_vertices());
  tracker.absorb(process.active());
  CoverResult result;
  while (!tracker.complete() && result.steps < max_steps) {
    process.step(gen);
    ++result.steps;
    tracker.absorb(process.active());
  }
  result.covered = tracker.complete();
  result.covered_count = tracker.covered_count();
  return result;
}

/// Default step budget heuristic: generous multiple of the worst-case
/// bounds so an un-covered run signals a real bug, not tight budgeting.
[[nodiscard]] std::uint64_t default_step_budget(std::uint32_t num_vertices);

/// Convenience one-shots (used everywhere in tests/benches): build the
/// named process on `g` from `start`, run to cover, return the result.
CoverResult cobra_cover(const Graph& g, Vertex start, std::uint32_t branching,
                        Engine& gen, std::uint64_t max_steps = 0);
CoverResult random_walk_cover(const Graph& g, Vertex start, Engine& gen,
                              std::uint64_t max_steps = 0);
CoverResult gossip_push_cover(const Graph& g, Vertex start, Engine& gen,
                              std::uint64_t max_steps = 0);
CoverResult parallel_walks_cover(const Graph& g, Vertex start,
                                 std::uint32_t walkers, Engine& gen,
                                 std::uint64_t max_steps = 0);
CoverResult walt_cover(const Graph& g, Vertex start, std::uint32_t pebbles,
                       bool lazy, Engine& gen, std::uint64_t max_steps = 0);

}  // namespace cobra::core
