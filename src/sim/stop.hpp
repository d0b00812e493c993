#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"
#include "sim/process.hpp"
#include "util/checkpoint_io.hpp"

/// \file stop.hpp
/// Stop rules for sim::Runner — the "until" half of every experiment
/// ("run until covered / until the target is hit / for T rounds / until
/// extinction"). A stop rule is any type providing
///
///   bool done(const P&)      — required; true ends the run
///   void start(const P&)     — optional; called once with the round-0 state
///   void observe(const P&)   — optional; called after every step
///
/// detected structurally (detail::start_hook & co. below, shared by the
/// Runner and AnyOf: no virtual dispatch, nothing paid for hooks a rule
/// doesn't declare). Rules are plain values the caller owns, so a bench
/// can interrogate them after the run (covered count, hit round, ...).
/// Compose with `any_of(a, b, ...)`.
///
/// Rules whose verdict depends on run HISTORY (not just the current
/// process state) additionally provide save_state/restore_state for the
/// Runner's checkpointing: CoverStop's coverage set, HitTarget's latch,
/// FixedRounds' anchor round. A rule that must check its saved state
/// against the process declares `restore_state(r, p)` instead of
/// `restore_state(r)`. Stateless rules (Extinction, Until) need nothing —
/// restore falls back to start(), at top level and inside AnyOf alike.
///
/// Rules that read the active set every round read it through the
/// process's native `frontier()` when it has one — bitmap words after a
/// dense round, the sorted list after a sparse one — so no round pays for
/// materializing the vertex list. Processes without `frontier()` are read
/// through `active()`.

namespace cobra::sim {

namespace detail {

/// Whether `v` is active: a bit test or binary search on the native
/// frontier when the process exposes one, a scan of `active()` otherwise.
template <Process P>
[[nodiscard]] bool is_active(const P& p, core::Vertex v) {
  if constexpr (requires { p.frontier(); }) {
    return p.frontier().contains(v);
  } else {
    const auto active = p.active();
    return std::find(active.begin(), active.end(), v) != active.end();
  }
}

/// Structural hooks for stop rules and observers, resolved at compile
/// time: a hook the type doesn't declare compiles to nothing. The Runner
/// drives its stop rule and observers through these, and AnyOf its
/// members, so a rule behaves the same at top level and inside AnyOf.
template <typename Hook, Process P>
void start_hook(Hook& h, const P& p) {
  if constexpr (requires { h.start(p); }) h.start(p);
}
template <typename Hook, Process P>
void observe_hook(Hook& h, const P& p) {
  if constexpr (requires { h.observe(p); }) h.observe(p);
}
/// Serialization hooks. A hook without save/restore contributes zero
/// bytes; on restore it falls back to `start(p)` so stateless hooks
/// (Extinction, FixedRounds re-anchored below) come up initialized.
/// `restore_state(r, p)` is preferred over `restore_state(r)`, for hooks
/// that validate their saved state against the process. save/restore must
/// be paired per type or the payload misaligns — caught by the Runner's
/// exhausted() check.
template <typename Hook>
void save_hook(const Hook& h, util::CheckpointWriter& w) {
  if constexpr (requires { h.save_state(w); }) h.save_state(w);
}
template <typename Hook, Process P>
void restore_hook(Hook& h, util::CheckpointReader& r, const P& p) {
  if constexpr (requires { h.restore_state(r, p); }) {
    h.restore_state(r, p);
  } else if constexpr (requires { h.restore_state(r); }) {
    h.restore_state(r);
  } else {
    start_hook(h, p);
  }
}

}  // namespace detail

/// Set-of-covered-vertices tracker, one bit per vertex: O(1) absorb per
/// active vertex from a sorted list, O(n/64) word ORs from a dense
/// frontier's bitmap.
class CoverageTracker {
 public:
  explicit CoverageTracker(std::uint32_t num_vertices);

  /// Mark all of `active` covered; returns how many were newly covered.
  std::uint32_t absorb(std::span<const core::Vertex> active);

  /// Mark every set bit of `words` (a bitmap over [0, total()) in
  /// Frontier layout: bit v & 63 of word v >> 6, bits past total() clear)
  /// covered; returns how many were newly covered.
  std::uint32_t absorb(std::span<const std::uint64_t> words);

  void reset();

  [[nodiscard]] bool is_covered(core::Vertex v) const {
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

/// Stop when every vertex of the graph has been active at least once —
/// the paper's cover time. Owns the CoverageTracker (sized lazily from
/// `p.n()` at start, so one rule value works for any process). Each round
/// ORs a dense frontier's bitmap words into the tracker, or marks a sparse
/// frontier's sorted list.
class CoverStop {
 public:
  template <Process P>
  void start(const P& p) {
    tracker_.emplace(static_cast<std::uint32_t>(p.n()));
    absorb(p);
  }

  template <Process P>
  void observe(const P& p) {
    absorb(p);
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const {
    return tracker_->complete();
  }

  [[nodiscard]] std::uint32_t covered_count() const {
    return tracker_ ? tracker_->covered_count() : 0;
  }
  [[nodiscard]] bool complete() const {
    return tracker_ && tracker_->complete();
  }
  [[nodiscard]] double fraction() const {
    return tracker_ ? tracker_->fraction() : 0.0;
  }

  /// Coverage is history, not derivable from the frontier — it must ride
  /// in every snapshot, as one 0/1 byte per vertex. Restore rejects a
  /// byte count other than `p.n()` (a snapshot of a different graph) and
  /// any other byte value with util::CheckpointError.
  void save_state(util::CheckpointWriter& w) const {
    w.u8(tracker_.has_value() ? 1 : 0);
    if (tracker_) w.bytes(tracker_->raw());
  }
  template <Process P>
  void restore_state(util::CheckpointReader& r, const P& p) {
    if (r.u8() == 0) {
      tracker_.reset();
      return;
    }
    const std::vector<std::uint8_t> raw = r.bytes();
    if (raw.size() != static_cast<std::size_t>(p.n())) {
      throw util::CheckpointError(
          "CoverStop coverage: " + std::to_string(raw.size()) +
          " vertices in snapshot, process has " + std::to_string(p.n()));
    }
    if (std::any_of(raw.begin(), raw.end(),
                    [](std::uint8_t b) { return b > 1; })) {
      throw util::CheckpointError("CoverStop coverage: flag byte not 0/1");
    }
    tracker_.emplace(static_cast<std::uint32_t>(raw.size()));
    tracker_->restore_raw(raw);
  }

 private:
  template <Process P>
  void absorb(const P& p) {
    if constexpr (requires { p.frontier(); }) {
      // Dense: OR the bitmap even when a caller has already cached the
      // list — one sequential pass over n/64 words instead of a random
      // access per active vertex. Sparse: vertices() is the list itself.
      const core::Frontier& f = p.frontier();
      if (f.dense()) {
        tracker_->absorb(f.words());
      } else {
        tracker_->absorb(f.vertices());
      }
    } else {
      tracker_->absorb(p.active());
    }
  }

  std::optional<CoverageTracker> tracker_;
};

/// Stop when `target` first appears in the active set (a target active at
/// round 0 stops immediately with 0 rounds — the hitting-time convention).
class HitTarget {
 public:
  explicit HitTarget(core::Vertex target) : target_(target) {}

  template <Process P>
  void start(const P& p) {
    hit_ = false;
    scan(p);
  }

  template <Process P>
  void observe(const P& p) {
    if (!hit_) scan(p);
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return hit_;
  }

  [[nodiscard]] core::Vertex target() const noexcept { return target_; }
  [[nodiscard]] bool hit() const noexcept { return hit_; }

  /// The latch is history (the target may have left the active set since).
  void save_state(util::CheckpointWriter& w) const { w.u8(hit_ ? 1 : 0); }
  void restore_state(util::CheckpointReader& r) { hit_ = r.u8() != 0; }

 private:
  template <Process P>
  void scan(const P& p) {
    hit_ = detail::is_active(p, target_);
  }

  core::Vertex target_;
  bool hit_ = false;
};

/// Stop after exactly `rounds` steps (counted from the start of THIS run,
/// not from the process's construction) — the fixed-horizon schedule of
/// growth-curve and occupancy measurements.
class FixedRounds {
 public:
  explicit FixedRounds(std::uint64_t rounds) : rounds_(rounds) {}

  template <Process P>
  void start(const P& p) {
    start_round_ = p.round();
  }

  template <Process P>
  [[nodiscard]] bool done(const P& p) const noexcept {
    return p.round() - start_round_ >= rounds_;
  }

  /// Without the anchor, a resumed run would re-anchor at the snapshot
  /// round and run `rounds_` MORE steps instead of finishing the horizon.
  void save_state(util::CheckpointWriter& w) const { w.u64(start_round_); }
  void restore_state(util::CheckpointReader& r) { start_round_ = r.u64(); }

 private:
  std::uint64_t rounds_;
  std::uint64_t start_round_ = 0;
};

/// Stop after `excursions` completed returns to `home`: an excursion ends
/// at every round (>= 1) in which home is active — a process that holds
/// still at home completes length-1 excursions, the E_v[T_v+] convention
/// (the round-0 state never counts). Total rounds / completed() is the
/// stationary-ratio return-time estimator of Theorem 15 / Corollary 17;
/// the metropolis_return bench runs it through sim::Runner and the
/// crosscheck suite pins it step-for-step against
/// MetropolisWalk::measure_return_time's internal accounting.
class ExcursionStop {
 public:
  ExcursionStop(core::Vertex home, std::uint64_t excursions)
      : home_(home), target_(excursions) {}

  template <Process P>
  void start(const P&) {
    completed_ = 0;
  }

  template <Process P>
  void observe(const P& p) {
    if (detail::is_active(p, home_)) ++completed_;
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return completed_ >= target_;
  }

  [[nodiscard]] core::Vertex home() const noexcept { return home_; }
  [[nodiscard]] std::uint64_t target() const noexcept { return target_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// The tally is history (home may have left the active set since).
  void save_state(util::CheckpointWriter& w) const { w.u64(completed_); }
  void restore_state(util::CheckpointReader& r) { completed_ = r.u64(); }

 private:
  core::Vertex home_;
  std::uint64_t target_;
  std::uint64_t completed_ = 0;
};

/// Stop when the active set is empty — extinction, reachable only for
/// processes that can lose their whole population (faulty branching
/// schedules, coalescing walks never reach 0). O(1) per round via
/// active_size.
class Extinction {
 public:
  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return active_size(p) == 0;
  }
};

/// Stop when `fn(process)` holds — the escape hatch for process-specific
/// conditions (SIS "everyone exposed", walker count thresholds, ...).
template <typename F>
class Until {
 public:
  explicit Until(F fn) : fn_(std::move(fn)) {}

  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return fn_(p);
  }

 private:
  F fn_;
};

template <typename F>
[[nodiscard]] Until<F> until(F fn) {
  return Until<F>(std::move(fn));
}

/// Disjunction of stop rules, held by reference: the run ends when ANY
/// member rule fires, and the caller can still interrogate each rule
/// afterwards (e.g. CoverStop::complete() distinguishes "covered" from
/// "went extinct first"). Members are driven through the detail:: hooks,
/// exactly as the Runner drives a top-level rule.
template <typename... Rules>
class AnyOf {
 public:
  explicit AnyOf(Rules&... rules) : rules_(rules...) {}

  template <Process P>
  void start(const P& p) {
    std::apply([&](Rules&... r) { (detail::start_hook(r, p), ...); }, rules_);
  }

  template <Process P>
  void observe(const P& p) {
    std::apply([&](Rules&... r) { (detail::observe_hook(r, p), ...); },
               rules_);
  }

  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return std::apply([&](const Rules&... r) { return (r.done(p) || ...); },
                      rules_);
  }

  /// Checkpoint pass-through: members serialize in pack order, stateless
  /// members contribute zero bytes and are re-started on restore.
  void save_state(util::CheckpointWriter& w) const {
    std::apply([&](const Rules&... r) { (detail::save_hook(r, w), ...); },
               rules_);
  }
  template <Process P>
  void restore_state(util::CheckpointReader& rd, const P& p) {
    std::apply([&](Rules&... r) { (detail::restore_hook(r, rd, p), ...); },
               rules_);
  }

 private:
  std::tuple<Rules&...> rules_;
};

template <typename... Rules>
[[nodiscard]] AnyOf<Rules...> any_of(Rules&... rules) {
  return AnyOf<Rules...>(rules...);
}

}  // namespace cobra::sim
