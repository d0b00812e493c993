#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

/// \file rules.hpp
/// The determinism & concurrency rule catalog cobra_lint enforces. Every
/// guarantee this reproduction makes — trajectories bit-identical across
/// 1/2/8 threads and sparse/dense representations, schedules that are pure
/// functions of (plan, seed) — is only as strong as the absence of the
/// constructs below, so they are checked statically here instead of
/// waiting for a test or the chaos fuzzer to catch the symptom.
///
/// Rule families (ids are `family-detail`, annotations may name either):
///
///   D1  nondeterminism sources
///       D1-rand           std::rand / srand / random_shuffle anywhere
///       D1-random-device  std::random_device outside src/rng
///       D1-clock          wall/monotonic clock reads outside src/obs and
///                         bench/tools timing code (system_clock and
///                         time()/clock()/localtime are flagged everywhere
///                         in src — wall-clock values are nondeterministic
///                         DATA, not just timing)
///       D1-thread-id      this_thread::get_id / std::thread::id used in
///                         code (a thread id in any computation breaks
///                         run-to-run determinism)
///   D2  iteration-order hazards
///       D2-unordered      std::unordered_{map,set,multimap,multiset}
///                         anywhere in src/ — iteration order is
///                         implementation- and run-dependent; sorted
///                         containers or annotated membership-only sites
///                         are required
///   D3  RNG discipline
///       D3-rng-seed       constructing Engine/Xoshiro256 in src/core from
///                         anything that does not flow through derive_seed
///       D3-thread-key     derive_seed keys mixing in worker/thread
///                         identity (worker, worker_id, thread_id, tid, …)
///                         — a schedule keyed by who ran it is the exact
///                         bug the thread-count-invariance contract bans
///   D4  concurrency hygiene
///       D4-atomic-order   atomic .load()/.store()/.fetch_*()/.exchange()
///                         without an explicit std::memory_order in src/
///                         (seq_cst-by-default hides the author's intent
///                         and costs fences the hot paths cannot afford)
///   D5  layering
///       D5-layering       an #include that climbs the layer diagram in
///                         README (core/ must not include sim/ or bench/,
///                         graph/ must not include gen/, nothing in src/
///                         may include bench/ or tools/, …)
///
/// A finding is suppressed by annotating the offending line (or the line
/// above, as a standalone comment) with
///     // cobra-lint: allow(RULE[,RULE...]) justification text
/// where RULE is a rule id (`D2-unordered`) or family (`D2`). The
/// justification is mandatory; an allow() without one is itself a finding
/// (`lint-annotation`).

namespace cobra::lint {

/// One rule violation (or annotation defect) at a source line.
struct Finding {
  std::string file;     ///< repo-relative path, forward slashes
  std::uint32_t line = 0;  ///< 1-based
  std::string rule;     ///< e.g. "D2-unordered"
  std::string severity = "error";  ///< "error" | "warn"
  std::string message;
  std::string snippet;  ///< the trimmed source line
};

/// Identity of the file being linted; `rel_path` drives the per-directory
/// scoping (src/core vs bench vs …).
struct FileInfo {
  std::string rel_path;
};

/// Layer tier of a repo-relative path under the README layer diagram;
/// higher tiers may include lower ones, never the reverse. Returns -1 for
/// paths outside the diagram (tests/, examples/ — not linted, and their
/// includes of src are unconstrained).
[[nodiscard]] int layer_tier(const std::string& rel_path);

/// Run every rule over one lexed file. `raw_lines` are the original
/// source lines (the code view blanks string bodies, and D5 needs the
/// #include path text). Annotation suppression is NOT applied here —
/// lint.cpp owns that — so rule unit tests see every raw firing.
[[nodiscard]] std::vector<Finding> run_rules(
    const FileInfo& info, const std::vector<std::string>& raw_lines,
    const LexedFile& lexed);

}  // namespace cobra::lint
