#pragma once

/// \file harness.hpp
/// The bench-harness library. Every binary under bench/ is one experiment
/// (the repo's equivalent of the paper's tables/figures — the paper itself
/// is theory-only, so each table validates one theorem's *shape*: growth
/// exponent, bounded ratio, or ordering). The harness owns everything that
/// is not the experiment itself:
///
///   * the shared CLI (`--graph/--out/--smoke/--threads` + bench-specific
///     flags) via io::Args,
///   * suite construction: a bench declares (name, spec[, smoke_spec])
///     cases and the harness resolves them against `--graph`/`--smoke` and
///     builds every graph through the gen registry — one construction path
///     for benches, examples, and tests,
///   * the aligned io::Table printer and the Monte-Carlo `measure` helper,
///   * JSON reporting (`JsonReporter`, wired to `--out` by
///     `Harness::finish`), which records the `BENCH_*.json` trajectory.
///
/// A bench therefore declares its suite + measure lambdas and nothing
/// else. See EXPERIMENTS.md for the theorem -> bench map and the recorded
/// results.

#include <cstdint>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "gen/registry.hpp"
#include "graph/graph.hpp"
#include "io/args.hpp"
#include "io/graph_flag.hpp"
#include "io/table.hpp"
#include "parallel/monte_carlo.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

namespace cobra::bench {

/// Shared bench flags. Every bench accepts:
///   --graph <spec>    construct the benched graph through the gen registry
///                     (replaces the declared suite with that one case).
///                     NOT every bench is graph-driven — a bench whose
///                     measurement ignores --graph declares that in its
///                     BenchCaps (see below) instead of every sweep script
///                     keeping a skip list
///   --out <path>      JSON output path (the BENCH_*.json trajectory)
///   --smoke           tiny sizes / few trials — the CI bit-rot guard; must
///                     finish in seconds and exercise the full code path
///   --threads <N>     worker count of the global pool (0 = hardware)
///   --metrics <path>  write a metrics-registry snapshot (counters/gauges/
///                     timers + the run manifest) as JSON on finish()
///   --trace <path>    stream one JSONL line per FrontierEngine round
///                     (see src/obs/trace.hpp for the schema)
///   --caps            print one machine-readable capability line and exit
///                     0 (what cobra_sweep queries before sweeping)
/// Bench-specific flags ride in `extra`. This variant throws
/// std::invalid_argument on a malformed flag or a positional argument —
/// the unit-testable path; mains use parse_bench_args below.
io::Args parse_bench_args_checked(int argc, const char* const* argv,
                                  std::vector<std::string> extra = {});

/// Per-bench capability metadata. The one consumer today is the sweep
/// driver: `cobra_sweep` asks each bench `--caps` and skips spec sweeps
/// over benches whose --graph does not drive the measurement (grid_drift
/// walks the Z^d chain directly; pair_collision's exact D(GxG) tables keep
/// tiny built-ins), replacing the hardcoded skip list such scripts used to
/// need.
struct BenchCaps {
  enum class Graph {
    Effective,  ///< --graph selects the benched graph (the default)
    Partial,    ///< --graph drives only part of the tables
    NoOp,       ///< --graph is accepted (shared CLI) but has no effect
  };
  Graph graph = Graph::Effective;
};

/// The `--caps` line: "bench-caps: graph=yes|partial|no flags=<csv>".
[[nodiscard]] std::string render_caps(const BenchCaps& caps,
                                      const std::vector<std::string>& extra);

/// Parse the graph capability back out of a `--caps` line (the sweep
/// driver's side); defaults to Effective when the token is absent (old
/// binaries).
[[nodiscard]] BenchCaps::Graph parse_caps_graph(const std::string& caps_line);

/// CLI twin of parse_bench_args_checked: on error prints the message plus
/// the GraphSpec grammar and exits 1 (a typo'd sweep script fails with
/// usage text), on `--caps` prints render_caps(caps, extra) and exits 0,
/// and on success applies --threads to the global pool.
io::Args parse_bench_args(int argc, const char* const* argv,
                          std::vector<std::string> extra = {},
                          const BenchCaps& caps = {});

/// Build --graph (or the fallback spec) through the registry, exiting with
/// the grammar table on a bad spec (same contract as parse_bench_args).
graph::Graph bench_graph(const io::Args& args, const std::string& fallback_spec);

/// Machine-readable twin of the console tables: collects flat records and
/// writes one BENCH_<name>.json file. This is how the perf trajectory is
/// recorded across PRs — each bench that matters appends its numbers here
/// so later optimization work has a baseline to beat (EXPERIMENTS.md holds
/// the human-readable commentary).
///
/// Schema:
///   {
///     "benchmark": "<name>",
///     "context": { "<key>": <string|number>, ... },
///     "records": [ { "name": "...", "<field>": <number|string>, ... } ]
///   }
class JsonReporter {
 public:
  /// `benchmark` names the suite; the file is written by `write(path)`.
  explicit JsonReporter(std::string benchmark);

  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);

  /// Start a record; fill it with the returned handle.
  class Record {
   public:
    Record& field(const std::string& key, double value);
    Record& field(const std::string& key, const std::string& value);

   private:
    friend class JsonReporter;
    explicit Record(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// The returned reference stays valid for the reporter's lifetime
  /// (records live in a deque), so handles may be kept across later
  /// record() calls.
  Record& record(std::string name);

  /// Serialize to `path`; reports and returns failure instead of silently
  /// losing the baseline file.
  bool write(const std::string& path) const;

  [[nodiscard]] std::string render() const;

  /// RFC 8259 string escaping (quotes, backslashes, control chars) —
  /// public because the sweep merger embeds strings in JSON too and must
  /// not re-implement a weaker version.
  static std::string quote(const std::string& s);

 private:
  static std::string number(double value);

  std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::deque<Record> records_;  // stable references across record() calls
};

/// Pretty "mean +- ci" cell.
std::string mean_ci(const stats::Summary& s, int precision = 1);

/// Print a fitted exponent line under a sweep table.
void print_fit(const std::string& label, const stats::PowerLawFit& fit,
               const std::string& expectation);

void print_header(const std::string& experiment_id, const std::string& claim);

/// One declared experiment case: a display name plus the registry spec
/// that builds its graph, with an optional smaller spec used under
/// --smoke (empty: the full spec is cheap enough to reuse). Declaring a
/// vector of these is all a bench does; resolution and construction are
/// the harness's job.
struct SuiteCase {
  std::string name;
  std::string spec;
  std::string smoke_spec = {};
};

/// A resolved-and-built case as handed back to the bench's measure loop.
struct BuiltCase {
  std::string name;
  std::string spec;  // the spec that was actually built
  graph::Graph graph;
};

/// Pure resolution step (unit-tested): `--graph <spec>` collapses the
/// declared suite to that single case (named by the spec); otherwise
/// --smoke substitutes each case's smoke_spec where one is declared.
[[nodiscard]] std::vector<SuiteCase> resolve_suite(const io::Args& args,
                                                   bool smoke,
                                                   std::vector<SuiteCase> cases);

/// Per-bench driver object: owns the parsed flags and the JsonReporter,
/// resolves declared suites, and wires --out on exit. Typical main:
///
///   bench::Harness h("tree_cover",
///                    bench::parse_bench_args(argc, argv, {"trials"}));
///   const auto trials = h.trials(/*full=*/40, /*smoke=*/6);
///   bench::print_header("E9", "claim...");
///   for (const auto& c : h.suite({{"binary tree", "tree:levels=8"}})) {
///     ... measure on c.graph, add table rows, h.json().record(...) ...
///   }
///   return h.finish();
class Harness {
 public:
  /// `json_name` names the JSON suite ("benchmark" field); `args` comes
  /// from parse_bench_args[_checked]. Records --smoke / --graph / the pool
  /// size into the JSON context so a BENCH_*.json is self-describing.
  Harness(std::string json_name, io::Args args);

  [[nodiscard]] const io::Args& args() const noexcept { return args_; }
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// True when --graph overrides the declared suite.
  [[nodiscard]] bool has_graph() const { return args_.has(io::kGraphFlag); }

  /// Trial count: --trials when given, else the mode's default.
  [[nodiscard]] std::uint32_t trials(std::uint32_t full_default,
                                     std::uint32_t smoke_default) const;

  /// Resolve the declared suite (resolve_suite) and build every graph
  /// through the registry. Exits 1 with the registry's message on a bad
  /// --graph spec (CLI contract, like bench_graph). The --graph override
  /// graph is built once and copied into later calls, so multi-table
  /// benches don't regenerate a large spec graph per table.
  [[nodiscard]] std::vector<BuiltCase> suite(std::vector<SuiteCase> cases) const;

  [[nodiscard]] JsonReporter& json() noexcept { return json_; }

  /// Write --out (when requested) and return the process exit code.
  [[nodiscard]] int finish();

 private:
  io::Args args_;
  bool smoke_;
  JsonReporter json_;
  /// Cache for the --graph override build (suite() is called per table).
  mutable std::shared_ptr<const graph::Graph> override_graph_;
};

}  // namespace cobra::bench
