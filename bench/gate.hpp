#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

/// \file gate.hpp
/// The regression gate's pure logic, split out of the bench_gate binary so
/// it is unit-testable (same pattern as sweep.hpp / cobra_sweep). The gate
/// diffs a freshly produced bench or merged-sweep JSON ("candidate")
/// against a checked-in baseline (a BENCH_*.json trajectory file) and
/// fails when a numeric record field drifts outside a relative slack.
///
/// Two field classes, because they regress for different reasons:
///
///   * VALUE fields (cover-time means, fitted exponents, ratios, counts)
///     are deterministic or statistically stable across hosts — they are
///     gated by default with a two-sided relative `slack`.
///   * TIMING fields (anything whose name contains per_sec / seconds /
///     speedup / efficiency / throughput / time) depend on the machine du
///     jour (efficiency is speedup per thread) — they are SKIPPED by
///     default and only gated when the caller opts in with a separate
///     `time_slack`, so a checked-in baseline still gates semantics on any
///     host while perf gating stays a deliberate, same-host decision.
///
/// A record or field present in the baseline but missing from the
/// candidate fails the gate (a silently dropped measurement is a
/// regression too); extra candidate records/fields are ignored, so adding
/// a bench case does not require regenerating every baseline.

namespace cobra::bench {

/// Gate thresholds. `slack` is the two-sided relative tolerance for value
/// fields; timing fields are skipped unless `gate_time` is set, in which
/// case `time_slack` applies to them.
struct GateConfig {
  double slack = 0.05;
  double time_slack = 0.0;
  bool gate_time = false;
};

/// One gate failure (or the reason a comparison could not happen).
/// "non-finite" is the hard-mismatch kind for NaN/Inf measurements: a bench
/// JSON renders those as `null`, the gate maps them back to NaN, and ANY
/// comparison touching one fails regardless of slack — NaN compares false
/// with everything, so slack arithmetic alone would wave garbage through.
struct GateIssue {
  std::string record;
  std::string field;  ///< empty for record-level issues
  std::string kind;   ///< "missing-record" | "missing-field" |
                      ///< "exceeds-slack" | "non-finite"
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_delta = 0.0;  ///< |candidate - baseline| / max(|baseline|, eps)
  double allowed = 0.0;    ///< the slack that applied
};

/// Machine-readable verdict; render_gate_report serializes it.
struct GateReport {
  bool pass = true;
  std::size_t records_compared = 0;
  std::size_t fields_compared = 0;
  std::size_t time_fields_skipped = 0;
  std::vector<GateIssue> issues;
};

/// One flattened record: its gate name plus the numeric fields in file
/// order. Sweep-file records are namespaced "bench|spec|tN|record" so the
/// same record name under different cells cannot collide; duplicate names
/// within one file get a "#k" suffix in encounter order.
struct GateRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

/// True when `field` names a machine-dependent timing measurement
/// (case-insensitive substring match on per_sec / seconds / speedup /
/// efficiency / throughput / time).
[[nodiscard]] bool is_timing_field(const std::string& field);

/// Flatten a bench JSON (JsonReporter schema) or a cobra_sweep merged file
/// into gate records. The format is auto-detected: a root "sweep" key
/// means every embedded run's "result" records are extracted under the
/// "bench|spec|tN|" prefix (quarantined failed_runs contribute nothing);
/// otherwise the root's own "records" array is used. Non-numeric fields
/// are ignored. Throws std::invalid_argument on malformed JSON or a root
/// that is neither format.
[[nodiscard]] std::vector<GateRecord> extract_gate_records(
    const std::string& json_text);

/// Diff candidate against baseline under `config`. Throws
/// std::invalid_argument when either input fails extract_gate_records.
[[nodiscard]] GateReport run_gate(const std::string& baseline_text,
                                  const std::string& candidate_text,
                                  const GateConfig& config);

/// The machine-readable report (`bench_gate --report`): config echo,
/// comparison counts, and one entry per issue.
[[nodiscard]] std::string render_gate_report(const GateReport& report,
                                             const GateConfig& config);

}  // namespace cobra::bench
