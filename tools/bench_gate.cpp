/// bench_gate — the ROADMAP's regression gate: diff a freshly produced
/// bench JSON (JsonReporter schema) or cobra_sweep merged file against a
/// checked-in baseline (the BENCH_*.json trajectory) and fail when numeric
/// record fields drift outside a relative slack.
///
/// Usage:
///   bench_gate --baseline BENCH_foo.json --candidate fresh.json
///              [--slack 0.05] [--time-slack S] [--report report.json]
///
///   --baseline   the checked-in reference file (bench or sweep format)
///   --candidate  the fresh run to judge (same format auto-detection)
///   --slack      two-sided relative tolerance for value fields
///                (default 0.05)
///   --time-slack opt IN to gating timing fields (names containing
///                per_sec / seconds / speedup / efficiency / throughput /
///                time) at this tolerance; without it they are skipped, so
///                a checked-in baseline gates semantics on any host while
///                perf gating stays a deliberate same-host decision
///   --report     also write the machine-readable verdict JSON here
///
/// Exit codes: 0 = gate passed, 1 = gate FAILED (regression, missing
/// record/field), 2 = usage or input error (unreadable file, malformed
/// JSON, bad flag).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "gate.hpp"
#include "io/args.hpp"

namespace {

using namespace cobra;

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_gate: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double double_flag_or_die(const io::Args& args, const std::string& name,
                          double fallback) {
  try {
    const double value = args.get_double(name, fallback);
    if (value < 0.0) throw std::invalid_argument("negative");
    return value;
  } catch (const std::invalid_argument&) {
    std::cerr << "bench_gate: --" << name << " '" << args.get(name, "")
              << "' is not a non-negative number\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  io::Args args(0, nullptr, {});
  try {
    args = io::Args(argc, argv,
                    {"baseline", "candidate", "slack", "time-slack", "report"});
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_gate: " << e.what()
              << "\nusage: bench_gate --baseline FILE --candidate FILE"
                 " [--slack 0.05] [--time-slack S] [--report FILE]\n";
    return 2;
  }
  if (!args.has("baseline") || !args.has("candidate")) {
    std::cerr << "bench_gate: --baseline and --candidate are required\n";
    return 2;
  }

  bench::GateConfig config;
  config.slack = double_flag_or_die(args, "slack", 0.05);
  if (args.has("time-slack")) {
    config.gate_time = true;
    config.time_slack = double_flag_or_die(args, "time-slack", 0.0);
  }

  const std::string baseline = read_file_or_die(args.get("baseline", ""));
  const std::string candidate = read_file_or_die(args.get("candidate", ""));
  bench::GateReport report;
  try {
    report = bench::run_gate(baseline, candidate, config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_gate: " << e.what() << "\n";
    return 2;
  }

  if (args.has("report")) {
    std::ofstream out(args.get("report", ""));
    out << bench::render_gate_report(report, config);
    out.flush();
    if (!out) {
      std::cerr << "bench_gate: cannot write " << args.get("report", "")
                << "\n";
      return 2;
    }
  }

  for (const auto& issue : report.issues) {
    std::cerr << "bench_gate: " << issue.kind << "  record="
              << issue.record;
    if (!issue.field.empty()) {
      std::cerr << "  field=" << issue.field << "  baseline="
                << issue.baseline << "  candidate=" << issue.candidate
                << "  rel_delta=" << issue.rel_delta << " (allowed "
                << issue.allowed << ")";
    }
    std::cerr << "\n";
  }
  std::cout << "bench_gate: " << (report.pass ? "PASS" : "FAIL") << " ("
            << report.records_compared << " records, "
            << report.fields_compared << " fields compared, "
            << report.time_fields_skipped << " timing fields skipped)\n";
  return report.pass ? 0 : 1;
}
