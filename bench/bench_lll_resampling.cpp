/// A12 — related-work process zoo (§1.2's MPC/LLL neighborhood): parallel
/// Moser–Tardos resampling for random k-SAT, run as a violated-clause
/// frontier process (constructive Lovász Local Lemma, Moser & Tardos
/// JACM 2010; round-compressed variants in Harris & Srinivasan). Tables:
///   1. sweep of instance size at fixed clause density m/n: rounds to
///      all-satisfied, witness length (total resampled clauses), and
///      variable redraws, with a power-law fit of witness length vs m —
///      Moser–Tardos bounds expected resamples LINEARLY in m under the
///      LLL condition, so the exponent should sit near 1;
///   2. density ladder at fixed n: how rounds/witness grow as m/n climbs
///      toward the k-SAT threshold region.
///
/// Usage: bench_lll_resampling [--trials T] [--k K] [--out path] [--smoke]
///        [--threads N] [--caps] [--metrics path] [--trace path]
///   The measured object is a random constraint system, not a graph, so
///   --graph is accepted (shared CLI) but has no effect and the bench
///   declares `graph=no` in its --caps metadata (like grid_drift's Z^d
///   chain). --smoke shrinks sizes and trial counts for CI.

#include <string>
#include <vector>

#include "harness.hpp"

#include "core/lll_resampler.hpp"
#include "rng/splitmix64.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

struct MtRun {
  double rounds = 0.0;
  double witness = 0.0;
  double resamples = 0.0;
  bool satisfied = false;
};

MtRun run_once(const gen::ClauseSystem& sys, const graph::Graph& deps,
               std::uint64_t init_seed, core::Engine& gen) {
  core::LLLResampler mt(sys, deps, init_seed);
  auto stop = sim::until(
      [](const core::LLLResampler& p) { return p.satisfied(); });
  const auto run = sim::Runner(std::uint64_t{1} << 20).run(mt, gen, stop);
  return {static_cast<double>(run.rounds),
          static_cast<double>(mt.witness().size()),
          static_cast<double>(mt.var_resamples()), mt.satisfied()};
}

void size_sweep(bench::Harness& h, bool smoke, std::uint32_t trials,
                std::uint32_t k) {
  std::cout << "1) size sweep at density m/n = 1.5 (k = " << k << ")\n";
  io::Table table({"vars", "clauses", "rounds", "witness", "var redraws",
                   "all satisfied"});
  std::vector<double> ms, witnesses;
  for (const std::uint32_t p : smoke ? std::vector<std::uint32_t>{7, 8, 9}
                                     : std::vector<std::uint32_t>{8, 10, 12,
                                                                  14, 16}) {
    const auto n = std::uint32_t{1} << p;
    const auto m = n + n / 2;
    const auto sys = gen::random_ksat(n, m, k, 0xA12000 + p);
    const graph::Graph deps = gen::dependency_graph(sys);
    bool all_satisfied = true;
    std::vector<double> rounds, witness, resamples;
    for (std::uint32_t t = 0; t < trials; ++t) {
      core::Engine gen(rng::derive_seed(0xA12100 + p, t));
      const auto run = run_once(sys, deps, /*init_seed=*/0xA12200 + t, gen);
      rounds.push_back(run.rounds);
      witness.push_back(run.witness);
      resamples.push_back(run.resamples);
      all_satisfied = all_satisfied && run.satisfied;
    }
    const auto rounds_s = stats::summarize(rounds);
    const auto witness_s = stats::summarize(witness);
    const auto resamples_s = stats::summarize(resamples);
    table.add_row({io::Table::fmt_int(n), io::Table::fmt_int(m),
                   bench::mean_ci(rounds_s, 2), bench::mean_ci(witness_s, 1),
                   bench::mean_ci(resamples_s, 1),
                   all_satisfied ? "yes" : "NO"});
    ms.push_back(static_cast<double>(m));
    witnesses.push_back(witness_s.mean);
    h.json()
        .record("size/n" + std::to_string(n))
        .field("vars", static_cast<double>(n))
        .field("clauses", static_cast<double>(m))
        .field("rounds_mean", rounds_s.mean)
        .field("witness_mean", witness_s.mean)
        .field("var_resamples_mean", resamples_s.mean)
        .field("all_satisfied", all_satisfied ? 1.0 : 0.0);
  }
  std::cout << table;
  const auto fit = stats::fit_power_law(ms, witnesses);
  bench::print_fit("  witness vs m", fit,
                   "Moser-Tardos: E[resamples] = O(m) => exponent ~ 1");
  h.json()
      .record("size/fit")
      .field("power_exponent", fit.exponent)
      .field("power_exponent_stderr", fit.exponent_stderr)
      .field("r_squared", fit.r_squared);
  std::cout << "\n";
}

void density_ladder(bench::Harness& h, bool smoke, std::uint32_t trials,
                    std::uint32_t k) {
  std::cout << "2) density ladder at fixed n (k = " << k << ")\n";
  const std::uint32_t n = smoke ? 256 : 4096;
  io::Table table({"m/n", "clauses", "rounds", "witness", "all satisfied"});
  // Capped at 2.5: past that the LLL condition is long gone and the walk
  // into the satisfiable-but-hard regime has heavy-tailed runtimes.
  const std::vector<double> densities =
      smoke ? std::vector<double>{1.0, 1.5, 2.0}
            : std::vector<double>{1.0, 1.5, 2.0, 2.5};
  for (const double density : densities) {
    const auto m = static_cast<std::uint32_t>(density * n);
    const auto sys = gen::random_ksat(n, m, k, 0xA12300 + m);
    const graph::Graph deps = gen::dependency_graph(sys);
    bool all_satisfied = true;
    std::vector<double> rounds, witness;
    for (std::uint32_t t = 0; t < trials; ++t) {
      core::Engine gen(rng::derive_seed(0xA12400 + m, t));
      const auto run = run_once(sys, deps, /*init_seed=*/0xA12500 + t, gen);
      rounds.push_back(run.rounds);
      witness.push_back(run.witness);
      all_satisfied = all_satisfied && run.satisfied;
    }
    const auto rounds_s = stats::summarize(rounds);
    const auto witness_s = stats::summarize(witness);
    table.add_row({io::Table::fmt(density, 1), io::Table::fmt_int(m),
                   bench::mean_ci(rounds_s, 2), bench::mean_ci(witness_s, 1),
                   all_satisfied ? "yes" : "NO"});
    h.json()
        .record("density/" + io::Table::fmt(density, 1))
        .field("density", density)
        .field("clauses", static_cast<double>(m))
        .field("rounds_mean", rounds_s.mean)
        .field("witness_mean", witness_s.mean)
        .field("all_satisfied", all_satisfied ? 1.0 : 0.0);
  }
  std::cout << table
            << "reading: well below the k-SAT threshold (~4.27 for k=3) every\n"
               "run terminates satisfied in a handful of rounds; witness\n"
               "length climbs with density as the dependency graph thickens\n"
               "- the regime where Harris-Srinivasan's partial resampling\n"
               "sharpens the constant.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("lll_resampling",
                   bench::parse_bench_args(
                       argc, argv, {"trials", "k"},
                       {.graph = bench::BenchCaps::Graph::NoOp}));
  const std::uint32_t trials = h.trials(12, 3);
  const auto k = static_cast<std::uint32_t>(h.args().get_uint("k", 3));
  h.json().context("trials", static_cast<double>(trials));
  h.json().context("k", static_cast<double>(k));

  bench::print_header(
      "A12  (related work: Moser-Tardos LLL)",
      "parallel Moser-Tardos resampling terminates with O(m) witness "
      "length on the violated-clause frontier");
  size_sweep(h, h.smoke(), trials, k);
  density_ladder(h, h.smoke(), trials, k);
  return h.finish();
}
