/// A10 — calibration certificate: the Monte-Carlo estimators used by every
/// other experiment, validated against EXACT expectations computed from
/// the walk's subset Markov chain (core/exact_cobra.hpp) and the dense RW
/// solver (graph/exact_hitting.hpp). If these tables agree, the
/// statistical machinery of E1–E10 is trustworthy.
///
///   1. exact vs simulated 2-cobra cover time on all <= 8-vertex families;
///   2. exact vs simulated 2-cobra hitting times;
///   3. exact cobra-vs-RW speedup factors (the paper's object, with zero
///      statistical noise).
///
/// Usage: bench_exact_validation [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Case graphs are built through the spec registry. --graph replaces
///   the case list with that one graph — it must have n <= 8 (the exact
///   subset chain is exponential in n); --smoke shrinks the simulated
///   trial count for CI.

#include <cmath>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/exact_cobra.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

/// The exact cover chain enumerates (active, covered) subset pairs, so
/// anything past 8 vertices is out of reach by design.
constexpr std::uint32_t kMaxExactVertices = 8;

std::vector<bench::SuiteCase> tiny_cases() {
  return {
      {"cycle n=7", "ring:n=7"},
      {"path n=7", "path:n=7"},
      {"star n=8", "star:n=8"},
      {"complete n=7", "complete:n=7"},
      {"grid 2x2x2", "grid:side=2,dims=3"},
      {"binary tree 3 lvls", "tree:levels=3,arity=2"},
  };
}

void cover_table(bench::Harness& h, const std::vector<bench::BuiltCase>& cases,
                 std::uint32_t trials) {
  std::cout << "1) expected 2-cobra cover time: exact vs Monte Carlo ("
            << trials << " trials)\n";
  io::Table table({"graph", "exact", "simulated", "z-score"});
  table.set_align(0, io::Align::Left);
  for (const auto& c : cases) {
    const graph::Graph& g = c.graph;
    const core::ExactCobra exact(g, 2);
    const double truth = exact.expected_cover_time(0);
    const auto mc = sim::replicate(
        trials, 0xA100 ^ std::hash<std::string>{}(c.spec),
        [&](core::Engine& gen) {
          return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
        });
    const double z = mc.sem > 0 ? (mc.mean - truth) / mc.sem : 0.0;
    table.add_row({c.name, io::Table::fmt(truth, 4), bench::mean_ci(mc, 3),
                   io::Table::fmt(z, 2)});
    h.json()
        .record("cover/" + c.name)
        .field("spec", c.spec)
        .field("exact_cover", truth)
        .field("sim_cover_mean", mc.mean)
        .field("sim_cover_sem", mc.sem)
        .field("z_score", z);
  }
  std::cout << table
            << "reading: every |z| < 3 — the simulator is unbiased against\n"
               "the exact subset-chain expectation.\n\n";
}

void hitting_table(bench::Harness& h,
                   const std::vector<bench::BuiltCase>& cases,
                   std::uint32_t trials) {
  std::cout << "2) expected 2-cobra hitting time: exact vs Monte Carlo\n";
  io::Table table({"graph", "pair", "exact", "simulated", "z-score"});
  table.set_align(0, io::Align::Left);
  for (const auto& c : cases) {
    const graph::Graph& g = c.graph;
    const core::ExactCobra exact(g, 2);
    const graph::Vertex target = g.num_vertices() - 1;
    const double truth = exact.expected_hitting_time(0, target);
    const auto mc = sim::replicate(
        trials, 0xA200 ^ std::hash<std::string>{}(c.spec),
        [&](core::Engine& gen) {
          return sim::hit_rounds<core::CobraWalk>(gen, target, g, 0u, 2u);
        });
    const double z = mc.sem > 0 ? (mc.mean - truth) / mc.sem : 0.0;
    table.add_row({c.name, "0 -> " + std::to_string(target),
                   io::Table::fmt(truth, 4), bench::mean_ci(mc, 3),
                   io::Table::fmt(z, 2)});
    h.json()
        .record("hitting/" + c.name)
        .field("spec", c.spec)
        .field("target", static_cast<double>(target))
        .field("exact_hit", truth)
        .field("sim_hit_mean", mc.mean)
        .field("z_score", z);
  }
  std::cout << table << "\n";
}

void speedup_table(bench::Harness& h,
                   const std::vector<bench::BuiltCase>& cases) {
  std::cout << "3) exact speedup of branching (zero statistical noise)\n";
  io::Table table({"graph", "RW cover (k=1)", "cobra cover (k=2)", "speedup"});
  table.set_align(0, io::Align::Left);
  for (const auto& c : cases) {
    const core::ExactCobra rw(c.graph, 1);
    const core::ExactCobra cobra(c.graph, 2);
    const double t1 = rw.expected_cover_time(0);
    const double t2 = cobra.expected_cover_time(0);
    table.add_row({c.name, io::Table::fmt(t1, 3), io::Table::fmt(t2, 3),
                   io::Table::fmt(t1 / t2, 2) + "x"});
    h.json()
        .record("speedup/" + c.name)
        .field("spec", c.spec)
        .field("exact_rw_cover", t1)
        .field("exact_cobra_cover", t2)
        .field("speedup", t1 / t2);
  }
  std::cout << table
            << "reading: branching helps everywhere, even at n = 7-8, and\n"
               "most where the walk is most diffusive (path/cycle) - the\n"
               "tiny-n exact shadow of every large-n experiment above.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("exact_validation",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(5000, 500);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header(
      "A10  (calibration)",
      "exact subset-chain expectations vs the Monte-Carlo estimators");

  const auto cases = h.suite(tiny_cases());
  for (const auto& c : cases) {
    if (c.graph.num_vertices() > kMaxExactVertices) {
      std::cerr << "bench_exact_validation: graph '" << c.spec << "' has "
                << c.graph.num_vertices() << " vertices; the exact subset "
                << "chain needs n <= " << kMaxExactVertices << "\n";
      return 1;
    }
  }
  cover_table(h, cases, trials);
  hitting_table(h, cases, trials);
  speedup_table(h, cases);
  return h.finish();
}
