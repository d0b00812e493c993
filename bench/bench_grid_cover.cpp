/// E1 — Theorem 3 / Lemma 2: the 2-cobra walk covers [0, n]^d in O(n)
/// rounds (constants depending on d), versus the simple random walk's
/// ~n^2 log n on the same grids.
///
/// Table: per dimension d in {1, 2, 3}, sweep the side length n and report
/// mean cover time; fit T = a * n^c and check c ~ 1 for the cobra walk
/// (the paper's O(n)) and c ~ 2 for the random walk baseline on d = 1, 2.
///
/// Usage: bench_grid_cover [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Sweep graphs are built through the spec registry
///   ("grid:side=<S>,dims=<D>"). --graph replaces the sweeps with one
///   cobra-vs-RW row on that graph (no fit); --smoke shrinks the side
///   lists and trial count for CI.

#include <cmath>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/random_walk.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

/// Cover rounds of a fresh process through the shared sim::Runner (the
/// bespoke per-process cover loops this bench used to call).
double cobra_cover_rounds(const graph::Graph& g, core::Engine& gen) {
  return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
}

double rw_cover_rounds(const graph::Graph& g, core::Engine& gen) {
  return sim::cover_rounds<core::RandomWalk>(gen, g, 0u);
}

/// "d<dims><suffix>" built by append — the operator+ chain form trips
/// GCC 12's -Wrestrict false positive (PR 105329) when inlined.
std::string dim_record(std::uint32_t d, const std::string& suffix) {
  std::string name = "d";
  name += std::to_string(d);
  name += suffix;
  return name;
}

void sweep_dimension(bench::Harness& h, std::uint32_t d,
                     const std::vector<std::uint32_t>& sides,
                     std::uint32_t trials, bool include_rw) {
  std::vector<bench::SuiteCase> cases;
  for (const std::uint32_t side : sides) {
    cases.push_back({"side " + std::to_string(side),
                     "grid:side=" + std::to_string(side) +
                         ",dims=" + std::to_string(d)});
  }
  io::Table table({"side n", "vertices", "cobra cover", "cover/n",
                   "rw cover", "rw/(n^2)"});
  std::vector<double> ns, cobra_means, rw_means;
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    // side recovers exactly from n = side^d for these specs.
    const auto side = static_cast<std::uint32_t>(std::llround(
        std::pow(static_cast<double>(g.num_vertices()), 1.0 / d)));
    const auto cobra = sim::replicate(
        trials, 0xE1000 + side + d * 1000,
        [&](core::Engine& gen) { return cobra_cover_rounds(g, gen); });
    ns.push_back(side);
    cobra_means.push_back(cobra.mean);

    stats::Summary rw;
    if (include_rw) {
      rw = sim::replicate(trials, 0xE1500 + side + d * 1000,
                          [&](core::Engine& gen) {
                            return rw_cover_rounds(g, gen);
                          });
      rw_means.push_back(rw.mean);
    }
    table.add_row(
        {io::Table::fmt_int(side), io::Table::fmt_int(g.num_vertices()),
         bench::mean_ci(cobra), io::Table::fmt(cobra.mean / side, 2),
         include_rw ? bench::mean_ci(rw) : "-",
         include_rw
             ? io::Table::fmt(rw.mean / (static_cast<double>(side) * side), 3)
             : "-"});
    auto& rec =
        h.json()
            .record(dim_record(d, "/side" + std::to_string(side)))
            .field("spec", c.spec)
            .field("dims", static_cast<double>(d))
            .field("side", static_cast<double>(side))
            .field("n", static_cast<double>(g.num_vertices()))
            .field("cobra_cover_mean", cobra.mean)
            .field("cobra_cover_ci95", cobra.ci95_half)
            .field("cobra_cover_over_side", cobra.mean / side);
    if (include_rw) rec.field("rw_cover_mean", rw.mean);
  }
  std::cout << "d = " << d << " (2-cobra walk vs simple random walk)\n"
            << table;
  const auto cobra_fit = stats::fit_power_law(ns, cobra_means);
  bench::print_fit("  cobra", cobra_fit, "Theorem 3 predicts exponent 1");
  h.json()
      .record(dim_record(d, "/fit"))
      .field("dims", static_cast<double>(d))
      .field("cobra_exponent", cobra_fit.exponent)
      .field("cobra_exponent_stderr", cobra_fit.exponent_stderr);
  if (include_rw) {
    bench::print_fit("  random walk", stats::fit_power_law(ns, rw_means),
                     "classical ~2 (x log factors)");
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("grid_cover",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(60, 8);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header(
      "E1  (Theorem 3, Lemma 2)",
      "2-cobra cover time on [0,n]^d is O(n); random walk needs ~n^2 polylog");

  if (h.has_graph()) {
    for (const auto& c : h.suite({})) {
      const auto cobra = sim::replicate(trials, 0xE1000, [&](core::Engine& gen) {
        return cobra_cover_rounds(c.graph, gen);
      });
      const auto rw = sim::replicate(trials, 0xE1500, [&](core::Engine& gen) {
        return rw_cover_rounds(c.graph, gen);
      });
      io::Table table({"n", "cobra cover", "rw cover"});
      table.add_row({io::Table::fmt_int(c.graph.num_vertices()),
                     bench::mean_ci(cobra), bench::mean_ci(rw)});
      std::cout << "graph: " << c.spec << "\n" << table << "\n";
      h.json()
          .record(c.spec)
          .field("spec", c.spec)
          .field("n", static_cast<double>(c.graph.num_vertices()))
          .field("cobra_cover_mean", cobra.mean)
          .field("rw_cover_mean", rw.mean);
    }
    return h.finish();
  }

  const bool smoke = h.smoke();
  sweep_dimension(h, 1,
                  smoke ? std::vector<std::uint32_t>{16, 32, 64}
                        : std::vector<std::uint32_t>{64, 128, 256, 512, 1024},
                  trials, /*include_rw=*/true);
  sweep_dimension(h, 2,
                  smoke ? std::vector<std::uint32_t>{4, 8}
                        : std::vector<std::uint32_t>{8, 16, 32, 64},
                  trials, /*include_rw=*/true);
  sweep_dimension(h, 3,
                  smoke ? std::vector<std::uint32_t>{3, 4}
                        : std::vector<std::uint32_t>{4, 6, 8, 12, 16},
                  trials, /*include_rw=*/false);

  std::cout << "reading: cobra exponents should sit near 1 in every "
               "dimension;\nthe RW exponent near 2 shows the baseline the "
               "theorem beats.\n";
  return h.finish();
}
