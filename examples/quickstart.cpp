/// Quickstart: the smallest complete tour of the cobra library.
///
/// Builds a 2-D grid, runs one 2-cobra walk until it covers the graph,
/// then Monte-Carlo-estimates the expected cover time with a 95% CI and
/// compares against a simple random walk — the comparison at the heart of
/// the paper.
///
///   $ ./quickstart [--side 16] [--trials 100] [--seed 1]

#include <cstdio>
#include <iostream>

#include "core/cobra_walk.hpp"
#include "core/random_walk.hpp"
#include "graph/generators.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace cobra;

  const io::Args args = io::parse_args_or_exit(argc, argv, {"side", "trials", "seed"});
  const auto side = static_cast<std::uint32_t>(args.get_uint("side", 16));
  const auto trials = static_cast<std::uint32_t>(args.get_uint("trials", 100));
  const std::uint64_t seed = args.get_uint("seed", 1);

  // 1. Build a graph. Generators cover every family in the paper.
  const graph::Graph g = graph::make_grid(2, side);
  std::cout << "graph: " << side << "x" << side << " grid, "
            << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges\n\n";

  // 2. Run one 2-cobra walk by hand and watch the active set grow.
  core::Engine gen(seed);
  core::CobraWalk walk(g, /*start=*/0, /*branching=*/2);
  sim::CoverStop cover;
  cover.start(walk);
  while (!cover.complete()) {
    walk.step(gen);
    cover.observe(walk);
    if (walk.round() % 16 == 0 || cover.complete()) {
      std::cout << "round " << walk.round() << ": |S_t| = "
                << walk.active().size() << ", covered "
                << cover.covered_count() << "/" << g.num_vertices() << "\n";
    }
  }
  std::cout << "\nsingle run covered the grid in " << walk.round()
            << " rounds\n\n";

  // 3. Monte-Carlo estimate of the expected cover time, in parallel, with
  //    deterministic per-trial seeding.
  const stats::Summary cobra =
      sim::replicate(trials, seed, [&](core::Engine& engine) {
        return sim::cover_rounds<core::CobraWalk>(engine, g, 0u, 2u);
      });
  const stats::Summary rw =
      sim::replicate(trials, seed, [&](core::Engine& engine) {
        return sim::cover_rounds<core::RandomWalk>(engine, g, 0u);
      });

  io::Table table({"process", "mean cover", "95% CI", "median", "max"});
  table.set_align(0, io::Align::Left);
  table.add_row({"2-cobra walk", io::Table::fmt(cobra.mean, 1),
                 "+-" + io::Table::fmt(cobra.ci95_half, 1),
                 io::Table::fmt(cobra.median, 1), io::Table::fmt(cobra.max, 0)});
  table.add_row({"simple random walk", io::Table::fmt(rw.mean, 1),
                 "+-" + io::Table::fmt(rw.ci95_half, 1),
                 io::Table::fmt(rw.median, 1), io::Table::fmt(rw.max, 0)});
  std::cout << table << "\n";
  std::cout << "speedup: " << io::Table::fmt(rw.mean / cobra.mean, 1)
            << "x  (" << trials << " trials each)\n";
  return 0;
}
