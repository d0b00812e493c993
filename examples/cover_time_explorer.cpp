/// Cover-time explorer: a CLI for interactive experimentation with every
/// process and graph family in the library. This is the "swiss-army"
/// example; the bench/ binaries are scripted versions of specific slices.
///
///   $ ./cover_time_explorer --graph grid:n=1024 --k 2 --trials 100
///   $ ./cover_time_explorer --graph rreg:n=4096,d=6,seed=7 --process walt
///   $ ./cover_time_explorer --graph "gnp:n=2^16,avg_deg=8,lcc=1"
///
/// Flags:
///   --graph     a GraphSpec string built through the gen registry (run
///               with a bad spec to print the grammar table)  [grid:n=1024]
///   --file      load an edge-list file instead of generating (see
///               io/graph_io.hpp for the format); ignored when --graph is
///               given
///   --process   cobra|rw|gossip|pushpull|parallel|walt             [cobra]
///   --k         cobra branching / parallel walker count            [2]
///   --trials    Monte-Carlo trials                                 [50]
///   --precision adaptive mode: run until the 95% CI half-width is
///               below this fraction of the mean (overrides --trials)
///   --seed      base seed of the trials                            [1]
///   --curve     also print the coverage curve of one run           [false]

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/parallel_walks.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "io/args.hpp"
#include "io/graph_flag.hpp"
#include "io/graph_io.hpp"
#include "io/table.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/observers.hpp"
#include "sim/runner.hpp"
#include "stats/histogram.hpp"
#include "stats/sequential.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cobra;

/// A 32x32 grid, the setting of the paper's Theorem 3.
const std::string kDefaultGraph = "grid:n=1024";

/// Every process runs to cover through the one shared sim::Runner — adding
/// a process here is "construct it, hand it to cover_rounds", nothing else.
double run_process(const std::string& process, const graph::Graph& g,
                   std::uint32_t k, core::Engine& gen) {
  if (process == "cobra") {
    return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, k);
  }
  if (process == "rw") {
    return sim::cover_rounds<core::RandomWalk>(gen, g, 0u);
  }
  if (process == "gossip") {
    return sim::cover_rounds<core::Gossip>(gen, g, 0u, core::GossipMode::Push);
  }
  if (process == "pushpull") {
    core::Gossip gossip(g, 0, core::GossipMode::PushPull);
    return static_cast<double>(sim::run_cover(gossip, gen, 1u << 26).rounds);
  }
  if (process == "parallel") {
    return sim::cover_rounds<core::ParallelWalks>(gen, g, 0u, k);
  }
  if (process == "walt") {
    return sim::cover_rounds<core::Walt>(gen, g, 0u,
                                         std::max(1u, g.num_vertices() / 2),
                                         true);
  }
  throw std::invalid_argument("unknown process: " + process);
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args = io::parse_args_or_exit(
      argc, argv, {io::kGraphFlag, "process", "k", "trials", "seed", "curve",
                   "file", "precision"});
  const std::string process = args.get("process", "cobra");
  const auto k = static_cast<std::uint32_t>(args.get_uint("k", 2));
  const auto trials = static_cast<std::uint32_t>(args.get_uint("trials", 50));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const bool curve = args.get_bool("curve", false);

  const bool from_file = args.has("file") && !args.has(io::kGraphFlag);
  const std::string source =
      from_file ? args.get("file", "")
                : io::graph_spec_from_args(args, kDefaultGraph);
  graph::Graph g;
  if (from_file) {
    g = graph::largest_component(io::load_edge_list(source)).graph;
  } else {
    try {
      g = io::graph_from_args(args, kDefaultGraph);
    } catch (const std::invalid_argument& e) {
      // Same contract as the benches: a typo'd spec prints the grammar
      // table (graph_from_args appends it) and exits cleanly.
      std::cerr << e.what() << "\n";
      return 1;
    }
  }

  std::cout << "graph = " << source << ", n = " << g.num_vertices()
            << ", m = " << g.num_edges() << ", degrees in ["
            << g.min_degree() << ", " << g.max_degree() << "]\n";
  if (g.num_vertices() <= 4096) {
    const auto est = graph::estimate_conductance(g);
    std::cout << "spectral gap (lazy) = " << est.spectral_gap
              << ", conductance in [" << est.cheeger_lower << ", "
              << est.sweep_cut_upper << "]\n";
  }
  std::cout << "\n";

  std::vector<double> samples;
  if (args.has("precision")) {
    stats::SequentialOptions seq;
    seq.base_seed = seed;
    seq.relative_tolerance = args.get_double("precision", 0.02);
    const auto adaptive = stats::run_until_precise(
        par::global_pool(), seq, [&](core::Engine& gen, std::uint32_t) {
          return run_process(process, g, k, gen);
        });
    std::cout << "adaptive mode: " << adaptive.trials_used << " trials, "
              << (adaptive.converged ? "converged" : "NOT converged") << "\n";
    // Re-materialize the sample for the histogram below (same seeds).
    par::MonteCarloOptions opts;
    opts.base_seed = seed;
    opts.trials = adaptive.trials_used;
    samples = par::run_trials(par::global_pool(), opts,
                              [&](core::Engine& gen, std::uint32_t) {
                                return run_process(process, g, k, gen);
                              });
  } else {
    par::MonteCarloOptions opts;
    opts.base_seed = seed;
    opts.trials = trials;
    samples = par::run_trials(par::global_pool(), opts,
                              [&](core::Engine& gen, std::uint32_t) {
                                return run_process(process, g, k, gen);
                              });
  }
  const stats::Summary s = stats::summarize(samples);

  io::Table table({"statistic", "value"});
  table.set_align(0, io::Align::Left);
  table.add_row({"trials", io::Table::fmt_int(static_cast<long long>(s.count))});
  table.add_row({"mean cover time", io::Table::fmt(s.mean, 2)});
  table.add_row({"95% CI half-width", io::Table::fmt(s.ci95_half, 2)});
  table.add_row({"std dev", io::Table::fmt(s.stddev, 2)});
  table.add_row({"min / median / max",
                 io::Table::fmt(s.min, 0) + " / " + io::Table::fmt(s.median, 0) +
                     " / " + io::Table::fmt(s.max, 0)});
  std::cout << table << "\n";

  std::cout << "cover-time distribution (" << samples.size() << " trials):\n"
            << stats::Histogram::of(samples, 10).render(40) << "\n";

  if (curve && process == "cobra") {
    std::cout << "coverage curve of a single run:\n";
    // One Runner call: the cover stop rule supplies the covered count,
    // the growth observer |S_t|.
    core::Engine gen(seed);
    core::CobraWalk walk(g, 0, k);
    sim::CoverStop cover;
    sim::GrowthCurve growth;
    auto covered = sim::record_of([&cover](const core::CobraWalk&) {
      return static_cast<double>(cover.covered_count());
    });
    sim::Runner().run(walk, gen, cover, growth, covered);
    io::Table tcurve({"round", "|S_t|", "covered"});
    const auto& sizes = growth.sizes();
    for (std::size_t p = 0; p <= 10; ++p) {
      const std::size_t round = p * (sizes.size() - 1) / 10;
      tcurve.add_row(
          {io::Table::fmt_int(static_cast<long long>(round)),
           io::Table::fmt_int(static_cast<long long>(sizes[round])),
           io::Table::fmt_int(
               static_cast<long long>(covered.values()[round]))});
    }
    std::cout << tcurve;
  }
  return 0;
}
