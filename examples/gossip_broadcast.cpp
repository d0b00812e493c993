/// Information-dissemination example: cobra walks as a broadcast primitive.
///
/// §1 motivates cobra walks as message-passing protocols where each holder
/// forwards k copies per round. This example races four protocols to full
/// dissemination on several network topologies:
///
///   * 2-cobra walk        (this paper)
///   * push gossip         (Feige et al.; every informed vertex stays informed)
///   * push-pull gossip
///   * 8 parallel random walks (Alon et al.)
///
/// and prints rounds-to-full-dissemination with confidence intervals.
///
///   $ ./gossip_broadcast [--n 1024] [--trials 50] [--seed 3]

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/parallel_walks.hpp"
#include "gen/registry.hpp"
#include "graph/generators.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "sim/runner.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace cobra;

  const io::Args args = io::parse_args_or_exit(argc, argv, {"n", "trials", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 1024));
  const auto trials = static_cast<std::uint32_t>(args.get_uint("trials", 50));
  const std::uint64_t seed = args.get_uint("seed", 3);

  struct Network {
    std::string name;
    graph::Graph graph;
  };
  std::uint32_t dim = 1;
  while ((1u << (dim + 1)) <= n) ++dim;
  const std::string size = "n=" + std::to_string(n);
  const std::string seeded = ",seed=" + std::to_string(seed);

  // Dissemination must reach every vertex, so the preferential-attachment
  // graph (connected only w.h.p.) keeps its largest component.
  const std::vector<Network> networks = {
      {"random 6-regular", gen::build_graph("rreg:" + size + ",d=6" + seeded)},
      {"hypercube", graph::make_hypercube(dim)},
      {"2-D grid", gen::build_graph("grid:" + size)},
      {"preferential attachment",
       gen::build_graph("ba:" + size + ",d=3" + seeded + ",lcc=1")},
  };

  struct Protocol {
    std::string name;
    std::function<double(const graph::Graph&, core::Engine&)> run;
  };
  // Every protocol is "construct a process, run it to cover through the
  // shared sim::Runner" — the one driver every walk process plugs into.
  const std::vector<Protocol> protocols = {
      {"2-cobra walk",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
       }},
      {"push gossip",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::Gossip>(gen, g, 0u,
                                                core::GossipMode::Push);
       }},
      {"push-pull gossip",
       [](const graph::Graph& g, core::Engine& gen) {
         core::Gossip gossip(g, 0, core::GossipMode::PushPull);
         return static_cast<double>(sim::run_cover(gossip, gen, 1u << 26).rounds);
       }},
      {"8 parallel walks",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::ParallelWalks>(gen, g, 0u, 8u);
       }},
  };

  for (const Network& net : networks) {
    std::cout << "=== " << net.name << "  (n = " << net.graph.num_vertices()
              << ", m = " << net.graph.num_edges() << ") ===\n";
    io::Table table({"protocol", "mean rounds", "95% CI", "median"});
    table.set_align(0, io::Align::Left);
    for (const Protocol& proto : protocols) {
      const stats::Summary s = sim::replicate(
          trials, seed ^ std::hash<std::string>{}(net.name + proto.name),
          [&](core::Engine& gen) { return proto.run(net.graph, gen); });
      table.add_row({proto.name, io::Table::fmt(s.mean, 1),
                     "+-" + io::Table::fmt(s.ci95_half, 1),
                     io::Table::fmt(s.median, 1)});
    }
    std::cout << table << "\n";
  }

  std::cout << "note: gossip informs permanently; the cobra walk's active set\n"
               "can shrink, which is why it pays a polylog factor on sparse\n"
               "topologies — exactly the contrast drawn in the paper's s1.2.\n";
  return 0;
}
