/// Epidemic example: the paper's §1 disease-spread reading of a cobra walk.
///
/// A k-cobra walk models an idealized SIS process: each infected agent
/// infects k random contacts per round and immediately recovers. This
/// example seeds patient zero in two contact-network topologies the paper's
/// §4 calls out — a power-law network (Chung-Lu) and a random geometric
/// graph (proximity contacts) — and prints the epidemic curves: prevalence
/// (currently infected), cumulative attack rate, and time until everyone
/// has been exposed.
///
///   $ ./epidemic_sis [--n 2000] [--contacts 2] [--seed 7]

#include <cmath>
#include <iostream>
#include <string>

#include "core/sis_epidemic.hpp"
#include "gen/registry.hpp"
#include "graph/generators.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "sim/runner.hpp"
#include "stats/histogram.hpp"

namespace {

void run_outbreak(const cobra::graph::Graph& g, const std::string& label,
                  std::uint32_t contacts, std::uint64_t seed) {
  using namespace cobra;

  core::Engine gen(seed);
  core::SisEpidemic epi(g, /*patient_zero=*/0, contacts);
  const std::uint64_t horizon = 64ull * g.num_vertices();
  // SIS models the sim::Process concept, so the outbreak runs through the
  // shared Runner under a process-specific stop rule instead of its own
  // loop method.
  sim::Runner(horizon).run(
      epi, gen,
      sim::until([](const core::SisEpidemic& e) { return e.everyone_exposed(); }));

  std::cout << "=== " << label << " ===\n";
  std::cout << "n = " << g.num_vertices() << ", contacts/round = " << contacts
            << ", avg degree = " << g.average_degree() << "\n";

  // Epidemic curve at a handful of checkpoints.
  io::Table curve({"round", "prevalence", "new exposures", "attack rate"});
  const auto& history = epi.history();
  const std::size_t points = 8;
  for (std::size_t p = 0; p <= points; ++p) {
    const std::size_t idx =
        p * (history.size() - 1) / points;
    const auto& rec = history[idx];
    curve.add_row(
        {io::Table::fmt_int(static_cast<long long>(rec.round)),
         io::Table::fmt_int(rec.prevalence),
         io::Table::fmt_int(rec.incidence),
         io::Table::fmt(static_cast<double>(rec.ever_infected) /
                            g.num_vertices() * 100.0, 1) + "%"});
  }
  std::cout << curve;
  if (epi.everyone_exposed()) {
    std::cout << "everyone exposed after " << epi.round() << " rounds\n\n";
  } else {
    std::cout << "NOT fully exposed within " << horizon
              << " rounds (disconnected contact graph?)\n\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cobra;

  const io::Args args = io::parse_args_or_exit(argc, argv, {"n", "contacts", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 2000));
  const auto contacts = static_cast<std::uint32_t>(args.get_uint("contacts", 2));
  const std::uint64_t seed = args.get_uint("seed", 7);

  const std::string size = "n=" + std::to_string(n);
  const std::string seeded = ",seed=" + std::to_string(seed) + ",lcc=1";

  // Power-law contact network (superspreaders): lcc=1 keeps the giant
  // component so the epidemic can reach everyone.
  run_outbreak(gen::build_graph("chunglu:" + size + ",gamma=2.5,min_deg=3" +
                                seeded),
               "power-law contact network (giant component)", contacts,
               seed + 1);

  // Random geometric graph (proximity contacts), radius 1.8x the
  // connectivity threshold sqrt(ln n / (pi n)): avg_deg = pi n r^2.
  const double avg_deg = 1.8 * 1.8 * std::log(static_cast<double>(n));
  run_outbreak(gen::build_graph("geo:" + size + ",avg_deg=" +
                                std::to_string(avg_deg) + seeded),
               "random geometric contact network (giant component)", contacts,
               seed + 2);

  // The same outbreak with more contacts per round, on a hypercube "office
  // building" topology, to show the effect of the branching factor.
  {
    std::uint32_t dim = 1;
    while ((1u << (dim + 1)) <= n) ++dim;
    const graph::Graph g = graph::make_hypercube(dim);
    run_outbreak(g, "hypercube topology, k contacts", contacts, seed + 3);
    run_outbreak(g, "hypercube topology, 2k contacts", 2 * contacts, seed + 3);
  }
  return 0;
}
