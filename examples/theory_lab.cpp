/// Theory lab: a guided tour of the paper's PROOF machinery, not just its
/// processes. Each section prints a small demonstration of one analytical
/// device the paper uses, computed live:
///
///   1. §3  — the drift coupling behind Theorem 3 (watch z = (z_1..z_d)
///            fall to the origin and stay there);
///   2. §4  — the tensor-product digraph D(G x G) behind Lemma 11 (its
///            Eulerian stationary distribution, and the live two-pebble
///            walk hitting exactly that collision rate);
///   3. §5  — sigma_hat and the Metropolis chain behind Corollary 17
///            (return-time bound met by measurement).
///
///   $ ./theory_lab [--seed 1]

#include <cmath>
#include <iostream>

#include "core/grid_drift.hpp"
#include "core/metropolis_walk.hpp"
#include "core/pair_walk.hpp"
#include "graph/generators.hpp"
#include "graph/tensor_product.hpp"
#include "io/args.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  const io::Args args = io::parse_args_or_exit(argc, argv, {"seed"});
  const std::uint64_t seed = args.get_uint("seed", 1);
  core::Engine gen(seed);

  std::cout << "== 1. The drift coupling of Theorem 3 (s3) ==\n"
            << "Tracking one cobra pebble's distances to a target on\n"
            << "[0,64]^3, under the proof's pessimistic clone selection:\n\n";
  {
    core::GridDriftWalk walk(3, 48, 64);
    io::Table table({"round", "z_1", "z_2", "z_3", "total"});
    std::uint64_t next_print = 0;
    while (!walk.at_origin() && walk.round() < 100000) {
      if (walk.round() == next_print) {
        table.add_row({io::Table::fmt_int(static_cast<long long>(walk.round())),
                       io::Table::fmt_int(walk.distance(0)),
                       io::Table::fmt_int(walk.distance(1)),
                       io::Table::fmt_int(walk.distance(2)),
                       io::Table::fmt_int(
                           static_cast<long long>(walk.total_distance()))});
        next_print = next_print == 0 ? 64 : next_print * 2;
      }
      walk.step(gen);
    }
    table.add_row({io::Table::fmt_int(static_cast<long long>(walk.round())),
                   "0", "0", "0", "0"});
    std::cout << table << "reached the origin in " << walk.round()
              << " rounds (Lemma 5 budget: O(d^2 n) = "
              << 9 * 64 << "-ish)\n\n";
  }

  std::cout << "== 2. The tensor-product digraph of Lemma 11 (s4) ==\n";
  {
    const graph::Graph g = graph::make_complete(8);
    const graph::Digraph d = graph::walt_pair_digraph(g);
    const auto closed = graph::walt_pair_stationary(8);
    std::cout << "G = K8; D(G x G) has " << d.num_vertices() << " states and "
              << d.num_arcs() << " weighted arcs; weight-balanced (Eulerian): "
              << (d.is_weight_balanced() ? "yes" : "no") << "\n"
              << "closed-form stationary: diagonal " << closed.diagonal
              << ", off-diagonal " << closed.off_diagonal << "\n";
    core::PairWalk pair(g, 0, 0, /*lazy=*/true);
    for (int t = 0; t < 2000; ++t) pair.step(gen);
    std::uint64_t collisions = 0;
    constexpr int kSteps = 200000;
    for (int t = 0; t < kSteps; ++t) {
      pair.step(gen);
      if (pair.collided()) ++collisions;
    }
    std::cout << "live two-pebble walk collision rate: "
              << io::Table::fmt(static_cast<double>(collisions) / kSteps, 4)
              << "  (stationary prediction n*pi_S1 = "
              << io::Table::fmt(8 * closed.diagonal, 4) << ")\n\n";
  }

  std::cout << "== 3. The Metropolis chain of Corollary 17 (s5.3) ==\n";
  {
    const graph::Graph g = graph::make_grid(2, 6, /*torus=*/true);
    core::MetropolisWalk walk(g, 0);
    io::Table table({"x (sample)", "sigma_hat(x)", "e^{-p(x,v)} (Lemma 18)"});
    for (const graph::Vertex x : {1u, 7u, 14u, 21u, 35u}) {
      table.add_row({io::Table::fmt_int(x), io::Table::fmt(walk.sigma_hat(x), 4),
                     io::Table::fmt(walk.lemma18_bound(x), 4)});
    }
    std::cout << table;
    const double measured = walk.measure_return_time(gen, 2000, 1u << 22);
    std::cout << "Corollary 17 bound: "
              << io::Table::fmt(walk.return_time_bound(), 3)
              << "; measured return time: " << io::Table::fmt(measured, 3)
              << "; inverse-degree floor margin: "
              << io::Table::fmt_sci(walk.min_transition_margin(), 2) << "\n";
  }
  return 0;
}
