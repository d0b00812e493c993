#include "core/metropolis_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;

TEST(Metropolis, SigmaHatBasics) {
  const Graph g = make_cycle(8);  // every degree 2: 1 - 1/d = 1/2
  const MetropolisWalk walk(g, 0);
  EXPECT_DOUBLE_EQ(walk.sigma_hat(0), 1.0);
  // Neighbor of the target: path {1} -> sigma = 1/2.
  EXPECT_NEAR(walk.sigma_hat(1), 0.5, 1e-12);
  EXPECT_NEAR(walk.sigma_hat(7), 0.5, 1e-12);
  // Distance-2 vertex: product over {2, 1} = 1/4.
  EXPECT_NEAR(walk.sigma_hat(2), 0.25, 1e-12);
  // Antipode at distance 4: (1/2)^4.
  EXPECT_NEAR(walk.sigma_hat(4), std::pow(0.5, 4), 1e-12);
}

TEST(Metropolis, SigmaHatMonotoneAlongPaths) {
  // sigma_hat(x) <= sigma_hat(neighbor closer to target) always.
  const Graph g = make_grid(2, 5, true);  // torus, min degree 4
  const MetropolisWalk walk(g, 12);
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    double best_neighbor = 0.0;
    for (const graph::Vertex u : g.neighbors(v)) {
      best_neighbor = std::max(best_neighbor, walk.sigma_hat(u));
    }
    if (v != 12) {
      EXPECT_LE(walk.sigma_hat(v), best_neighbor + 1e-12) << "v=" << v;
      EXPECT_GT(walk.sigma_hat(v), 0.0);
    }
  }
}

TEST(Metropolis, Lemma18BoundHolds) {
  // sigma_hat(x, v) <= e^{-p(x,v)}.
  core::Engine eng(1);
  for (const Graph& g :
       {make_cycle(12), make_grid(2, 4, true), make_complete(8),
        gen::random_regular(24, 4, eng())}) {
    const MetropolisWalk walk(g, 0);
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(walk.sigma_hat(v), walk.lemma18_bound(v) + 1e-9) << "v=" << v;
    }
  }
}

TEST(Metropolis, StationaryIsNormalizedAndTargetHeavy) {
  const Graph g = make_cycle(16);
  const MetropolisWalk walk(g, 5);
  const auto& pi = walk.stationary();
  const double total = std::accumulate(pi.begin(), pi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The target gets the largest stationary mass on a regular graph.
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(pi[v], pi[5] + 1e-12);
  }
}

TEST(Metropolis, TransitionsAreInverseDegreeLegal) {
  // The derived chain P must satisfy P(x,y) >= (1 - 1/d(x))/d(x): that is
  // what makes it an inverse-degree-biased walk (s5.3's key derivation).
  core::Engine eng(2);
  for (const Graph& g : {make_cycle(10), make_grid(2, 4, true),
                         gen::random_regular(20, 4, eng())}) {
    const MetropolisWalk walk(g, 3);
    EXPECT_GE(walk.min_transition_margin(), -1e-9);
  }
}

TEST(Metropolis, ReturnTimeWithinCorollary17Bound) {
  core::Engine eng(3);
  struct Case {
    std::string name;
    Graph g;
  };
  const std::vector<Case> cases = {
      {"cycle16", make_cycle(16)},
      {"torus4", make_grid(2, 4, true)},
      {"complete8", make_complete(8)},
      {"regular", gen::random_regular(24, 4, eng())},
  };
  for (const auto& [name, g] : cases) {
    MetropolisWalk walk(g, 0);
    Engine run_gen(44);
    const double measured = walk.measure_return_time(run_gen, 400, 1u << 22);
    const double bound = walk.return_time_bound();
    // Corollary 17: expected return time <= bound. Allow 15% sampling slack.
    EXPECT_LE(measured, bound * 1.15) << name << " measured " << measured
                                      << " bound " << bound;
    EXPECT_GE(measured, 1.0);
  }
}

TEST(Metropolis, OccupancyMatchesStationary) {
  // Long-run occupancy of the target under P equals pi_P(target) which is
  // >= pi_M(target) (Lemma 16's conclusion). Check occupancy >= pi_M - eps.
  const Graph g = make_cycle(12);
  MetropolisWalk walk(g, 4);
  Engine gen(5);
  walk.reset(4);
  std::uint64_t at_target = 0;
  constexpr int kSteps = 400000;
  for (int t = 0; t < kSteps; ++t) {
    walk.step(gen);
    if (walk.position() == walk.target()) ++at_target;
  }
  const double occupancy = static_cast<double>(at_target) / kSteps;
  EXPECT_GE(occupancy, walk.stationary()[4] - 0.01);
}

TEST(Metropolis, RejectsBadInput) {
  EXPECT_THROW(MetropolisWalk(make_cycle(5), 9), std::out_of_range);
  // min degree < 2 (path) and disconnected graphs are rejected.
  EXPECT_THROW(MetropolisWalk(graph::make_path(5), 0), std::invalid_argument);
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_THROW(MetropolisWalk(b.build(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::core
