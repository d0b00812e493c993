#include "graph/exact_hitting.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/random_walk.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/runner.hpp"
#include "stats/summary.hpp"

namespace cobra::graph {
namespace {

TEST(ExactHitting, CycleClosedForm) {
  // H(0, k) on C_n = k (n - k).
  const Graph g = make_cycle(12);
  const auto h = exact_rw_hitting_times(g, 0);
  for (Vertex k = 0; k < 12; ++k) {
    EXPECT_NEAR(h[k], static_cast<double>(k) * (12 - k), 1e-8) << "k=" << k;
  }
}

TEST(ExactHitting, CompleteClosedForm) {
  // H(u, v) on K_n = n - 1 for u != v.
  const Graph g = make_complete(9);
  const auto h = exact_rw_hitting_times(g, 4);
  for (Vertex u = 0; u < 9; ++u) {
    if (u == 4) {
      EXPECT_EQ(h[u], 0.0);
    } else {
      EXPECT_NEAR(h[u], 8.0, 1e-9);
    }
  }
}

TEST(ExactHitting, PathClosedForm) {
  // H(k, 0) on the path with vertices 0..N is k (2N - k): the walk must
  // fight the reflecting far end (k^2 would be the absorbing-both-ends
  // gambler's ruin, not the path graph).
  const Graph g = make_path(10);  // N = 9
  const auto h = exact_rw_hitting_times(g, 0);
  for (Vertex k = 0; k < 10; ++k) {
    EXPECT_NEAR(h[k], static_cast<double>(k) * (18.0 - k), 1e-8) << "k=" << k;
  }
}

TEST(ExactHitting, ReturnTimeClosedForm) {
  // R(v) = 2m / d(v) for every connected graph.
  const Graph g = make_star(10);
  EXPECT_NEAR(exact_rw_return_time(g, 0), 18.0 / 9.0, 1e-12);   // hub
  EXPECT_NEAR(exact_rw_return_time(g, 3), 18.0 / 1.0, 1e-12);   // leaf
}

TEST(ExactHitting, MaxHittingOnCycle) {
  const Graph g = make_cycle(16);
  // max_k k(16-k) = 8 * 8 = 64.
  EXPECT_NEAR(exact_rw_max_hitting_to(g, 0), 64.0, 1e-8);
}

TEST(ExactHitting, HmaxLollipopIsCubicScale) {
  // Lollipop's h_max grows like n^3; at small n check it dwarfs the cycle.
  const Graph lollipop = make_lollipop(16, 8);
  const Graph cycle = make_cycle(24);
  const double h_lollipop = exact_rw_hmax(lollipop).hmax;
  const double h_cycle = exact_rw_hmax(cycle).hmax;
  EXPECT_GT(h_lollipop, 3.0 * h_cycle);
  // And the extremal pair is clique-interior -> path-end.
  const auto est = exact_rw_hmax(lollipop);
  EXPECT_EQ(est.argmax_to, 23u);  // far end of the path
}

TEST(ExactHitting, SimulationMatchesExact) {
  // The Monte-Carlo RW hitting estimator must agree with the solver.
  const Graph g = make_grid(2, 4);
  const Vertex target = 15;
  const auto exact = exact_rw_hitting_times(g, target);
  par::MonteCarloOptions opts;
  opts.trials = 4000;
  opts.base_seed = 99;
  const auto samples = par::run_trials(
      par::global_pool(), opts, [&](core::Engine& gen, std::uint32_t) {
        return sim::hit_rounds<core::RandomWalk>(gen, target, g, 0u);
      });
  const auto s = stats::summarize(samples);
  EXPECT_NEAR(s.mean, exact[0], 3.0 * s.sem + 0.5);
}

TEST(ExactHitting, MatthewsUpperBoundHolds) {
  // Simulated RW cover time <= exact h_max * H_{n-1}.
  const Graph g = make_cycle(16);
  const double bound = matthews_upper_bound(g);
  par::MonteCarloOptions opts;
  opts.trials = 300;
  opts.base_seed = 7;
  const auto samples = par::run_trials(
      par::global_pool(), opts, [&](core::Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::RandomWalk>(gen, g, 0u);
      });
  EXPECT_LE(stats::mean_of(samples), bound);
  // Cycle cover time is exactly n(n-1)/2 = 120; the bound is ~64*3.3.
  EXPECT_NEAR(stats::mean_of(samples), 120.0, 10.0);
}

TEST(ExactHitting, InputValidation) {
  const Graph g = make_path(4);
  EXPECT_THROW(exact_rw_hitting_times(g, 9), std::out_of_range);
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_THROW(exact_rw_hitting_times(b.build(), 0), std::invalid_argument);
}

TEST(ExactHitting, SingleVertex) {
  GraphBuilder b(1);
  b.add_edge(0, 0);  // self-loop keeps degree positive
  const Graph g = b.build();
  const auto h = exact_rw_hitting_times(g, 0);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], 0.0);
}

}  // namespace
}  // namespace cobra::graph
