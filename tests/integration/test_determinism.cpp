/// Determinism audit: every randomized component must be a pure function
/// of its seed. This is what makes EXPERIMENTS.md reproducible, so it gets
/// its own suite — any component that silently reads global state (time,
/// thread ids, ...) fails here.

#include <gtest/gtest.h>

#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/grid_drift.hpp"
#include "core/pair_walk.hpp"
#include "core/walt.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/runner.hpp"
#include "stats/bootstrap.hpp"

namespace cobra {
namespace {

using core::Engine;
using graph::Graph;
using graph::Vertex;

template <typename MakeGraph>
void expect_same_graph(MakeGraph&& make) {
  rng::Xoshiro256 g1(777), g2(777);
  const Graph a = make(g1);
  const Graph b = make(g2);
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.targets(), b.targets());
}

TEST(Determinism, AllRandomGeneratorsSeedPure) {
  expect_same_graph(
      [](rng::Xoshiro256& eng) { return gen::random_regular(80, 4, eng()); });
  expect_same_graph(
      [](rng::Xoshiro256& eng) { return gen::gnp(150, 0.05, eng()); });
  expect_same_graph(
      [](rng::Xoshiro256& eng) { return gen::chung_lu(200, 2.5, 2.0, eng()); });
  expect_same_graph(
      [](rng::Xoshiro256& eng) { return gen::barabasi_albert(150, 2, eng()); });
  expect_same_graph([](rng::Xoshiro256& eng) {
    return gen::random_geometric(200, 0.12, eng());
  });
}

TEST(Determinism, ProcessesReplayExactly) {
  const Graph g = graph::make_grid(2, 6);
  {
    Engine e1(5), e2(5);
    core::Walt w1(g, 0, 10, true), w2(g, 0, 10, true);
    for (int t = 0; t < 200; ++t) {
      w1.step(e1);
      w2.step(e2);
      ASSERT_EQ(std::vector<Vertex>(w1.pebbles().begin(), w1.pebbles().end()),
                std::vector<Vertex>(w2.pebbles().begin(), w2.pebbles().end()));
    }
  }
  {
    Engine e1(6), e2(6);
    core::Gossip a(g, 0), b(g, 0);
    for (int t = 0; t < 50; ++t) {
      a.step(e1);
      b.step(e2);
      ASSERT_EQ(a.informed_count(), b.informed_count());
    }
  }
  {
    Engine e1(7), e2(7);
    core::PairWalk a(g, 0, 5), b(g, 0, 5);
    for (int t = 0; t < 200; ++t) {
      a.step(e1);
      b.step(e2);
      ASSERT_EQ(a.positions(), b.positions());
    }
  }
  {
    Engine e1(8), e2(8);
    core::GridDriftWalk a(3, 5, 10), b(3, 5, 10);
    for (int t = 0; t < 200; ++t) {
      a.step(e1);
      b.step(e2);
      ASSERT_EQ(std::vector<std::uint32_t>(a.distances().begin(),
                                           a.distances().end()),
                std::vector<std::uint32_t>(b.distances().begin(),
                                           b.distances().end()));
    }
  }
}

TEST(Determinism, MonteCarloRepeatable) {
  const Graph g = graph::make_cycle(32);
  par::MonteCarloOptions opts;
  opts.trials = 64;
  opts.base_seed = 1234;
  auto trial = [&](Engine& gen, std::uint32_t) {
    return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
  };
  const auto a = par::run_trials(par::global_pool(), opts, trial);
  const auto b = par::run_trials(par::global_pool(), opts, trial);
  EXPECT_EQ(a, b);
}

TEST(Determinism, BootstrapRepeatable) {
  const std::vector<double> sample{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const auto a = stats::bootstrap_mean_ci(sample, 0.95, 300, 42);
  const auto b = stats::bootstrap_mean_ci(sample, 0.95, 300, 42);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}

TEST(Determinism, EngineCopyIndependence) {
  // Copies of an engine diverge only by their own use, never shared state.
  Engine original(9);
  Engine copy = original;
  const auto from_original = original();
  const auto from_copy = copy();
  EXPECT_EQ(from_original, from_copy);
  (void)original();
  Engine copy2 = copy;
  EXPECT_EQ(copy(), copy2());
}

}  // namespace
}  // namespace cobra
