#include "core/biased_walk.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/random_walk.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace cobra::core {
namespace {

using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_star;

TEST(BiasedWalk, FullBiasWalksShortestPath) {
  // epsilon = 1: the controller decides every step, so the walk reaches the
  // target in exactly dist(start, target) steps.
  const Graph g = make_grid(2, 6);
  const Vertex start = 0, target = 35;
  const auto dist = graph::bfs_distances(g, target);
  Engine gen(1);
  BiasedWalk walk(g, start, target, BiasSchedule::EpsilonBias, 1.0);
  std::uint64_t steps = 0;
  while (!walk.at_target()) {
    walk.step(gen);
    ++steps;
    ASSERT_LE(steps, 100u);
  }
  EXPECT_EQ(steps, dist[start]);
  EXPECT_EQ(walk.controlled_moves(), steps);
}

TEST(BiasedWalk, ZeroBiasNeverControls) {
  const Graph g = make_cycle(12);
  Engine gen(2);
  BiasedWalk walk(g, 0, 6, BiasSchedule::EpsilonBias, 0.0);
  for (int t = 0; t < 500; ++t) walk.step(gen);
  EXPECT_EQ(walk.controlled_moves(), 0u);
}

TEST(BiasedWalk, ControllerChoiceIsCloserNeighbor) {
  const Graph g = make_grid(2, 5);
  const Vertex target = 24;
  BiasedWalk walk(g, 0, target, BiasSchedule::InverseDegreeBias);
  const auto dist = graph::bfs_distances(g, target);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == target) continue;
    const Vertex c = walk.controller_choice(v);
    EXPECT_TRUE(g.has_edge(v, c));
    EXPECT_EQ(dist[c] + 1, dist[v]);
  }
}

TEST(BiasedWalk, MovesAlongEdges) {
  const Graph g = make_grid(2, 4);
  Engine gen(3);
  BiasedWalk walk(g, 0, 15, BiasSchedule::InverseDegreeBias);
  Vertex prev = walk.position();
  for (int t = 0; t < 200; ++t) {
    walk.step(gen);
    EXPECT_TRUE(g.has_edge(prev, walk.position()));
    prev = walk.position();
  }
}

TEST(BiasedWalk, BiasReducesHittingTime) {
  // On a cycle, hitting the antipode: biased walk should be much faster
  // than the unbiased walk (O(n) vs O(n^2)).
  const Graph g = make_cycle(64);
  Engine gen(4);
  constexpr int kTrials = 60;
  double biased_total = 0, unbiased_total = 0;
  for (int rep = 0; rep < kTrials; ++rep) {
    BiasedWalk biased(g, 0, 32, BiasSchedule::EpsilonBias, 0.5);
    const sim::RunResult hb = sim::run_hit(biased, 32, gen, 1u << 22);
    ASSERT_TRUE(hb.stopped);
    biased_total += static_cast<double>(hb.rounds);

    RandomWalk unbiased(g, 0);
    const sim::RunResult hu = sim::run_hit(unbiased, 32, gen, 1u << 22);
    ASSERT_TRUE(hu.stopped);
    unbiased_total += static_cast<double>(hu.rounds);
  }
  EXPECT_LT(biased_total * 3, unbiased_total);
}

TEST(BiasedWalk, InverseDegreeBiasOnStarFavorsTarget) {
  // Hub has degree n-1 (weak bias), leaves degree 1 (full bias). From a
  // leaf, the walk goes to the hub (only neighbor); from the hub it is
  // biased toward the target leaf with probability 1/(n-1) plus uniform
  // chance. Expected hitting time of a specific leaf from another leaf for
  // the plain walk is ~2(n-1); the inverse-degree walk halves-ish it.
  const Graph g = make_star(32);
  Engine gen(5);
  constexpr int kTrials = 300;
  double biased_total = 0, plain_total = 0;
  for (int rep = 0; rep < kTrials; ++rep) {
    BiasedWalk biased(g, 1, 2, BiasSchedule::InverseDegreeBias);
    const sim::RunResult hb = sim::run_hit(biased, 2, gen);
    ASSERT_TRUE(hb.stopped);
    biased_total += static_cast<double>(hb.rounds);
    RandomWalk plain(g, 1);
    const sim::RunResult hp = sim::run_hit(plain, 2, gen);
    ASSERT_TRUE(hp.stopped);
    plain_total += static_cast<double>(hp.rounds);
  }
  EXPECT_LT(biased_total, plain_total);
}

TEST(BiasedWalk, AtTargetMovesUniformly) {
  // Once at the target, there is no bias: all neighbors equally likely.
  const Graph g = make_cycle(10);
  Engine gen(6);
  int left = 0, right = 0;
  for (int rep = 0; rep < 10000; ++rep) {
    BiasedWalk walk(g, 5, 5, BiasSchedule::EpsilonBias, 1.0);
    walk.step(gen);
    (walk.position() == 4 ? left : right) += 1;
  }
  EXPECT_NEAR(static_cast<double>(left) / (left + right), 0.5, 0.03);
}

TEST(BiasedWalk, InvalidConstruction) {
  const Graph g = make_path(4);
  EXPECT_THROW(BiasedWalk(g, 9, 0, BiasSchedule::EpsilonBias, 0.5),
               std::out_of_range);
  EXPECT_THROW(BiasedWalk(g, 0, 9, BiasSchedule::EpsilonBias, 0.5),
               std::out_of_range);
  EXPECT_THROW(BiasedWalk(g, 0, 3, BiasSchedule::EpsilonBias, 1.5),
               std::invalid_argument);
  EXPECT_THROW(BiasedWalk(g, 0, 3, BiasSchedule::EpsilonBias, -0.1),
               std::invalid_argument);
}

TEST(BiasedWalk, UnreachableTargetThrows) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_THROW(BiasedWalk(g, 0, 2, BiasSchedule::EpsilonBias, 0.5),
               std::invalid_argument);
}

TEST(BiasedWalk, ResetPreservesTarget) {
  const Graph g = make_cycle(8);
  Engine gen(7);
  BiasedWalk walk(g, 0, 4, BiasSchedule::EpsilonBias, 0.7);
  for (int t = 0; t < 10; ++t) walk.step(gen);
  walk.reset(2);
  EXPECT_EQ(walk.position(), 2u);
  EXPECT_EQ(walk.target(), 4u);
  EXPECT_EQ(walk.round(), 0u);
  EXPECT_EQ(walk.controlled_moves(), 0u);
}

}  // namespace
}  // namespace cobra::core
