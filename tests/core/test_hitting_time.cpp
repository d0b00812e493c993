// Tests for hitting-time measurement: run_hit and the hit_rounds
// one-shots, and estimate_cobra_hmax.

#include <gtest/gtest.h>

#include "core/biased_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/random_walk.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace cobra::sim {
namespace {

using core::BiasedWalk;
using core::CobraWalk;
using core::Engine;
using core::RandomWalk;
using graph::Graph;
using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_star;

TEST(RunHit, TargetAlreadyActiveIsZero) {
  const Graph g = make_cycle(8);
  Engine gen(1);
  CobraWalk walk(g, 3, 2);
  const RunResult r = run_hit(walk, 3, gen, 100);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(RunHit, RespectsBudget) {
  const Graph g = make_cycle(100000);
  Engine gen(2);
  RandomWalk walk(g, 0);
  const RunResult r = run_hit(walk, 50000, gen, 20);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 20u);
}

TEST(RunHit, AdjacentVertexOnPathOfTwo) {
  const Graph g = make_path(2);
  Engine gen(3);
  RandomWalk walk(g, 0);
  const RunResult r = run_hit(walk, 1, gen);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 1u);  // only one possible move
}

TEST(CobraHit, MeanMatchesKnownCycleScale) {
  // On a cycle, 2-cobra hitting time of the antipode is Θ(n) (grid d=1).
  const Graph g = make_cycle(32);
  Engine gen(4);
  double total = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    CobraWalk walk(g, 0, 2);
    const RunResult r = run_hit(walk, 16, gen);
    ASSERT_TRUE(r.stopped);
    total += static_cast<double>(r.rounds);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 16.0);   // at least the distance
  EXPECT_LT(mean, 500.0);  // far below RW's Θ(n^2) ~ 256+
}

TEST(CobraHit, FasterThanRandomWalkOnCycle) {
  const Graph g = make_cycle(64);
  Engine gen(5);
  double cobra_total = 0, rw_total = 0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    CobraWalk cobra(g, 0, 2);
    const RunResult rc = run_hit(cobra, 32, gen);
    ASSERT_TRUE(rc.stopped);
    cobra_total += static_cast<double>(rc.rounds);
    RandomWalk walk(g, 0);
    const RunResult rr = run_hit(walk, 32, gen);
    ASSERT_TRUE(rr.stopped);
    rw_total += static_cast<double>(rr.rounds);
  }
  EXPECT_LT(cobra_total * 2, rw_total);
}

TEST(EstimateHmax, ExhaustiveOnTinyGraph) {
  const Graph g = make_path(4);
  Engine gen(6);
  const HmaxEstimate est = estimate_cobra_hmax(g, 2, gen, 0, 20);
  EXPECT_TRUE(est.all_hit);
  EXPECT_EQ(est.pairs, 12u);  // 4*3 ordered pairs
  EXPECT_GT(est.hmax, 2.0);   // end-to-end needs >= 3 steps
  // The extremal pair should be an endpoint pair.
  EXPECT_TRUE((est.argmax_from == 0 && est.argmax_to == 3) ||
              (est.argmax_from == 3 && est.argmax_to == 0));
}

TEST(EstimateHmax, SampledPairs) {
  const Graph g = make_cycle(20);
  Engine gen(7);
  const HmaxEstimate est = estimate_cobra_hmax(g, 2, gen, 30, 5);
  EXPECT_TRUE(est.all_hit);
  EXPECT_LE(est.pairs, 30u);
  EXPECT_GT(est.pairs, 0u);
  EXPECT_GT(est.hmax, 0.0);
}

TEST(InverseDegreeHit, ReachesTarget) {
  const Graph g = make_complete(10);
  Engine gen(8);
  BiasedWalk walk(g, 0, 5, core::BiasSchedule::InverseDegreeBias);
  const RunResult r = run_hit(walk, 5, gen);
  EXPECT_TRUE(r.stopped);
  EXPECT_GE(r.rounds, 1u);
}

// Pinned reference results: round counts, and the engine's next draw
// afterwards. A change in either means a measurement now consumes
// different randomness, which would shift every bench table.
TEST(PinnedMeasurements, HitOneShots) {
  {
    Engine gen(106);
    EXPECT_EQ(hit_rounds<CobraWalk>(gen, 16, make_cycle(32), 0u, 2u), 26.0);
    EXPECT_EQ(gen(), 8347574068923765012ull);
  }
  {
    Engine gen(107);
    EXPECT_EQ(hit_rounds<RandomWalk>(gen, 24, make_grid(2, 5), 0u), 26.0);
    EXPECT_EQ(gen(), 11978181072026176647ull);
  }
  {
    Engine gen(108);
    EXPECT_EQ(hit_rounds<BiasedWalk>(gen, 2, make_star(16), 1u, 2u,
                                     core::BiasSchedule::InverseDegreeBias),
              32.0);
    EXPECT_EQ(gen(), 14651016406987682031ull);
  }
}

TEST(PinnedMeasurements, EstimateHmax) {
  {
    Engine gen(109);
    const HmaxEstimate est = estimate_cobra_hmax(make_path(6), 2, gen, 0, 5);
    EXPECT_DOUBLE_EQ(est.hmax, 46.0 / 5);
    EXPECT_EQ(est.argmax_from, 1u);
    EXPECT_EQ(est.argmax_to, 5u);
    EXPECT_EQ(est.pairs, 30u);
    EXPECT_TRUE(est.all_hit);
    EXPECT_EQ(gen(), 10578855735207141518ull);
  }
  {
    Engine gen(110);
    const HmaxEstimate est = estimate_cobra_hmax(make_cycle(20), 2, gen, 30, 5);
    EXPECT_DOUBLE_EQ(est.hmax, 92.0 / 5);
    EXPECT_EQ(est.argmax_from, 3u);
    EXPECT_EQ(est.argmax_to, 11u);
    EXPECT_EQ(est.pairs, 30u);
    EXPECT_TRUE(est.all_hit);
    EXPECT_EQ(gen(), 13955623664416482092ull);
  }
}

}  // namespace
}  // namespace cobra::sim
