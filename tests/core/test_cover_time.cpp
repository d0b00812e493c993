// Tests for cover-time measurement: CoverageTracker, run_cover and the
// cover_rounds one-shots, and the default round budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/parallel_walks.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace cobra::sim {
namespace {

using core::CobraWalk;
using core::Engine;
using core::RandomWalk;
using core::Vertex;
using graph::Graph;
using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_star;

TEST(CoverageTracker, AbsorbCountsNewOnly) {
  CoverageTracker tracker(5);
  const std::vector<Vertex> a{0, 1, 1, 2};
  EXPECT_EQ(tracker.absorb(a), 3u);
  EXPECT_EQ(tracker.covered_count(), 3u);
  const std::vector<Vertex> b{2, 3};
  EXPECT_EQ(tracker.absorb(b), 1u);
  EXPECT_EQ(tracker.covered_count(), 4u);
  EXPECT_FALSE(tracker.complete());
  const std::vector<Vertex> c{4};
  tracker.absorb(c);
  EXPECT_TRUE(tracker.complete());
  EXPECT_DOUBLE_EQ(tracker.fraction(), 1.0);
}

TEST(CoverageTracker, Reset) {
  CoverageTracker tracker(3);
  const std::vector<Vertex> all{0, 1, 2};
  tracker.absorb(all);
  EXPECT_TRUE(tracker.complete());
  tracker.reset();
  EXPECT_EQ(tracker.covered_count(), 0u);
  EXPECT_FALSE(tracker.is_covered(0));
}

TEST(CoverageTracker, EmptyGraphIsTriviallyComplete) {
  CoverageTracker tracker(0);
  EXPECT_TRUE(tracker.complete());
  EXPECT_DOUBLE_EQ(tracker.fraction(), 1.0);
}

TEST(RunCover, SingleVertexGraphIsRejected) {
  // A one-vertex graph has no edges, so no walk can take a step; the
  // constructor refuses it (isolated vertex) rather than stepping into UB.
  const Graph g = make_path(1);
  EXPECT_THROW(CobraWalk(g, 0, 2), std::invalid_argument);
  // The two-vertex path is the smallest walkable graph and covers in 1 step.
  const Graph g2 = make_path(2);
  Engine gen(1);
  CobraWalk walk(g2, 0, 2);
  const RunResult r = run_cover(walk, gen, 100);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(RunCover, RespectsBudget) {
  const Graph g = make_cycle(1000);
  Engine gen(2);
  RandomWalk walk(g, 0);
  CoverStop cover;
  const RunResult r = Runner(50).run(walk, gen, cover);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 50u);
  EXPECT_LT(cover.covered_count(), 1000u);
  EXPECT_GE(cover.covered_count(), 1u);
}

TEST(RunCover, CobraCoversSmallGrid) {
  const Graph g = make_grid(2, 4);
  Engine gen(3);
  CobraWalk walk(g, 0, 2);
  CoverStop cover;
  const RunResult r = Runner().run(walk, gen, cover);
  EXPECT_TRUE(r.stopped);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_EQ(cover.covered_count(), 16u);
}

TEST(RunCover, RandomWalkCoversCycle) {
  const Graph g = make_cycle(12);
  Engine gen(4);
  RandomWalk walk(g, 0);
  const RunResult r = run_cover(walk, gen);
  EXPECT_TRUE(r.stopped);
  // Cycle cover time is exactly n(n-1)/2 in expectation = 66; sanity range.
  EXPECT_GT(r.rounds, 10u);
}

TEST(RunCover, CompleteGraphCoverIsCouponCollector) {
  // Mean over trials should be near n * H_{n-1} ~ 12 * 3.02 ~ 36 for K12's
  // random walk (self-transitions excluded, so slightly less); just check
  // the scale.
  const Graph g = make_complete(12);
  Engine gen(5);
  double total = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    RandomWalk walk(g, 0);
    const RunResult r = run_cover(walk, gen);
    ASSERT_TRUE(r.stopped);
    total += static_cast<double>(r.rounds);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 20.0);
  EXPECT_LT(mean, 50.0);
}

TEST(RunCover, HigherBranchingCoversFaster) {
  const Graph g = make_grid(2, 8);
  Engine gen(6);
  double k2_total = 0, k4_total = 0;
  constexpr int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    k2_total += cover_rounds<CobraWalk>(gen, g, 0u, 2u);
    k4_total += cover_rounds<CobraWalk>(gen, g, 0u, 4u);
  }
  EXPECT_LT(k4_total, k2_total);
}

TEST(RunCover, WaltCoversWithManyPebbles) {
  const Graph g = make_complete(20);
  Engine gen(7);
  core::Walt walt(g, 0, 10, true);
  EXPECT_TRUE(run_cover(walt, gen).stopped);
}

TEST(RunCover, ParallelWalksCover) {
  const Graph g = make_cycle(30);
  Engine gen(8);
  core::ParallelWalks one(g, 0, 1);
  EXPECT_TRUE(run_cover(one, gen).stopped);
  core::ParallelWalks many(g, 0, 8);
  EXPECT_TRUE(run_cover(many, gen).stopped);
}

TEST(RunCover, InitialActiveSetCountsAsCovered) {
  // Star covered from the hub with k = n-1 cobra: hub + all leaves sampled
  // in one step typically; but regardless, step 0 must mark the hub.
  const Graph g = make_star(5);
  CobraWalk walk(g, 0, 2);
  CoverStop cover;
  cover.start(walk);
  EXPECT_EQ(cover.covered_count(), 1u);
  CoverageTracker tracker(g.num_vertices());
  tracker.absorb(walk.active());
  EXPECT_TRUE(tracker.is_covered(0));
}

TEST(DefaultStepBudget, GenerousAndMonotone) {
  EXPECT_GE(default_step_budget(1), 1u << 20);
  EXPECT_GE(default_step_budget(100), 32ull * 100 * 100 * 100);
  EXPECT_GT(default_step_budget(1000), default_step_budget(100));
  // 32 n^3 leaves 64 bits past n = 832,255: the budget must saturate
  // there, since a wrapped product falls to the 2^20 floor at n = 2^20.
  const std::vector<std::uint32_t> sizes = {
      1000, 100000, 832000, 1000000, 1u << 20, 1u << 21, 1u << 24,
      std::numeric_limits<std::uint32_t>::max()};
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    SCOPED_TRACE(sizes[i]);
    EXPECT_GE(default_step_budget(sizes[i]), default_step_budget(sizes[i - 1]));
  }
  EXPECT_EQ(default_step_budget(832000), 32ull * 832000 * 832000 * 832000);
  EXPECT_EQ(default_step_budget(1u << 20),
            std::numeric_limits<std::uint64_t>::max());
}

// Pinned reference results: round counts, and the engine's next draw
// afterwards. A change in either means a measurement now consumes
// different randomness, which would shift every bench table.
TEST(PinnedMeasurements, CoverOneShots) {
  {
    Engine gen(101);
    EXPECT_EQ(cover_rounds<CobraWalk>(gen, make_grid(2, 6), 0u, 2u), 14.0);
    EXPECT_EQ(gen(), 13156043292400295082ull);
  }
  {
    Engine gen(102);
    EXPECT_EQ(cover_rounds<RandomWalk>(gen, make_cycle(20), 0u), 64.0);
    EXPECT_EQ(gen(), 11063459496943587330ull);
  }
  {
    Engine gen(103);
    EXPECT_EQ(cover_rounds<core::Walt>(gen, make_complete(16), 0u, 8u, true),
              18.0);
    EXPECT_EQ(gen(), 5031542962371090881ull);
  }
  {
    Engine gen(104);
    EXPECT_EQ(cover_rounds<core::Gossip>(gen, graph::make_hypercube(5), 0u,
                                         core::GossipMode::Push),
              13.0);
    EXPECT_EQ(gen(), 18237083927214785214ull);
  }
  {
    Engine gen(105);
    EXPECT_EQ(cover_rounds<core::ParallelWalks>(gen, make_cycle(24), 0u, 4u),
              63.0);
    EXPECT_EQ(gen(), 16268600615792909997ull);
  }
  {
    // Budget exhaustion: 50 rounds, 8 of 1000 vertices covered.
    Engine gen(111);
    const Graph g = make_cycle(1000);
    RandomWalk walk(g, 0);
    CoverStop cover;
    const RunResult r = Runner(50).run(walk, gen, cover);
    EXPECT_FALSE(r.stopped);
    EXPECT_EQ(r.rounds, 50u);
    EXPECT_EQ(cover.covered_count(), 8u);
    EXPECT_EQ(gen(), 3597586545632399960ull);
  }
}

}  // namespace
}  // namespace cobra::sim
