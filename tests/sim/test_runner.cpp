// Tests for sim::Runner composition: stop rules, observers, budget
// semantics, zero-observer equivalence with the raw step loop, and
// bit-identical trajectories through the Runner at 1/2/8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/coalescing_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/generalized_cobra.hpp"
#include "core/gossip.hpp"
#include "core/grid_drift.hpp"
#include "core/random_walk.hpp"
#include "core/sis_epidemic.hpp"
#include "core/walt.hpp"
#include "gen/registry.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/observers.hpp"
#include "sim/process.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cobra;

// Every shipped process models the concept (GridDrift via its adapter).
static_assert(sim::Process<core::CobraWalk>);
static_assert(sim::Process<core::GeneralizedCobraWalk>);
static_assert(sim::Process<core::Gossip>);
static_assert(sim::Process<core::RandomWalk>);
static_assert(sim::Process<core::SisEpidemic>);
static_assert(sim::Process<core::Walt>);
static_assert(sim::Process<sim::GridDriftProcess>);

// The references the Runner is checked against: bare step loops over the
// materialized active() set, sharing no code with sim::.
template <typename P>
std::uint64_t raw_cover_rounds(P& p, core::Engine& gen) {
  std::vector<bool> seen(p.n(), false);
  std::uint32_t seen_count = 0;
  const auto mark = [&] {
    for (const core::Vertex v : p.active()) {
      if (!seen[v]) {
        seen[v] = true;
        ++seen_count;
      }
    }
  };
  std::uint64_t rounds = 0;
  for (mark(); seen_count < p.n(); mark()) {
    p.step(gen);
    ++rounds;
  }
  return rounds;
}

template <typename P>
std::uint64_t raw_hit_rounds(P& p, core::Vertex target, core::Engine& gen) {
  const auto hit = [&] {
    const auto a = p.active();
    return std::find(a.begin(), a.end(), target) != a.end();
  };
  std::uint64_t rounds = 0;
  while (!hit()) {
    p.step(gen);
    ++rounds;
  }
  return rounds;
}

TEST(Runner, ZeroObserverCoverMatchesRawStepLoop) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=11");
  core::Engine gen_raw(77);
  core::CobraWalk raw(g, 0, 2);
  const std::uint64_t expected = raw_cover_rounds(raw, gen_raw);
  // Runner with no observers.
  core::Engine gen_sim(77);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto r = sim::Runner(1u << 20).run(walk, gen_sim, cover);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(expected, r.rounds);
  EXPECT_EQ(cover.covered_count(), g.num_vertices());
  // Identical engine state afterwards: the Runner consumed exactly the
  // same randomness as the raw loop.
  EXPECT_EQ(gen_raw(), gen_sim());
}

TEST(Runner, HitTargetMatchesRawHitLoop) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  core::Engine gen_raw(5);
  core::RandomWalk raw(g, 0);
  const std::uint64_t expected = raw_hit_rounds(raw, 32, gen_raw);
  core::Engine gen_sim(5);
  core::RandomWalk walk(g, 0);
  const auto r = sim::run_hit(walk, 32, gen_sim, 1u << 22);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(expected, r.rounds);

  // A frontier process: HitTarget tests membership on the native frontier
  // (bit test when dense, binary search when sparse), never materializing
  // it. Every representation must hit in the raw loop's round.
  const graph::Graph torus = gen::build_graph("torus:n=2^12");
  const core::Vertex target = 64 * 32 + 32;  // opposite corner from 0
  std::uint64_t auto_rounds = 0;
  for (const core::FrontierMode mode :
       {core::FrontierMode::Auto, core::FrontierMode::ForceSparse,
        core::FrontierMode::ForceDense}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::Engine cobra_raw_gen(8);
    core::CobraWalk cobra_raw(torus, 0, 2);
    cobra_raw.engine().options().mode = mode;
    const std::uint64_t cobra_expected =
        raw_hit_rounds(cobra_raw, target, cobra_raw_gen);
    core::Engine cobra_sim_gen(8);
    core::CobraWalk cobra(torus, 0, 2);
    cobra.engine().options().mode = mode;
    const auto cobra_r = sim::run_hit(cobra, target, cobra_sim_gen, 1u << 20);
    ASSERT_TRUE(cobra_r.stopped);
    EXPECT_EQ(cobra_expected, cobra_r.rounds);
    if (mode == core::FrontierMode::ForceDense) {
      EXPECT_EQ(cobra.engine().sparse_rounds(), 0u);
    }
    if (mode == core::FrontierMode::Auto) auto_rounds = cobra_r.rounds;
    EXPECT_EQ(cobra_r.rounds, auto_rounds);
  }
}

TEST(Runner, ExcursionStopSameInEveryFrontierRepresentation) {
  // ExcursionStop reads home's membership off the native frontier; the
  // count must match a raw loop over the materialized active set.
  const graph::Graph g = gen::build_graph("rreg:n=1000,d=4,seed=2");
  const core::Vertex home = 17;
  core::Engine raw_gen(6);
  core::CobraWalk raw(g, 0, 2);
  std::uint64_t raw_rounds = 0;
  for (std::uint64_t returns = 0; returns < 12;) {
    raw.step(raw_gen);
    ++raw_rounds;
    const auto a = raw.active();
    returns += std::binary_search(a.begin(), a.end(), home) ? 1u : 0u;
  }
  for (const core::FrontierMode mode :
       {core::FrontierMode::Auto, core::FrontierMode::ForceSparse,
        core::FrontierMode::ForceDense}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::Engine gen(6);
    core::CobraWalk walk(g, 0, 2);
    walk.engine().options().mode = mode;
    sim::ExcursionStop excursions(home, 12);
    const auto r = sim::Runner(1u << 20).run(walk, gen, excursions);
    ASSERT_TRUE(r.stopped);
    EXPECT_EQ(r.rounds, raw_rounds);
    EXPECT_EQ(excursions.completed(), 12u);
  }
}

TEST(Runner, CoverStopCountsSameInEveryFrontierRepresentation) {
  // CoverStop ORs dense bitmaps into its tracker and marks sparse lists;
  // the covered count after every round and the cover round must not
  // depend on which the engine ran. n = 1000 leaves a partial last word.
  for (const char* spec : {"torus:n=2^10", "rreg:n=1000,d=4,seed=3"}) {
    SCOPED_TRACE(spec);
    const graph::Graph g = gen::build_graph(spec);
    // Reference: the materialized active sets, counted independently.
    std::vector<std::uint32_t> expected;
    {
      core::Engine gen(12);
      core::CobraWalk walk(g, 0, 2);
      std::vector<bool> seen(g.num_vertices(), false);
      std::uint32_t covered = 0;
      const auto mark = [&] {
        for (const core::Vertex v : walk.active()) {
          covered += seen[v] ? 0u : 1u;
          seen[v] = true;
        }
        expected.push_back(covered);
      };
      mark();
      while (covered < g.num_vertices()) {
        walk.step(gen);
        mark();
      }
    }
    for (const core::FrontierMode mode :
         {core::FrontierMode::Auto, core::FrontierMode::ForceSparse,
          core::FrontierMode::ForceDense}) {
      SCOPED_TRACE(static_cast<int>(mode));
      core::Engine gen(12);
      core::CobraWalk walk(g, 0, 2);
      walk.engine().options().mode = mode;
      sim::CoverStop cover;
      cover.start(walk);
      std::vector<std::uint32_t> counts{cover.covered_count()};
      while (!cover.done(walk)) {
        walk.step(gen);
        cover.observe(walk);
        counts.push_back(cover.covered_count());
      }
      EXPECT_EQ(counts, expected);
      if (mode != core::FrontierMode::ForceSparse) {
        EXPECT_GT(walk.engine().dense_rounds(), 0u);
      }
    }
  }
}

TEST(Runner, HitTargetAlreadyActiveStopsAtZeroRounds) {
  const graph::Graph g = gen::build_graph("ring:n=16");
  core::Engine gen(1);
  core::RandomWalk walk(g, 7);
  const auto r = sim::run_hit(walk, 7, gen, 100);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(walk.round(), 0u);  // never stepped
}

TEST(Runner, BudgetExhaustionReportsNotStopped) {
  const graph::Graph g = gen::build_graph("ring:n=256");
  core::Engine gen(3);
  core::RandomWalk walk(g, 0);
  sim::CoverStop cover;
  const auto r = sim::Runner(5).run(walk, gen, cover);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_FALSE(cover.complete());
  EXPECT_GT(cover.covered_count(), 0u);
}

TEST(Runner, FixedRoundsCountsFromRunStartNotProcessBirth) {
  const graph::Graph g = gen::build_graph("ring:n=32");
  core::Engine gen(9);
  core::RandomWalk walk(g, 0);
  const sim::Runner runner;
  runner.run(walk, gen, sim::FixedRounds(10));
  EXPECT_EQ(walk.round(), 10u);
  // Second run on the same (already-stepped) process: 10 MORE rounds.
  runner.run(walk, gen, sim::FixedRounds(10));
  EXPECT_EQ(walk.round(), 20u);
}

TEST(Runner, ExtinctionStopsFaultySchedules) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  // Always-zero branching: extinct after the very first step.
  core::GeneralizedCobraWalk walk(
      g, 0, [](core::Vertex, std::uint64_t, core::Engine&) { return 0u; });
  core::Engine gen(4);
  sim::CoverStop cover;
  sim::Extinction extinct;
  const auto r =
      sim::Runner(1000).run(walk, gen, sim::any_of(cover, extinct));
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(walk.extinct());
  EXPECT_FALSE(cover.complete());
  EXPECT_EQ(r.rounds, 1u);
}

TEST(Runner, MultipleObserversAndStopRulesCompose) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=21");
  core::Engine gen(13);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  sim::FixedRounds horizon(1u << 14);
  sim::GrowthCurve curve;
  sim::FirstVisitTimes visits;
  sim::SizeHistogram hist;
  sim::CollisionDetector collisions;
  const auto r = sim::Runner(1u << 15).run(
      walk, gen, sim::any_of(cover, horizon), curve, visits, hist, collisions);
  ASSERT_TRUE(r.stopped);
  ASSERT_TRUE(cover.complete());
  // One entry per round incl. the initial state, everywhere.
  EXPECT_EQ(curve.sizes().size(), r.rounds + 1);
  EXPECT_EQ(hist.samples().size(), r.rounds + 1);
  EXPECT_EQ(curve.sizes().front(), 1u);  // the start vertex
  // First-visit view agrees with the cover stop: every vertex visited and
  // the last first-visit IS the cover round.
  for (core::Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(visits.visited(v));
  }
  EXPECT_EQ(visits.last_first_visit(), r.rounds);
  EXPECT_EQ(visits.time_of(0), 0u);
}

TEST(Runner, GrowthCurveMatchesManualStepSizes) {
  const graph::Graph g = gen::build_graph("rreg:n=64,d=4,seed=3");
  core::Engine gen_a(42), gen_b(42);
  core::CobraWalk manual(g, 0, 2);
  std::vector<std::size_t> expected = {manual.active().size()};
  for (int t = 0; t < 20; ++t) {
    manual.step(gen_a);
    expected.push_back(manual.active().size());
  }
  core::CobraWalk walk(g, 0, 2);
  sim::GrowthCurve curve;
  sim::Runner().run(walk, gen_b, sim::FixedRounds(20), curve);
  EXPECT_EQ(curve.sizes(), expected);
}

TEST(Runner, BitIdenticalTrajectoriesAcrossThreadCounts) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  constexpr std::size_t kChunk = 64;
  struct Trace {
    std::uint64_t rounds = 0;
    std::vector<std::size_t> sizes;
    std::vector<std::uint64_t> visits;
  };
  auto run_with = [&](par::ThreadPool* pool) {
    core::CobraWalk walk(g, 0, 2);
    if (pool != nullptr) {
      // Pinned pool + threshold 1: every round takes the parallel path.
      walk.engine().options() = {kChunk, 1, pool};
    } else {
      // Same chunking, forced in-line path — trajectories are a function
      // of the chunk size, so the serial reference must pin it too.
      walk.engine().options() = {kChunk, static_cast<std::size_t>(-1),
                                 nullptr};
    }
    core::Engine gen(1234);
    sim::CoverStop cover;
    sim::GrowthCurve curve;
    sim::FirstVisitTimes visits;
    const auto r = sim::Runner(1u << 18).run(walk, gen, cover, curve, visits);
    EXPECT_TRUE(r.stopped);
    return Trace{r.rounds, curve.sizes(), visits.times()};
  };
  const Trace serial = run_with(nullptr);
  par::ThreadPool pool1(1), pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const Trace t = run_with(pool);
    EXPECT_EQ(serial.rounds, t.rounds);
    EXPECT_EQ(serial.sizes, t.sizes);
    EXPECT_EQ(serial.visits, t.visits);
  }
}

TEST(Runner, GridDriftAdapterHitsOriginLikeRunToOrigin) {
  core::Engine gen_raw(6), gen_sim(6);
  core::GridDriftWalk raw(3, 8, 64);
  const std::uint64_t expected = raw.run_to_origin(gen_raw, 1u << 20);
  sim::GridDriftProcess process(3, 8, 64);
  const auto r = sim::run_hit(process, 0, gen_sim, 1u << 20);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(expected, r.rounds);
  EXPECT_TRUE(process.walk().at_origin());
}

TEST(Runner, UntilPredicateStopsSis) {
  const graph::Graph g = gen::build_graph("complete:n=32");
  core::Engine gen(8);
  core::SisEpidemic epi(g, 0, 2);
  const auto r = sim::Runner(1u << 16).run(
      epi, gen, sim::until([](const core::SisEpidemic& e) {
        return e.everyone_exposed();
      }));
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(epi.everyone_exposed());
  EXPECT_EQ(epi.round(), r.rounds);
}

TEST(Runner, OccupancyCounterCountsPostStepRounds) {
  const graph::Graph g = gen::build_graph("complete:n=4");
  core::Engine gen(2);
  core::RandomWalk walk(g, 0);
  sim::OccupancyCounter occupancy(1);
  sim::Runner().run(walk, gen, sim::FixedRounds(3000), occupancy);
  EXPECT_EQ(occupancy.rounds(), 3000u);
  // K_4 stationary mass at any one vertex is 1/4.
  EXPECT_NEAR(occupancy.fraction(), 0.25, 0.05);
}

TEST(Runner, ReplicateMatchesMonteCarloContract) {
  const graph::Graph g = gen::build_graph("ring:n=32");
  const auto trial = [&](core::Engine& gen) {
    core::CobraWalk walk(g, 0, 2);
    return static_cast<double>(sim::run_cover(walk, gen).rounds);
  };
  const auto a = sim::replicate(16, 999, trial);
  par::MonteCarloOptions opts;
  opts.base_seed = 999;
  opts.trials = 16;
  const auto b = stats::summarize(par::run_trials(
      par::global_pool(), opts,
      [&](core::Engine& gen, std::uint32_t) { return trial(gen); }));
  EXPECT_EQ(a.count, 16u);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.ci95_half, b.ci95_half);
}

TEST(Runner, CollisionDetectorSeesCoalescence) {
  // Two walkers on a tiny complete graph must eventually merge.
  const graph::Graph g = gen::build_graph("complete:n=4");
  core::Engine gen(3);
  std::vector<core::Vertex> starts = {0, 1, 2, 3};
  core::CoalescingWalks walks(g, starts);
  sim::CollisionDetector collisions;
  sim::Runner().run(
      walks, gen,
      sim::until([](const core::CoalescingWalks& w) {
        return w.walker_count() == 1;
      }),
      collisions);
  EXPECT_TRUE(collisions.collided());
  EXPECT_EQ(collisions.total_losses(), 3u);
  EXPECT_EQ(collisions.total_losses(), walks.merges());
}

}  // namespace
