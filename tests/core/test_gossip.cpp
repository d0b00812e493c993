#include "core/gossip.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_path;
using graph::make_star;

TEST(Gossip, StartsWithOneInformed) {
  const Graph g = make_cycle(10);
  const Gossip gossip(g, 4);
  EXPECT_EQ(gossip.informed_count(), 1u);
  EXPECT_TRUE(gossip.is_informed(4));
  EXPECT_FALSE(gossip.is_informed(5));
  EXPECT_FALSE(gossip.complete());
}

TEST(Gossip, InformedSetGrowsMonotonically) {
  const Graph g = make_complete(50);
  Engine gen(1);
  Gossip gossip(g, 0);
  std::uint32_t prev = 1;
  for (int t = 0; t < 30 && !gossip.complete(); ++t) {
    gossip.step(gen);
    EXPECT_GE(gossip.informed_count(), prev);
    // Push at most doubles the informed set per round.
    EXPECT_LE(gossip.informed_count(), 2 * prev);
    prev = gossip.informed_count();
  }
}

TEST(Gossip, PushCompletesOnCompleteGraphQuickly) {
  // Push on K_n completes in ~log2 n + ln n rounds; give 10x slack.
  const Graph g = make_complete(128);
  Engine gen(2);
  Gossip gossip(g, 0);
  int rounds = 0;
  while (!gossip.complete() && rounds < 120) {
    gossip.step(gen);
    ++rounds;
  }
  EXPECT_TRUE(gossip.complete());
  EXPECT_LT(rounds, 120);
}

TEST(Gossip, PushOnPathIsSlow) {
  // Push on a path can only extend the informed interval by one per side
  // per round (at best), so completing needs >= (n-1)/2 rounds.
  const Graph g = make_path(40);
  Engine gen(3);
  Gossip gossip(g, 20);
  int rounds = 0;
  while (!gossip.complete() && rounds < 100000) {
    gossip.step(gen);
    ++rounds;
  }
  EXPECT_TRUE(gossip.complete());
  EXPECT_GE(rounds, 19);
}

TEST(Gossip, PullCompletesOnStar) {
  // Pull with the hub informed: every leaf polls the hub each round, so one
  // round informs everyone.
  const Graph g = make_star(30);
  Engine gen(4);
  Gossip gossip(g, 0, GossipMode::Pull);
  gossip.step(gen);
  EXPECT_TRUE(gossip.complete());
}

TEST(Gossip, PushOnStarIsThrottled) {
  // Push with a leaf informed: the leaf informs the hub in round 1, then the
  // hub pushes one leaf per round -> ~n rounds.
  const Graph g = make_star(20);
  Engine gen(5);
  Gossip gossip(g, 1, GossipMode::Push);
  int rounds = 0;
  while (!gossip.complete() && rounds < 100000) {
    gossip.step(gen);
    ++rounds;
  }
  EXPECT_TRUE(gossip.complete());
  EXPECT_GE(rounds, 19);  // 18 remaining leaves, 1/round, plus hub round
}

TEST(Gossip, PushPullBeatsPushOnStar) {
  const Graph g = make_star(64);
  Engine gen(6);
  double push_total = 0, pushpull_total = 0;
  for (int rep = 0; rep < 20; ++rep) {
    Gossip push(g, 1, GossipMode::Push);
    while (!push.complete()) push.step(gen);
    push_total += static_cast<double>(push.round());
    Gossip pp(g, 1, GossipMode::PushPull);
    while (!pp.complete()) pp.step(gen);
    pushpull_total += static_cast<double>(pp.round());
  }
  EXPECT_LT(pushpull_total * 5, push_total);  // push-pull is drastically faster
}

TEST(Gossip, SnapshotSemantics) {
  // Vertices informed in round t must not push in round t (they start in
  // round t+1). On a path with push: the frontier advances at most one hop
  // per round.
  const Graph g = make_path(10);
  Engine gen(7);
  Gossip gossip(g, 0);
  for (int t = 0; t < 5; ++t) {
    gossip.step(gen);
    EXPECT_LE(gossip.informed_count(), static_cast<std::uint32_t>(t + 2));
  }
}

TEST(Gossip, ResetClearsState) {
  const Graph g = make_complete(10);
  Engine gen(8);
  Gossip gossip(g, 0);
  for (int t = 0; t < 5; ++t) gossip.step(gen);
  gossip.reset(3);
  EXPECT_EQ(gossip.informed_count(), 1u);
  EXPECT_TRUE(gossip.is_informed(3));
  EXPECT_EQ(gossip.round(), 0u);
}

TEST(Gossip, WorksWithCoverEngine) {
  const Graph g = make_complete(32);
  Engine gen(9);
  Gossip gossip(g, 0, GossipMode::Push);
  const sim::RunResult r = sim::run_cover(gossip, gen);
  EXPECT_TRUE(r.stopped);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_LT(r.rounds, 200u);
}

TEST(Gossip, InvalidConstruction) {
  EXPECT_THROW(Gossip(Graph{}, 0), std::invalid_argument);
  const Graph g = make_path(3);
  EXPECT_THROW(Gossip(g, 5), std::out_of_range);
}

TEST(Gossip, UninformedListIsExactComplement) {
  const Graph g = make_cycle(40);
  Engine gen(10);
  Gossip gossip(g, 7, GossipMode::PushPull);
  for (int t = 0; t < 30; ++t) {
    EXPECT_EQ(gossip.uninformed().size() + gossip.informed_count(),
              g.num_vertices());
    std::vector<char> seen(g.num_vertices(), 0);
    for (const Vertex v : gossip.uninformed()) {
      EXPECT_FALSE(gossip.is_informed(v));
      EXPECT_EQ(seen[v], 0) << "duplicate in uninformed list";
      seen[v] = 1;
    }
    if (gossip.complete()) break;
    gossip.step(gen);
  }
}

TEST(Gossip, PullRoundsAreThreadCountInvariant) {
  // Both phases run on the FrontierEngine, so the informed set after every
  // round must be bit-identical across pool sizes (chunked determinism),
  // including the pull phase over the maintained uninformed list.
  const Graph g = make_complete(600);
  auto run = [&](std::size_t threads) {
    par::ThreadPool pool(threads);
    Gossip gossip(g, 0, GossipMode::PushPull);
    gossip.engine().options().pool = &pool;
    gossip.engine().options().parallel_threshold = 16;
    gossip.engine().options().chunk_size = 64;
    Engine gen(11);
    std::vector<std::vector<Vertex>> informed_per_round;
    while (!gossip.complete() && gossip.round() < 100) {
      gossip.step(gen);
      informed_per_round.emplace_back(gossip.active().begin(),
                                      gossip.active().end());
    }
    return informed_per_round;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

}  // namespace
}  // namespace cobra::core
