/// Unit tests for the parallel randomized greedy MIS process: the winner
/// predicate against hand-evaluated priorities, independence/maximality at
/// extinction, degenerate graphs, reset reproducibility, and the no-op
/// contract once done.

#include "core/greedy_mis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "rng/splitmix64.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_kary_tree;
using graph::make_star;

void run_to_done(GreedyMIS& mis, Engine& gen) {
  for (int guard = 0; guard < 100000 && !mis.done(); ++guard) mis.step(gen);
  ASSERT_TRUE(mis.done());
}

void expect_independent_and_maximal(const Graph& g, const GreedyMIS& mis) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool dominated = mis.in_mis(v);
    for (const Vertex u : g.neighbors(v)) {
      if (u == v) continue;
      if (mis.in_mis(u)) {
        EXPECT_FALSE(mis.in_mis(v)) << "edge (" << v << "," << u << ") inside";
        dominated = true;
      }
    }
    EXPECT_TRUE(dominated) << "vertex " << v << " undominated (not maximal)";
  }
}

TEST(GreedyMIS, FirstRoundWinnersAreExactlyTheHashLocalMinima) {
  const Graph g = make_cycle(12);
  GreedyMIS mis(g);
  Engine gen(321), twin(321);
  const std::uint64_t round_seed = twin();  // the one draw step() makes
  mis.step(gen);

  std::vector<Vertex> expect;
  for (Vertex v = 0; v < 12; ++v) {
    const std::uint64_t pv = rng::derive_seed(round_seed, v);
    bool minimal = true;
    for (const Vertex u : g.neighbors(v)) {
      const std::uint64_t pu = rng::derive_seed(round_seed, u);
      if (pu < pv || (pu == pv && u < v)) minimal = false;
    }
    if (minimal) expect.push_back(v);
  }
  ASSERT_FALSE(expect.empty());
  const auto got = mis.mis();
  EXPECT_EQ(std::vector<Vertex>(got.begin(), got.end()), expect);
  EXPECT_EQ(mis.last_winners(), expect.size());

  // Winners and their neighbors left the active set; everyone else stayed.
  std::set<Vertex> gone;
  for (const Vertex w : expect) {
    gone.insert(w);
    for (const Vertex u : g.neighbors(w)) gone.insert(u);
  }
  const auto active = mis.active();
  EXPECT_EQ(active.size(), 12u - gone.size());
  for (const Vertex v : active) EXPECT_FALSE(gone.contains(v));
}

TEST(GreedyMIS, IndependentAndMaximalAtExtinction) {
  Engine graph_gen(51);
  const std::vector<Graph> graphs = {
      make_cycle(97),      make_complete(32),
      make_star(64),       make_kary_tree(3, 5),
      gen::random_regular(512, 6, graph_gen())};
  std::uint64_t seed = 100;
  for (const Graph& g : graphs) {
    GreedyMIS mis(g);
    Engine gen(seed++);
    run_to_done(mis, gen);
    expect_independent_and_maximal(g, mis);
    // The collected list is canonical and consistent with the flags.
    const auto m = mis.mis();
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    EXPECT_TRUE(std::adjacent_find(m.begin(), m.end()) == m.end());
    for (const Vertex v : m) EXPECT_TRUE(mis.in_mis(v));
  }
}

TEST(GreedyMIS, CompleteGraphFinishesInOneRoundWithOneVertex) {
  const Graph g = make_complete(64);
  GreedyMIS mis(g);
  Engine gen(9);
  mis.step(gen);
  EXPECT_TRUE(mis.done());
  EXPECT_EQ(mis.round(), 1u);
  EXPECT_EQ(mis.mis().size(), 1u);
}

TEST(GreedyMIS, SingleVertexGraph) {
  const Graph g = graph::make_path(1);
  GreedyMIS mis(g);
  Engine gen(1);
  mis.step(gen);
  EXPECT_TRUE(mis.done());
  EXPECT_EQ(std::vector<Vertex>(mis.mis().begin(), mis.mis().end()),
            std::vector<Vertex>{0});
}

TEST(GreedyMIS, ResetReproducesTheRunExactly) {
  Engine graph_gen(52);
  const Graph g = gen::random_regular(256, 4, graph_gen());
  GreedyMIS mis(g);
  Engine gen1(77);
  run_to_done(mis, gen1);
  const std::vector<Vertex> first(mis.mis().begin(), mis.mis().end());
  const auto rounds = mis.round();

  mis.reset();
  EXPECT_FALSE(mis.done());
  EXPECT_EQ(mis.round(), 0u);
  EXPECT_EQ(mis.mis().size(), 0u);
  EXPECT_EQ(mis.active().size(), g.num_vertices());
  Engine gen2(77);
  run_to_done(mis, gen2);
  EXPECT_EQ(std::vector<Vertex>(mis.mis().begin(), mis.mis().end()), first);
  EXPECT_EQ(mis.round(), rounds);
}

TEST(GreedyMIS, StepAfterDoneIsAPureNoOp) {
  const Graph g = make_complete(8);
  GreedyMIS mis(g);
  Engine gen(5);
  run_to_done(mis, gen);
  const auto state = gen.state();
  const auto rounds = mis.round();
  const std::vector<Vertex> m(mis.mis().begin(), mis.mis().end());
  for (int t = 0; t < 50; ++t) mis.step(gen);
  EXPECT_EQ(gen.state(), state);  // no randomness consumed
  EXPECT_EQ(mis.round(), rounds);
  EXPECT_EQ(std::vector<Vertex>(mis.mis().begin(), mis.mis().end()), m);
}

TEST(GreedyMIS, SeedsActuallySteerTheOutcome) {
  // On an odd cycle the MIS is seed-dependent; over 32 seeds we must see
  // at least two distinct outcomes (the randomness is live, not vestigial).
  const Graph g = make_cycle(9);
  std::set<std::vector<Vertex>> outcomes;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    GreedyMIS mis(g);
    Engine gen(seed);
    run_to_done(mis, gen);
    outcomes.emplace(mis.mis().begin(), mis.mis().end());
  }
  EXPECT_GE(outcomes.size(), 2u);
}

}  // namespace
}  // namespace cobra::core
