/// Property sweeps for the process zoo's removal-round processes: on every
/// graph family, the greedy MIS run must end independent AND maximal, and
/// its full round-by-round trajectory must be bit-identical across
/// {serial, 1, 2, 8}-thread pools and ForceSparse/ForceDense/Auto
/// representations. The Moser–Tardos resampler gets the same determinism
/// treatment over random k-SAT systems (its state space is a clause
/// dependency graph, not a graph family).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/greedy_mis.hpp"
#include "core/lll_resampler.hpp"
#include "gen/constraints.hpp"
#include "gen/families.hpp"
#include "gen/registry.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace cobra {
namespace {

using core::Engine;
using core::FrontierMode;
using core::FrontierOptions;
using graph::Graph;
using graph::Vertex;

struct SweepCase {
  std::string name;
  std::function<Graph()> make_graph;
};

std::vector<SweepCase> families() {
  return {
      {"cycle", [] { return graph::make_cycle(240); }},
      {"grid2", [] { return graph::make_grid(2, 16); }},
      {"torus", [] { return graph::make_grid(2, 16, true); }},
      {"hypercube", [] { return graph::make_hypercube(8); }},
      {"complete", [] { return graph::make_complete(128); }},
      {"star", [] { return graph::make_star(200); }},
      {"tree", [] { return graph::make_kary_tree(2, 8); }},
      {"lollipop", [] { return graph::make_lollipop(60, 40); }},
      {"regular",
       [] {
         Engine eng(42);
         return gen::random_regular(512, 4, eng());
       }},
      {"gnp",
       [] {
         Engine eng(43);
         return gen::gnp(400, 0.02, eng());
       }},
      // The benchmark's shape at 2^12: hubs, isolated vertices, and
      // frontiers large enough for dense rounds.
      {"rmat", [] { return gen::build_graph("rmat:n=2^12,deg=16,seed=7"); }},
  };
}

/// Run to extinction, recording (active set, mis) after every round.
std::vector<std::vector<Vertex>> mis_trajectory(const Graph& g,
                                                FrontierOptions opts,
                                                std::uint64_t seed) {
  core::GreedyMIS mis(g, opts);
  Engine gen(seed);
  std::vector<std::vector<Vertex>> trajectory;
  for (int guard = 0; guard < 100000 && !mis.done(); ++guard) {
    mis.step(gen);
    const auto active = mis.active();
    trajectory.emplace_back(active.begin(), active.end());
    trajectory.emplace_back(mis.mis().begin(), mis.mis().end());
  }
  return trajectory;
}

class MisProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MisProperties, EndsIndependentAndMaximal) {
  const Graph g = GetParam().make_graph();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    core::GreedyMIS mis(g);
    Engine gen(seed);
    for (int guard = 0; guard < 100000 && !mis.done(); ++guard) mis.step(gen);
    ASSERT_TRUE(mis.done()) << GetParam().name;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      bool dominated = mis.in_mis(v);
      for (const Vertex u : g.neighbors(v)) {
        if (u == v) continue;
        if (mis.in_mis(u)) {
          ASSERT_FALSE(mis.in_mis(v))
              << GetParam().name << ": edge (" << v << "," << u << ") inside";
          dominated = true;
        }
      }
      ASSERT_TRUE(dominated)
          << GetParam().name << ": vertex " << v << " undominated";
    }
  }
}

TEST_P(MisProperties, BitIdenticalAcrossThreadsAndRepresentations) {
  const Graph g = GetParam().make_graph();
  FrontierOptions serial;
  serial.chunk_size = 64;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  serial.mode = FrontierMode::ForceSparse;
  const auto reference = mis_trajectory(g, serial, 7);
  ASSERT_FALSE(reference.empty());

  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense,
        FrontierMode::Auto}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      par::ThreadPool pool(threads);
      FrontierOptions opts;
      opts.chunk_size = 64;
      opts.parallel_threshold = 1;
      opts.pool = &pool;
      opts.mode = mode;
      EXPECT_EQ(mis_trajectory(g, opts, 7), reference)
          << GetParam().name << " threads=" << threads
          << " mode=" << static_cast<int>(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, MisProperties,
                         ::testing::ValuesIn(families()),
                         [](const ::testing::TestParamInfo<SweepCase>& tpi) {
                           return tpi.param.name;
                         });

/// LLL determinism twin: full trajectory (violated sets + final
/// assignment) identical across pools and representations.
std::vector<std::vector<Vertex>> lll_trajectory(
    const gen::ClauseSystem& sys, const Graph& deps, FrontierOptions opts,
    std::uint64_t seed, std::vector<std::uint8_t>* assignment_out) {
  core::LLLResampler mt(sys, deps, /*init_seed=*/seed, opts);
  Engine gen(seed ^ 0xD00D);
  std::vector<std::vector<Vertex>> trajectory;
  for (int guard = 0; guard < 200000 && !mt.satisfied(); ++guard) {
    mt.step(gen);
    const auto active = mt.active();
    trajectory.emplace_back(active.begin(), active.end());
  }
  EXPECT_TRUE(mt.satisfied());
  if (assignment_out != nullptr) {
    assignment_out->assign(mt.assignment().begin(), mt.assignment().end());
  }
  return trajectory;
}

TEST(LLLProperties, TerminatesSatisfiedOnEveryPinnedSystem) {
  for (const std::uint32_t n : {128u, 512u, 2048u}) {
    const auto sys = gen::random_ksat(n, n + n / 2, 3, 0xF00 + n);
    const Graph deps = gen::dependency_graph(sys);
    std::vector<std::uint8_t> assignment;
    lll_trajectory(sys, deps, {}, /*seed=*/3, &assignment);
    EXPECT_EQ(sys.count_violated(assignment), 0u) << "n=" << n;
  }
}

TEST(LLLProperties, BitIdenticalAcrossThreadsAndRepresentations) {
  const auto sys = gen::random_ksat(768, 1152, 3, 0xBEE);
  const Graph deps = gen::dependency_graph(sys);
  FrontierOptions serial;
  serial.chunk_size = 64;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  serial.mode = FrontierMode::ForceSparse;
  std::vector<std::uint8_t> ref_assignment;
  const auto reference = lll_trajectory(sys, deps, serial, 5, &ref_assignment);
  ASSERT_FALSE(reference.empty());

  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense,
        FrontierMode::Auto}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      par::ThreadPool pool(threads);
      FrontierOptions opts;
      opts.chunk_size = 64;
      opts.parallel_threshold = 1;
      opts.pool = &pool;
      opts.mode = mode;
      std::vector<std::uint8_t> assignment;
      EXPECT_EQ(lll_trajectory(sys, deps, opts, 5, &assignment), reference)
          << "threads=" << threads << " mode=" << static_cast<int>(mode);
      EXPECT_EQ(assignment, ref_assignment);
    }
  }
}

}  // namespace
}  // namespace cobra
