#include "core/frontier_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coalescing_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/generalized_cobra.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_hypercube;
using graph::make_path;

constexpr std::size_t kChunk = 256;  // shared by every compared config

/// k=2 cobra-style sampler over `g` (the engine's canonical workload).
struct TwoSampler {
  const Graph* g;
  NeighborSampler pick;
  template <typename Rng, typename Sink>
  void operator()(Vertex v, Rng& rng, Sink&& sink) const {
    const auto nbrs = g->neighbors(v);
    sink(pick(nbrs, rng));
    sink(pick(nbrs, rng));
  }
};

std::vector<Vertex> run_rounds(const Graph& g, FrontierOptions opts,
                               std::uint64_t rounds) {
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> frontier(g.num_vertices());
  std::iota(frontier.begin(), frontier.end(), 0u);
  std::vector<Vertex> next;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.expand(frontier, next, /*round_seed=*/0x5EED0000ULL + r, sampler);
    frontier.swap(next);
  }
  return frontier;
}

TEST(FrontierEngine, ParallelBitIdenticalToSerialAcrossThreadCounts) {
  Engine graph_gen(21);
  const Graph g = gen::random_regular(20000, 4, graph_gen());

  FrontierOptions serial;
  serial.chunk_size = kChunk;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  const std::vector<Vertex> reference = run_rounds(g, serial, 6);
  ASSERT_GT(reference.size(), 1000u);  // k=2 on an expander keeps Θ(n) alive

  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    FrontierOptions opts;
    opts.chunk_size = kChunk;
    opts.parallel_threshold = 1;
    opts.pool = &pool;
    EXPECT_EQ(run_rounds(g, opts, 6), reference) << threads << " threads";
  }
}

TEST(FrontierEngine, ParallelPathActuallyRuns) {
  Engine graph_gen(22);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  par::ThreadPool pool(2);
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = 1;
  opts.pool = &pool;
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> frontier(g.num_vertices());
  std::iota(frontier.begin(), frontier.end(), 0u);
  std::vector<Vertex> next;
  engine.expand(frontier, next, 7, sampler);
  EXPECT_EQ(engine.parallel_rounds(), 1u);
  EXPECT_EQ(engine.serial_rounds(), 0u);
}

TEST(FrontierEngine, ParallelDenseOpsBitIdenticalToSerialOps) {
  // The dense rounds' parallelized fixed costs (bitmap clear + span
  // overload materialization) are value-independent, so toggling
  // parallel_dense_ops or the pool size must never change a frontier. The
  // cycle is large enough (words >= the helpers' engagement thresholds)
  // that both parallel helpers actually run.
  const Graph g = make_cycle(1u << 21);
  const auto run = [&](FrontierOptions opts) {
    opts.chunk_size = kChunk;
    opts.mode = FrontierMode::ForceDense;
    FrontierEngine engine(g, opts);
    const TwoSampler sampler{&g, NeighborSampler(g)};
    std::vector<Vertex> frontier(64);
    std::iota(frontier.begin(), frontier.end(), 0u);
    std::vector<Vertex> next;
    for (std::uint64_t r = 0; r < 5; ++r) {
      engine.expand(frontier, next, /*round_seed=*/0xD05E + r, sampler);
      frontier.swap(next);
    }
    EXPECT_EQ(engine.dense_rounds(), 5u);
    return frontier;
  };

  FrontierOptions serial;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  const std::vector<Vertex> reference = run(serial);
  ASSERT_FALSE(reference.empty());

  par::ThreadPool pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool2, &pool8}) {
    for (const bool parallel_ops : {true, false}) {
      FrontierOptions opts;
      opts.parallel_threshold = 1;
      opts.pool = pool;
      opts.parallel_dense_ops = parallel_ops;
      EXPECT_EQ(run(opts), reference)
          << pool->size() << " threads, parallel_dense_ops=" << parallel_ops;
    }
  }
}

TEST(FrontierEngine, CobraWalkBitIdenticalAcrossPools) {
  Engine graph_gen(23);
  const Graph g = gen::random_regular(8192, 4, graph_gen());

  CobraWalk serial_walk(g, 0, 3);
  serial_walk.engine().options().chunk_size = kChunk;
  serial_walk.engine().options().parallel_threshold =
      static_cast<std::size_t>(-1);

  par::ThreadPool pool2(2), pool8(8);
  CobraWalk walk2(g, 0, 3), walk8(g, 0, 3);
  walk2.engine().options() = {kChunk, 1, &pool2};
  walk8.engine().options() = {kChunk, 1, &pool8};

  Engine e_serial(99), e2(99), e8(99);
  for (int t = 0; t < 25; ++t) {
    serial_walk.step(e_serial);
    walk2.step(e2);
    walk8.step(e8);
    const auto expected = std::vector<Vertex>(serial_walk.active().begin(),
                                              serial_walk.active().end());
    ASSERT_EQ(std::vector<Vertex>(walk2.active().begin(), walk2.active().end()),
              expected)
        << "round " << t << " (2 threads)";
    ASSERT_EQ(std::vector<Vertex>(walk8.active().begin(), walk8.active().end()),
              expected)
        << "round " << t << " (8 threads)";
  }
  EXPECT_GT(walk2.engine().parallel_rounds(), 0u);
  EXPECT_GT(walk8.engine().parallel_rounds(), 0u);
}

TEST(NeighborSampler, FastPathBitIdenticalToLemire) {
  // Q_4 is 4-regular: power-of-two degree, fast path armed.
  const Graph g = make_hypercube(4);
  const NeighborSampler pick(g);
  ASSERT_TRUE(pick.fast_path());

  Engine fast_gen(1234), generic_gen(1234);
  const auto nbrs = g.neighbors(5);
  for (int i = 0; i < 50000; ++i) {
    const Vertex fast = pick(nbrs, fast_gen);
    const Vertex generic = nbrs[static_cast<std::size_t>(
        rng::uniform_below(generic_gen, nbrs.size()))];
    ASSERT_EQ(fast, generic) << "draw " << i;
  }
  // Identical draw counts too: the engines stay in lock-step.
  EXPECT_EQ(fast_gen.state(), generic_gen.state());
}

TEST(NeighborSampler, FastPathIsUniform) {
  const Graph g = make_grid(2, 64, /*torus=*/true);  // 4-regular
  const NeighborSampler pick(g);
  ASSERT_TRUE(pick.fast_path());
  Engine gen(77);
  const auto nbrs = g.neighbors(0);
  std::vector<int> counts(nbrs.size(), 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const Vertex u = pick(nbrs, gen);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j] == u) {
        ++counts[j];
        break;
      }
    }
  }
  const double expect = kDraws / static_cast<double>(nbrs.size());
  for (const int c : counts) {
    EXPECT_NEAR(c, expect, 5.0 * std::sqrt(expect));  // ~5 sigma
  }
}

TEST(NeighborSampler, GenericPathForNonPow2AndDegreeOne) {
  Engine graph_gen(24);
  EXPECT_FALSE(NeighborSampler(make_hypercube(3)).fast_path());  // 3-regular
  EXPECT_FALSE(
      NeighborSampler(gen::random_regular(100, 6, graph_gen())).fast_path());
  EXPECT_FALSE(NeighborSampler(make_path(2)).fast_path());  // 1-regular
  EXPECT_FALSE(NeighborSampler(make_path(5)).fast_path());  // irregular
}

TEST(FrontierEngine, EmptyFrontierIsFree) {
  const Graph g = make_cycle(16);
  FrontierEngine engine(g);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> next{3, 4};  // stale content must be cleared
  engine.expand({}, next, 1, sampler);
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(engine.serial_rounds(), 0u);
  EXPECT_EQ(engine.parallel_rounds(), 0u);
}

TEST(FrontierEngine, ExtinctGeneralizedWalkStepsAreCheapNoOps) {
  const Graph g = make_cycle(16);
  GeneralizedCobraWalk walk(g, 0, schedules::faulty(2, 1.0));  // always drop
  Engine gen(5);
  walk.step(gen);
  ASSERT_TRUE(walk.extinct());
  const auto state_before = gen.state();
  for (int t = 0; t < 100; ++t) walk.step(gen);
  EXPECT_TRUE(walk.extinct());
  EXPECT_EQ(walk.round(), 101u);
  // No randomness consumed, no round run: the step is a pure counter.
  EXPECT_EQ(gen.state(), state_before);
}

/// Run `rounds` rounds through the Frontier-object API, recording the
/// frontier after every round. The record is decoded from a FrontierView,
/// not through vertices(): a cached list would make the next round walk
/// the list instead of the bitmap, hiding the dense-input path.
std::vector<std::vector<Vertex>> run_trajectory(const Graph& g,
                                                FrontierOptions opts,
                                                std::uint64_t rounds) {
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);
  std::vector<std::vector<Vertex>> trajectory;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // Same seed schedule as run_rounds, so span-API and Frontier-API
    // trajectories are directly comparable.
    engine.expand(frontier, next, /*round_seed=*/0x5EED0000ULL + r, sampler);
    frontier.swap(next);
    const FrontierView view(frontier);
    std::vector<Vertex> vs(view.list().begin(), view.list().end());
    if (view.dense()) {
      detail::decode_bits(view.words(), 0, view.words().size(), vs);
    }
    trajectory.push_back(std::move(vs));
  }
  return trajectory;
}

TEST(FrontierEngine, SparseAndDensePathsProduceIdenticalTrajectories) {
  // n = 1000 with chunk_size = 100: a partial last bitmap word, and a
  // chunk size the engine must round up to 128.
  const struct {
    std::uint32_t n;
    std::size_t chunk;
  } cases[] = {{4096, kChunk}, {1000, 100}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.n);
    Engine graph_gen(31);
    const Graph g = gen::random_regular(c.n, 4, graph_gen());

    FrontierOptions sparse;
    sparse.chunk_size = c.chunk;
    sparse.parallel_threshold = static_cast<std::size_t>(-1);
    sparse.mode = FrontierMode::ForceSparse;
    FrontierOptions dense = sparse;
    dense.mode = FrontierMode::ForceDense;
    FrontierOptions automatic = sparse;
    automatic.mode = FrontierMode::Auto;

    const auto ref = run_trajectory(g, sparse, 8);
    EXPECT_EQ(run_trajectory(g, dense, 8), ref);
    EXPECT_EQ(run_trajectory(g, automatic, 8), ref);
    // The span-in/vector-out API (gossip's path) must agree as well — it
    // shares the chunk streams, only the output plumbing differs.
    EXPECT_EQ(run_rounds(g, dense, 8), ref.back());
  }
}

TEST(FrontierEngine, ForcedModesBitIdenticalAcrossThreadCounts) {
  // Every round of a k = 2 walk from all vertices emits duplicate
  // offspring, so the pooled sparse rounds exercise the sort + unique of
  // interleaved worker claim lists, and the pooled dense rounds the shared
  // fetch_or bitmap.
  Engine graph_gen(32);
  const Graph g = gen::random_regular(20000, 4, graph_gen());

  FrontierOptions serial;
  serial.chunk_size = kChunk;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  serial.mode = FrontierMode::ForceSparse;
  const auto reference = run_trajectory(g, serial, 6);
  ASSERT_GT(reference.back().size(), 1000u);

  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense}) {
    const char* name = mode == FrontierMode::ForceDense ? "dense" : "sparse";
    for (const std::size_t threads : {1u, 2u, 8u}) {
      par::ThreadPool pool(threads);
      FrontierOptions opts = serial;
      opts.mode = mode;
      opts.parallel_threshold = 1;
      opts.pool = &pool;
      EXPECT_EQ(run_trajectory(g, opts, 6), reference)
          << threads << " threads (forced " << name << ")";
    }
  }
}

TEST(FrontierEngine, DenseRoundsAreTakenAndCountedInAutoMode) {
  Engine graph_gen(33);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = static_cast<std::size_t>(-1);
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);  // Θ(n) frontier: must run dense
  engine.expand(frontier, next, 9, sampler);
  EXPECT_EQ(engine.dense_rounds(), 1u);
  EXPECT_EQ(engine.sparse_rounds(), 0u);
  EXPECT_TRUE(next.dense());
  // The materialized view is sorted and duplicate-free by construction.
  const auto vs = next.vertices();
  EXPECT_EQ(next.size(), vs.size());
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end()));
  EXPECT_TRUE(std::adjacent_find(vs.begin(), vs.end()) == vs.end());
}

TEST(FrontierEngine, SwitchHysteresisAcrossACoalescenceRun) {
  // Coalescing walks from every vertex of K_n: the walker set starts at
  // Θ(n) (dense) and shrinks to 1 (sparse), crossing the switch band on
  // the way down; a cobra walk from one vertex crosses it upward. With
  // dense_alpha = 8 on n = 1024 the engine enters dense above 128 and
  // leaves below 64 — inside that band the PREVIOUS representation must
  // stick (hysteresis), and the run must record exactly the transitions.
  const Graph g = make_complete(1024);
  CoalescingWalks walks(g, [] {
    std::vector<Vertex> all(1024);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }());
  auto& opts = walks.engine().options();
  opts.parallel_threshold = static_cast<std::size_t>(-1);
  opts.dense_alpha = 8.0;

  Engine gen(77);
  bool saw_band_round = false;
  while (walks.walker_count() > 1 && walks.round() < 100000) {
    const std::size_t before = walks.walker_count();
    const std::uint64_t dense_before = walks.engine().dense_rounds();
    walks.step(gen);
    if (before >= 64 && before <= 128) {
      // Inside the hysteresis band coming down from dense: stays dense.
      EXPECT_EQ(walks.engine().dense_rounds(), dense_before + 1)
          << "band round at walker count " << before;
      saw_band_round = true;
    }
  }
  EXPECT_EQ(walks.walker_count(), 1u);
  EXPECT_TRUE(saw_band_round);
  EXPECT_GT(walks.engine().dense_rounds(), 0u);
  EXPECT_GT(walks.engine().sparse_rounds(), 0u);
  EXPECT_EQ(walks.engine().switches(), 1u);  // dense -> sparse exactly once

  // And the trajectory is representation-independent: a forced-sparse twin
  // reproduces the identical walker sets round for round.
  CoalescingWalks sparse_twin(g, [] {
    std::vector<Vertex> all(1024);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }());
  sparse_twin.engine().options().parallel_threshold =
      static_cast<std::size_t>(-1);
  sparse_twin.engine().options().mode = FrontierMode::ForceSparse;
  Engine gen2(77);
  for (std::uint64_t r = 0; r < walks.round(); ++r) sparse_twin.step(gen2);
  EXPECT_EQ(std::vector<Vertex>(sparse_twin.active().begin(),
                                sparse_twin.active().end()),
            std::vector<Vertex>(walks.active().begin(), walks.active().end()));
}

TEST(FrontierEngine, InterleavedSparseAndDenseRoundsMatchAllSparse) {
  // Sparse rounds never touch the bitmap, and dense rounds clear it at
  // round start. Alternating representations round by round on one engine
  // must therefore match the all-sparse reference exactly.
  Engine graph_gen(34);
  const Graph g = gen::random_regular(4096, 4, graph_gen());
  const TwoSampler sampler{&g, NeighborSampler(g)};

  auto run = [&](bool alternate) {
    FrontierOptions opts;
    opts.chunk_size = kChunk;
    opts.parallel_threshold = static_cast<std::size_t>(-1);
    opts.mode = FrontierMode::ForceSparse;
    FrontierEngine engine(g, opts);
    std::vector<Vertex> all(g.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    Frontier frontier, next;
    engine.dedupe(all, frontier);
    std::vector<std::vector<Vertex>> trajectory;
    for (std::uint64_t r = 0; r < 10; ++r) {
      engine.options().mode = (alternate && r % 2 == 1)
                                  ? FrontierMode::ForceDense
                                  : FrontierMode::ForceSparse;
      engine.expand(frontier, next, 0xAB0BAULL + r, sampler);
      frontier.swap(next);
      const auto vs = frontier.vertices();
      trajectory.emplace_back(vs.begin(), vs.end());
    }
    return trajectory;
  };

  EXPECT_EQ(run(/*alternate=*/true), run(/*alternate=*/false));
}

TEST(FrontierEngine, ParallelThresholdIsAWorkEstimate) {
  // 300 active vertices with branching_hint 8 is 2400 estimated samples:
  // above a threshold of 1000 even though the raw frontier is below it.
  Engine graph_gen(35);
  const Graph g = gen::random_regular(2048, 4, graph_gen());
  par::ThreadPool pool(2);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> frontier(300);
  std::iota(frontier.begin(), frontier.end(), 0u);
  std::vector<Vertex> next;

  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = 1000;
  opts.pool = &pool;
  opts.branching_hint = 8.0;
  FrontierEngine hinted(g, opts);
  hinted.expand(frontier, next, 3, sampler);
  EXPECT_EQ(hinted.parallel_rounds(), 1u);

  opts.branching_hint = 1.0;  // same frontier, honest hint: stays in-line
  FrontierEngine unhinted(g, opts);
  unhinted.expand(frontier, next, 3, sampler);
  EXPECT_EQ(unhinted.serial_rounds(), 1u);
  EXPECT_EQ(unhinted.parallel_rounds(), 0u);
}

/// Which public round entry point a counter case steps.
enum class RoundKind { ExpandFrontier, ExpandVector, Retain };

/// Sampler with a data-dependent branching factor (1-3 offspring) that
/// tallies its own sink calls: the independent count last_emitted() is
/// checked against. Shared across workers, hence the atomic tally.
struct CountingSampler {
  const Graph* g;
  NeighborSampler pick;
  std::atomic<std::uint64_t>* calls;
  template <typename Rng, typename Sink>
  void operator()(Vertex v, Rng& rng, Sink&& sink) const {
    const auto nbrs = g->neighbors(v);
    const std::uint64_t k = 1 + v % 3;
    for (std::uint64_t i = 0; i < k; ++i) sink(pick(nbrs, rng));
    calls->fetch_add(k, std::memory_order_relaxed);
  }
};

/// Per-round record of one engine run: the output frontier and the
/// engine's counters next to their independent references.
struct CountedRun {
  std::vector<std::vector<Vertex>> outputs;
  std::vector<std::uint64_t> emitted;   ///< last_emitted()
  std::vector<std::uint64_t> expected;  ///< sink calls, or |frontier|
  std::vector<std::uint64_t> rng_blocks;
  std::vector<std::uint64_t> occupied;  ///< input chunks holding a vertex
  std::uint64_t serial_rounds = 0;
  std::uint64_t parallel_rounds = 0;
};

CountedRun run_counted(const Graph& g, RoundKind kind, FrontierMode mode,
                       par::ThreadPool* pool, std::uint64_t rounds) {
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.mode = mode;
  opts.pool = pool;
  opts.parallel_threshold = pool != nullptr ? 1 : static_cast<std::size_t>(-1);
  FrontierEngine engine(g, opts);
  std::atomic<std::uint64_t> calls{0};
  const CountingSampler sampler{&g, NeighborSampler(g), &calls};
  std::vector<Vertex> list;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) list.push_back(v);
  Frontier frontier, next;
  engine.dedupe(list, frontier);
  std::vector<Vertex> out;
  CountedRun run;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    calls = 0;
    const std::uint64_t seed = 0xC0DE0000ULL + r;
    const std::size_t in_size = frontier.size();
    // `list` holds this round's input; kChunk is word-aligned, so it is the
    // engine's chunk span.
    std::uint64_t occupied = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      occupied += i == 0 || list[i] / kChunk != list[i - 1] / kChunk;
    }
    run.occupied.push_back(occupied);
    switch (kind) {
      case RoundKind::ExpandFrontier:
        engine.expand(frontier, next, seed, sampler);
        break;
      case RoundKind::ExpandVector:
        engine.expand(list, out, seed, sampler);
        list.swap(out);
        break;
      case RoundKind::Retain:
        engine.retain(frontier, next, [r](Vertex v) {
          return (v + static_cast<Vertex>(r)) % 4 != 0;
        });
        break;
    }
    if (kind != RoundKind::ExpandVector) {
      frontier.swap(next);
      // Decode from a view, not vertices(): a cached list would hide the
      // dense-input walk from the next round.
      const FrontierView view(frontier);
      list.assign(view.list().begin(), view.list().end());
      if (view.dense()) {
        detail::decode_bits(view.words(), 0, view.words().size(), list);
      }
    }
    run.outputs.push_back(list);
    run.emitted.push_back(engine.last_emitted());
    run.expected.push_back(kind == RoundKind::Retain ? in_size : calls.load());
    run.rng_blocks.push_back(engine.last_rng_blocks());
  }
  run.serial_rounds = engine.serial_rounds();
  run.parallel_rounds = engine.parallel_rounds();
  return run;
}

/// (round kind, representation, pooled on a pool of 2).
using CounterCase = std::tuple<RoundKind, FrontierMode, bool>;
class FrontierCounters : public ::testing::TestWithParam<CounterCase> {};

TEST_P(FrontierCounters, EmittedRngBlocksAndPathCountsArePinned) {
  const auto [kind, mode, pooled] = GetParam();
  Engine graph_gen(36);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  constexpr std::uint64_t kRounds = 4;
  par::ThreadPool pool(2);
  const CountedRun run =
      run_counted(g, kind, mode, pooled ? &pool : nullptr, kRounds);
  const CountedRun serial = run_counted(g, kind, mode, nullptr, kRounds);
  // Every output is compared with the Frontier-overload expand, so the
  // vector overload is pinned to Frontier::vertices() as well.
  const CountedRun reference =
      kind == RoundKind::Retain
          ? serial
          : run_counted(g, RoundKind::ExpandFrontier, mode, nullptr, kRounds);

  EXPECT_EQ(run.outputs, reference.outputs);
  EXPECT_EQ(run.emitted, run.expected);
  EXPECT_EQ(run.rng_blocks, serial.rng_blocks);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    SCOPED_TRACE(r);
    EXPECT_GT(run.emitted[r], 0u);
    // One chunk stream seeded per occupied input chunk; none on retain.
    EXPECT_EQ(run.rng_blocks[r],
              kind == RoundKind::Retain ? 0u : run.occupied[r]);
  }
  EXPECT_EQ(run.parallel_rounds, pooled ? kRounds : 0u);
  EXPECT_EQ(run.serial_rounds, pooled ? 0u : kRounds);
}

std::string counter_case_name(
    const ::testing::TestParamInfo<FrontierCounters::ParamType>& info) {
  const auto [kind, mode, pooled] = info.param;
  static constexpr const char* kKinds[] = {"ExpandFrontier", "ExpandVector",
                                           "Retain"};
  return std::string(kKinds[static_cast<int>(kind)]) +
         (mode == FrontierMode::ForceDense ? "Dense" : "Sparse") +
         (pooled ? "Pool2" : "Serial");
}

INSTANTIATE_TEST_SUITE_P(
    AllRoundKinds, FrontierCounters,
    ::testing::Combine(::testing::Values(RoundKind::ExpandFrontier,
                                         RoundKind::ExpandVector,
                                         RoundKind::Retain),
                       ::testing::Values(FrontierMode::ForceSparse,
                                         FrontierMode::ForceDense),
                       ::testing::Bool()),
    counter_case_name);

TEST(FrontierEngine, DedupeYieldsACanonicalFrontier) {
  const Graph g = make_cycle(8);
  FrontierEngine engine(g);
  const auto listed = [](const Frontier& f) {
    return std::vector<Vertex>(f.vertices().begin(), f.vertices().end());
  };
  // Canonical output whether or not it had to sort.
  Frontier frontier;
  const std::vector<Vertex> ascending{0, 2, 5, 6};
  engine.dedupe(ascending, frontier);
  EXPECT_FALSE(frontier.dense());
  EXPECT_EQ(frontier.size(), 4u);
  EXPECT_EQ(listed(frontier), ascending);
  const std::vector<Vertex> in{3, 1, 3, 2, 1, 7};
  engine.dedupe(in, frontier);
  EXPECT_EQ(frontier.size(), 4u);
  EXPECT_EQ(listed(frontier), (std::vector<Vertex>{1, 2, 3, 7}));
  // Ascending input with repeats skips the sort but not the unique.
  engine.dedupe(std::vector<Vertex>{0, 0, 4, 4, 4, 5}, frontier);
  EXPECT_EQ(listed(frontier), (std::vector<Vertex>{0, 4, 5}));

  // Aliasing: `in` may view the very list `out` overwrites (a walk reset
  // from a subspan of its own active set, or from all of it).
  engine.dedupe(in, frontier);
  engine.dedupe(frontier.vertices().subspan(1), frontier);
  EXPECT_EQ(listed(frontier), (std::vector<Vertex>{2, 3, 7}));
  engine.dedupe(frontier.vertices(), frontier);
  EXPECT_EQ(listed(frontier), (std::vector<Vertex>{2, 3, 7}));
  // ...including the list a dense frontier materializes on demand.
  Frontier dense;
  engine.options().mode = FrontierMode::ForceDense;
  engine.expand(frontier, dense, 9, TwoSampler{&g, NeighborSampler(g)});
  ASSERT_TRUE(dense.dense());
  const std::vector<Vertex> expected = listed(dense);
  engine.dedupe(dense.vertices().subspan(1), dense);
  EXPECT_FALSE(dense.dense());
  EXPECT_EQ(listed(dense),
            std::vector<Vertex>(expected.begin() + 1, expected.end()));
}

}  // namespace
}  // namespace cobra::core
