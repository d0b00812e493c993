/// Small-n smoke checks of the paper's theorems — the full-scale versions
/// live in bench/; these integration tests pin the *direction* of every
/// claim at sizes cheap enough for CI.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/runner.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

namespace cobra {
namespace {

using core::Engine;
using graph::Graph;
using graph::Vertex;

double mean_cobra_cover(const Graph& g, Vertex start, int trials,
                        std::uint64_t seed) {
  par::MonteCarloOptions opts;
  opts.base_seed = seed;
  opts.trials = static_cast<std::uint32_t>(trials);
  const auto results =
      par::run_trials(par::global_pool(), opts,
                      [&](Engine& gen, std::uint32_t) {
                        return sim::cover_rounds<core::CobraWalk>(
                            gen, g, start, 2u);
                      });
  return stats::mean_of(results);
}

// E1 (Theorem 3): 2-cobra cover on the 1-D grid scales ~linearly in n
// (exponent well below the random walk's 2).
TEST(TheoremSmoke, GridCoverGrowsSubquadratically) {
  std::vector<double> ns, covers;
  for (const std::uint32_t side : {16u, 32u, 64u, 128u}) {
    const Graph g = graph::make_path(side);
    ns.push_back(side);
    covers.push_back(mean_cobra_cover(g, 0, 30, 101));
  }
  const auto fit = stats::fit_power_law(ns, covers);
  EXPECT_LT(fit.exponent, 1.5) << "1-D grid cobra cover should be ~linear";
  EXPECT_GT(fit.exponent, 0.5);
}

// E1 contrast: the simple random walk on the path is ~quadratic.
TEST(TheoremSmoke, PathRandomWalkIsQuadratic) {
  par::MonteCarloOptions opts;
  opts.trials = 30;
  std::vector<double> ns, covers;
  for (const std::uint32_t side : {16u, 32u, 64u}) {
    const Graph g = graph::make_path(side);
    opts.base_seed = 200 + side;
    const auto results = par::run_trials(
        par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
          return sim::cover_rounds<core::RandomWalk>(gen, g, 0u);
        });
    ns.push_back(side);
    covers.push_back(stats::mean_of(results));
  }
  const auto fit = stats::fit_power_law(ns, covers);
  EXPECT_GT(fit.exponent, 1.6);
}

// E2/E3 (Theorem 8 / Corollary 9): on random regular (expander) graphs the
// cobra cover time is polylogarithmic — doubling n adds little.
TEST(TheoremSmoke, ExpanderCoverIsPolylog) {
  Engine graph_gen(7);
  const Graph small = gen::random_regular(128, 6, graph_gen());
  const Graph large = gen::random_regular(1024, 6, graph_gen());
  const double cover_small = mean_cobra_cover(small, 0, 30, 301);
  const double cover_large = mean_cobra_cover(large, 0, 30, 302);
  // 8x the vertices must cost far less than 8x the rounds; polylog predicts
  // a factor of (log 1024 / log 128)^2 ~ 2.
  EXPECT_LT(cover_large, 4.0 * cover_small);
}

// E5 (Theorem 20): on the lollipop graph the cobra walk beats the random
// walk by a large factor (RW is Θ(n^3) there).
TEST(TheoremSmoke, LollipopCobraBeatsRandomWalk) {
  const Graph g = graph::make_lollipop(40, 20);
  par::MonteCarloOptions opts;
  opts.trials = 20;
  opts.base_seed = 401;
  const auto cobra = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
      });
  opts.base_seed = 402;
  const auto rw = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::RandomWalk>(gen, g, 0u);
      });
  EXPECT_LT(stats::mean_of(cobra) * 5, stats::mean_of(rw));
}

// E6 (Theorem 1): cover time is bounded by O(hmax log n); check the ratio
// cover / (hmax ln n) is a small constant.
TEST(TheoremSmoke, MatthewsBoundHolds) {
  const Graph g = graph::make_grid(2, 6);  // n = 36
  Engine gen(11);
  const sim::HmaxEstimate hmax = sim::estimate_cobra_hmax(g, 2, gen, 40, 10);
  ASSERT_TRUE(hmax.all_hit);
  const double cover = mean_cobra_cover(g, 0, 40, 501);
  const double bound = hmax.hmax * std::log(g.num_vertices());
  EXPECT_LT(cover, 3.0 * bound);
}

// E7 (Lemma 10): Walt's cover time stochastically dominates the cobra
// walk's when started from the same vertex with delta*n pebbles.
TEST(TheoremSmoke, WaltDominatesCobra) {
  Engine graph_gen(13);
  const Graph g = gen::random_regular(64, 4, graph_gen());
  par::MonteCarloOptions opts;
  opts.trials = 40;
  opts.base_seed = 601;
  const auto cobra = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
      });
  opts.base_seed = 602;
  const auto walt = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::Walt>(gen, g, 0u, g.num_vertices() / 2,
                                             true);
      });
  // Dominance is on distributions; compare means with slack for noise.
  EXPECT_GT(stats::mean_of(walt), 0.8 * stats::mean_of(cobra));
}

// E9: 2-cobra cover on k-ary trees is proportional to the diameter (k=2,3):
// growing the tree by a level adds a roughly constant increment per level.
TEST(TheoremSmoke, TreeCoverTracksDiameter) {
  for (const std::uint32_t arity : {2u, 3u}) {
    std::vector<double> diameters, covers;
    for (const std::uint32_t levels : {4u, 5u, 6u}) {
      const Graph g = graph::make_kary_tree(arity, levels);
      diameters.push_back(2.0 * (levels - 1));
      covers.push_back(mean_cobra_cover(g, 0, 25, 700 + levels));
    }
    // cover / diameter should stay within a small band as the tree grows.
    const double r0 = covers[0] / diameters[0];
    const double r2 = covers[2] / diameters[2];
    EXPECT_LT(r2, 3.0 * r0) << "arity " << arity;
  }
}

// E10 flavor: on a bounded-degree expander, 2-cobra cover is within a
// log-factor band of push gossip (both polylog on expanders).
TEST(TheoremSmoke, CobraComparableToGossipOnExpander) {
  Engine graph_gen(17);
  const Graph g = gen::random_regular(256, 6, graph_gen());
  par::MonteCarloOptions opts;
  opts.trials = 30;
  opts.base_seed = 801;
  const auto cobra = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
      });
  opts.base_seed = 802;
  const auto gossip = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<core::Gossip>(gen, g, 0u,
                                               core::GossipMode::Push);
      });
  const double ratio = stats::mean_of(cobra) / stats::mean_of(gossip);
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 20.0);
}

// E4 (Theorem 15) direction: cobra hitting time on the cycle (δ = 2) grows
// subquadratically (bound n^{1.5}), while RW hitting is ~n^2.
TEST(TheoremSmoke, CycleHittingSubquadratic) {
  std::vector<double> ns, hits;
  par::MonteCarloOptions opts;
  opts.trials = 30;
  for (const std::uint32_t n : {16u, 32u, 64u}) {
    const Graph g = graph::make_cycle(n);
    opts.base_seed = 900 + n;
    const auto results = par::run_trials(
        par::global_pool(), opts, [&, n](Engine& gen, std::uint32_t) {
          return sim::hit_rounds<core::CobraWalk>(gen, n / 2, g, 0u, 2u);
        });
    ns.push_back(n);
    hits.push_back(stats::mean_of(results));
  }
  const auto fit = stats::fit_power_law(ns, hits);
  EXPECT_LT(fit.exponent, 1.8);
}

}  // namespace
}  // namespace cobra
