#include "graph/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/families.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::graph {
namespace {

TEST(CutConductance, HandComputed) {
  // Path 0-1-2-3; S = {0, 1}: boundary = 1 edge, vol(S) = 1 + 2 = 3.
  const Graph g = make_path(4);
  const double phi = cut_conductance(g, {true, true, false, false});
  EXPECT_DOUBLE_EQ(phi, 1.0 / 3.0);
}

TEST(CutConductance, TakesSmallerSide) {
  // S = {0}: vol(S) = 1, complement vol = 5; boundary 1 -> 1/1.
  const Graph g = make_path(4);
  EXPECT_DOUBLE_EQ(cut_conductance(g, {true, false, false, false}), 1.0);
  // Complement mask must give the same value.
  EXPECT_DOUBLE_EQ(cut_conductance(g, {false, true, true, true}), 1.0);
}

TEST(CutConductance, DegenerateCutIsInfinite) {
  const Graph g = make_cycle(4);
  EXPECT_TRUE(std::isinf(cut_conductance(g, {false, false, false, false})));
  EXPECT_TRUE(std::isinf(cut_conductance(g, {true, true, true, true})));
}

TEST(ExactConductance, CompleteGraph) {
  // K4: min cut is a single vertex or pair; phi(K4) = min over subsets.
  // S={v}: boundary 3, vol 3 -> 1. S={u,v}: boundary 4, vol 6 -> 2/3.
  const Graph g = make_complete(4);
  EXPECT_NEAR(exact_conductance_small(g), 2.0 / 3.0, 1e-12);
}

TEST(ExactConductance, CycleHalves) {
  // C8: best cut is two arcs of 4; boundary 2, vol 8 -> 1/4.
  const Graph g = make_cycle(8);
  EXPECT_NEAR(exact_conductance_small(g), 0.25, 1e-12);
}

TEST(ExactConductance, BarbellIsBottlenecked) {
  // Two K5 joined by an edge: cutting the bridge gives phi ~ 1/21.
  const Graph g = make_barbell(5, 0);
  EXPECT_NEAR(exact_conductance_small(g), 1.0 / 21.0, 1e-12);
}

TEST(ExactConductance, RangeGuard) {
  EXPECT_THROW((void)exact_conductance_small(make_path(1)), std::invalid_argument);
  // n = 25 > 24 is rejected.
  EXPECT_THROW((void)exact_conductance_small(make_grid(2, 5)), std::invalid_argument);
}

TEST(Spectrum, CycleMatchesClosedForm) {
  for (const std::uint32_t n : {8u, 16u, 32u}) {
    const Graph g = make_cycle(n);
    const SpectralResult spec = lazy_walk_spectrum(g);
    EXPECT_TRUE(spec.converged);
    EXPECT_NEAR(spec.spectral_gap, cycle_lazy_gap(n), 1e-6) << "n = " << n;
  }
}

TEST(Spectrum, HypercubeMatchesClosedForm) {
  for (const std::uint32_t d : {3u, 5u, 7u}) {
    const Graph g = make_hypercube(d);
    const SpectralResult spec = lazy_walk_spectrum(g);
    EXPECT_TRUE(spec.converged);
    EXPECT_NEAR(spec.spectral_gap, hypercube_lazy_gap(d), 1e-6) << "d = " << d;
  }
}

TEST(Spectrum, CompleteMatchesClosedForm) {
  for (const std::uint32_t n : {4u, 8u, 16u}) {
    const Graph g = make_complete(n);
    const SpectralResult spec = lazy_walk_spectrum(g);
    EXPECT_NEAR(spec.spectral_gap, complete_lazy_gap(n), 1e-6) << "n = " << n;
  }
}

TEST(Spectrum, GapInUnitInterval) {
  rng::Xoshiro256 eng(1);
  const Graph g = gen::random_regular(64, 4, eng());
  const SpectralResult spec = lazy_walk_spectrum(g);
  EXPECT_GE(spec.lambda2, 0.0);
  EXPECT_LE(spec.lambda2, 1.0);
  EXPECT_GT(spec.spectral_gap, 0.0);
}

TEST(Spectrum, ExpanderHasLargeGapPathHasSmallGap) {
  rng::Xoshiro256 eng(2);
  const Graph expander = gen::random_regular(128, 6, eng());
  const Graph path = make_path(128);
  const double gap_expander = lazy_walk_spectrum(expander).spectral_gap;
  const double gap_path = lazy_walk_spectrum(path).spectral_gap;
  EXPECT_GT(gap_expander, 20.0 * gap_path);
}

TEST(SweepCut, FindsBarbellBottleneck) {
  const Graph g = make_barbell(8, 0);
  const SpectralResult spec = lazy_walk_spectrum(g);
  const double sweep = sweep_cut_conductance(g, spec.fiedler);
  // The optimal cut is the bridge: phi = 1 / (8*7 + 1) = 1/57.
  EXPECT_NEAR(sweep, 1.0 / 57.0, 1e-9);
}

TEST(SweepCut, NeverBelowExactConductance) {
  // Sweep cut is a genuine cut, so its conductance upper-bounds the exact.
  for (const Graph& g :
       {make_cycle(12), make_complete(6), make_barbell(4, 2), make_path(10)}) {
    const SpectralResult spec = lazy_walk_spectrum(g);
    const double sweep = sweep_cut_conductance(g, spec.fiedler);
    const double exact = exact_conductance_small(g);
    EXPECT_GE(sweep, exact - 1e-9);
  }
}

TEST(EstimateConductance, CheegerSandwichHolds) {
  for (const Graph& g :
       {make_cycle(16), make_hypercube(4), make_complete(8), make_barbell(5, 1)}) {
    const ConductanceEstimate est = estimate_conductance(g);
    const double exact = exact_conductance_small(g);
    EXPECT_LE(est.cheeger_lower, exact + 1e-6);
    EXPECT_GE(est.cheeger_upper, exact - 1e-6);
    EXPECT_GE(est.sweep_cut_upper, exact - 1e-9);
    EXPECT_GE(est.point(), 0.0);
  }
}

TEST(EstimateConductance, HypercubeSweepWithinCheegerBand) {
  // Phi(Q_d) = 1/d exactly (dimension cut). The lambda2 eigenspace of the
  // hypercube is d-fold degenerate, so power iteration lands on an
  // arbitrary mix of dimension functions and the sweep cut is NOT
  // guaranteed to find the optimal cut — only the Cheeger band
  // 1/d <= sweep <= sqrt(2 * lambda) with lambda = 2/d.
  for (const std::uint32_t d : {3u, 4u, 5u}) {
    const ConductanceEstimate est = estimate_conductance(make_hypercube(d));
    EXPECT_GE(est.sweep_cut_upper, 1.0 / d - 1e-9) << "d = " << d;
    EXPECT_LE(est.sweep_cut_upper, std::sqrt(4.0 / d) + 1e-9) << "d = " << d;
  }
}

TEST(Spectrum, GuardsInvalidInput) {
  EXPECT_THROW(lazy_walk_spectrum(make_path(1)), std::invalid_argument);
  GraphBuilder b(3);
  b.add_edge(0, 1);  // vertex 2 isolated
  EXPECT_THROW(lazy_walk_spectrum(b.build()), std::invalid_argument);
}

TEST(ClosedForms, GuardDomains) {
  EXPECT_THROW((void)cycle_lazy_gap(2), std::invalid_argument);
  EXPECT_THROW((void)hypercube_lazy_gap(0), std::invalid_argument);
  EXPECT_THROW((void)complete_lazy_gap(1), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::graph
