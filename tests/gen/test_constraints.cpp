/// Tests for k-SAT constraint systems (gen/constraints.*): clause shape and
/// evaluation, random_ksat determinism and distinct-variable contract, and
/// the clause dependency graph's shared-variable adjacency.

#include "gen/constraints.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

namespace cobra::gen {
namespace {

/// FNV-1a over the CSR arrays, each value as 8 little-endian bytes.
std::uint64_t csr_hash(const graph::Graph& g) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto offset : g.offsets()) fold(offset);
  for (const auto target : g.targets()) fold(target);
  return hash;
}

/// (x0 or x1) and (!x1 or x2) and (!x3): the worked example used below.
ClauseSystem tiny_system() {
  ClauseSystem sys;
  sys.num_vars = 4;
  sys.offsets = {0, 2, 4, 5};
  sys.vars = {0, 1, 1, 2, 3};
  sys.negated = {0, 0, 1, 0, 1};
  return sys;
}

TEST(ClauseSystem, EvaluationMatchesHandComputation) {
  const ClauseSystem sys = tiny_system();
  ASSERT_EQ(sys.num_clauses(), 3u);
  EXPECT_EQ(sys.clause_vars(1).size(), 2u);
  EXPECT_EQ(sys.clause_vars(2).size(), 1u);

  // x = (0, 0, 0, 1): clause 0 violated, clause 1 satisfied (!x1), clause
  // 2 violated (x3 true but the literal wants false).
  const std::vector<std::uint8_t> a = {0, 0, 0, 1};
  EXPECT_FALSE(sys.satisfied(0, a));
  EXPECT_TRUE(sys.satisfied(1, a));
  EXPECT_FALSE(sys.satisfied(2, a));
  EXPECT_EQ(sys.count_violated(a), 2u);

  // x = (1, 0, 0, 0) satisfies everything.
  const std::vector<std::uint8_t> b = {1, 0, 0, 0};
  EXPECT_EQ(sys.count_violated(b), 0u);
}

TEST(RandomKsat, ShapeContractHolds) {
  const auto sys = random_ksat(/*num_vars=*/50, /*num_clauses=*/120, /*k=*/3,
                               /*seed=*/7);
  EXPECT_EQ(sys.num_vars, 50u);
  ASSERT_EQ(sys.num_clauses(), 120u);
  EXPECT_EQ(sys.vars.size(), 360u);
  EXPECT_EQ(sys.negated.size(), 360u);
  for (std::uint32_t c = 0; c < sys.num_clauses(); ++c) {
    const auto xs = sys.clause_vars(c);
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
    EXPECT_TRUE(std::adjacent_find(xs.begin(), xs.end()) == xs.end())
        << "clause " << c << " repeats a variable";
    for (const auto x : xs) EXPECT_LT(x, 50u);
    for (const auto s : sys.clause_signs(c)) EXPECT_LE(s, 1u);
  }
}

TEST(RandomKsat, DeterministicPerSeedAndVariedAcrossSeeds) {
  const auto a = random_ksat(40, 60, 3, 11);
  const auto b = random_ksat(40, 60, 3, 11);
  EXPECT_EQ(a.vars, b.vars);
  EXPECT_EQ(a.negated, b.negated);
  const auto c = random_ksat(40, 60, 3, 12);
  EXPECT_TRUE(a.vars != c.vars || a.negated != c.negated);
}

TEST(RandomKsat, PolaritiesAreRoughlyBalanced) {
  const auto sys = random_ksat(100, 2000, 3, 99);
  const auto negs = static_cast<double>(
      std::count(sys.negated.begin(), sys.negated.end(), 1));
  EXPECT_NEAR(negs / static_cast<double>(sys.negated.size()), 0.5, 0.03);
}

TEST(RandomKsat, RejectsDegenerateParameters) {
  EXPECT_THROW(random_ksat(0, 5, 1, 1), std::invalid_argument);
  EXPECT_THROW(random_ksat(10, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(random_ksat(10, 5, 11, 1), std::invalid_argument);
  // k == num_vars is legal: every clause spans all variables.
  const auto sys = random_ksat(3, 4, 3, 1);
  EXPECT_EQ(sys.clause_vars(0).size(), 3u);
}

TEST(DependencyGraph, EdgesAreExactlySharedVariablePairs) {
  const graph::Graph deps = dependency_graph(tiny_system());
  ASSERT_EQ(deps.num_vertices(), 3u);
  // Clauses 0 and 1 share x1; clause 2 (x3 alone) is isolated.
  EXPECT_TRUE(deps.has_edge(0, 1));
  EXPECT_EQ(deps.degree(0), 1u);
  EXPECT_EQ(deps.degree(1), 1u);
  EXPECT_EQ(deps.degree(2), 0u);
}

TEST(DependencyGraph, DuplicateSharedVariablesCollapseToOneEdge) {
  // Two clauses sharing TWO variables still get exactly one edge.
  ClauseSystem sys;
  sys.num_vars = 3;
  sys.offsets = {0, 2, 4};
  sys.vars = {0, 1, 0, 1};
  sys.negated = {0, 0, 1, 1};
  const graph::Graph deps = dependency_graph(sys);
  ASSERT_EQ(deps.num_vertices(), 2u);
  EXPECT_TRUE(deps.has_edge(0, 1));
  EXPECT_EQ(deps.degree(0), 1u);
  EXPECT_EQ(deps.num_edges(), 1u);
}

TEST(DependencyGraph, MatchesBruteForceOnARandomSystem) {
  const auto sys = random_ksat(30, 80, 3, 5);
  const graph::Graph deps = dependency_graph(sys);
  ASSERT_EQ(deps.num_vertices(), 80u);
  for (std::uint32_t a = 0; a < sys.num_clauses(); ++a) {
    for (std::uint32_t b = a + 1; b < sys.num_clauses(); ++b) {
      const auto va = sys.clause_vars(a);
      const auto vb = sys.clause_vars(b);
      const bool shares =
          std::find_first_of(va.begin(), va.end(), vb.begin(), vb.end()) !=
          va.end();
      EXPECT_EQ(deps.has_edge(a, b), shares) << "clauses " << a << "," << b;
    }
  }
}

TEST(DependencyGraph, CsrIsPinned) {
  // Recorded while the builder still simplified by a global edge sort: a
  // clause pair sharing several variables is listed once per shared
  // variable, and the CSR of the simple graph must not change with the
  // dedup that removes those repeats.
  const graph::Graph deps = dependency_graph(random_ksat(200, 900, 3, 17));
  EXPECT_EQ(deps.num_vertices(), 900u);
  EXPECT_EQ(deps.num_edges(), 18298u);
  EXPECT_EQ(csr_hash(deps), 0xb4b1288f520f4163ULL);
}

}  // namespace
}  // namespace cobra::gen
