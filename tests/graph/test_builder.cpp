#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

namespace cobra::graph {
namespace {

TEST(Builder, OutOfRangeEndpointThrows) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(3, 0), std::invalid_argument);
}

TEST(Builder, ArcSymmetry) {
  GraphBuilder b(5);
  b.add_edge(0, 4);
  b.add_edge(1, 3);
  b.add_edge(0, 2);
  const Graph g = b.build();
  // Every arc u->v must have a partner v->u.
  std::map<std::pair<Vertex, Vertex>, int> arcs;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex u : g.neighbors(v)) ++arcs[{v, u}];
  }
  for (const auto& [arc, count] : arcs) {
    const auto partner = arcs.find({arc.second, arc.first});
    ASSERT_NE(partner, arcs.end());
    EXPECT_EQ(partner->second, count);
  }
}

TEST(Builder, SimplifyingBuildRemovesLoopsAndDuplicates) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate (reversed)
  b.add_edge(2, 2);  // loop
  b.add_edge(2, 3);
  b.add_edge(2, 3);  // duplicate
  EXPECT_EQ(b.num_edges(), 5u);
  const Graph g = b.build(/*simplify=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.degree(2), 1u);
  // The edge list itself is untouched: the plain build keeps every edge.
  EXPECT_EQ(b.num_edges(), 5u);
  EXPECT_FALSE(b.build().is_simple());
}

TEST(Builder, SimplifyingBuildOnCleanGraphMatchesPlainBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build(/*simplify=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.offsets(), b.build().offsets());
  EXPECT_EQ(g.targets(), b.build().targets());
}

TEST(Builder, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_EQ(g1.targets(), g2.targets());
  // Builder stays usable after build.
  b.add_edge(1, 2);
  EXPECT_EQ(b.build().num_edges(), 2u);
}

TEST(Builder, SelfLoopBecomesTwoArcs) {
  GraphBuilder b(1);
  b.add_edge(0, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.volume(), 2u);
}

TEST(Builder, EmptyBuild) {
  GraphBuilder b(4);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Builder, EdgesAccessor) {
  GraphBuilder b(3);
  b.add_edge(2, 1);
  ASSERT_EQ(b.edges().size(), 1u);
  EXPECT_EQ(b.edges()[0], (std::pair<Vertex, Vertex>{2, 1}));
}

TEST(Builder, AdjacencyListsSorted) {
  GraphBuilder b(5);
  b.add_edge(0, 4);
  b.add_edge(0, 1);
  b.add_edge(0, 3);
  b.add_edge(0, 2);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(0);
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i], nbrs[i + 1]);
  }
}

}  // namespace
}  // namespace cobra::graph
