#include "graph/properties.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::graph {
namespace {

TEST(Properties, DegreeHistogram) {
  const Graph g = make_star(6);  // hub degree 5, five leaves degree 1
  const auto histogram = degree_histogram(g);
  ASSERT_EQ(histogram.size(), 6u);
  EXPECT_EQ(histogram[1], 5u);
  EXPECT_EQ(histogram[5], 1u);
  EXPECT_EQ(histogram[0], 0u);
  EXPECT_EQ(std::accumulate(histogram.begin(), histogram.end(), 0ull), 6ull);
}

TEST(Properties, TriangleCountKnownGraphs) {
  EXPECT_EQ(triangle_count(make_complete(5)), 10u);  // C(5,3)
  EXPECT_EQ(triangle_count(make_cycle(5)), 0u);
  EXPECT_EQ(triangle_count(make_cycle(3)), 1u);
  EXPECT_EQ(triangle_count(make_kary_tree(2, 4)), 0u);
  EXPECT_EQ(triangle_count(make_grid(2, 4)), 0u);  // bipartite
}

TEST(Properties, ClusteringCompleteGraphIsOne) {
  const Graph g = make_complete(6);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(local_clustering(g, v), 1.0);
  }
  EXPECT_DOUBLE_EQ(average_clustering(g), 1.0);
  EXPECT_DOUBLE_EQ(global_clustering(g), 1.0);
}

TEST(Properties, ClusteringTreeIsZero) {
  const Graph g = make_kary_tree(3, 3);
  EXPECT_DOUBLE_EQ(average_clustering(g), 0.0);
  EXPECT_DOUBLE_EQ(global_clustering(g), 0.0);
}

TEST(Properties, LocalClusteringHandComputed) {
  // Lollipop(4, 1): clique K4 + pendant on vertex 3. Vertex 3 has degree
  // 4 (three clique edges + pendant); triangles through it: C(3,2) = 3
  // pairs among clique neighbors, all adjacent -> 3. Possible C(4,2) = 6.
  const Graph g = make_lollipop(4, 1);
  EXPECT_DOUBLE_EQ(local_clustering(g, 3), 0.5);
  EXPECT_DOUBLE_EQ(local_clustering(g, 0), 1.0);   // pure clique vertex
  EXPECT_DOUBLE_EQ(local_clustering(g, 4), 0.0);   // pendant, degree 1
}

TEST(Properties, GeometricGraphHasHighClustering) {
  rng::Xoshiro256 eng(1);
  const Graph geometric = gen::random_geometric(800, 0.08, eng());
  const Graph er = gen::gnp(800, geometric.average_degree() / 799.0, eng());
  // Proximity graphs have strong triangle closure; ER of equal density
  // does not.
  EXPECT_GT(average_clustering(geometric), 0.4);
  EXPECT_LT(average_clustering(er), 0.1);
}

TEST(Properties, AssortativityStarIsNegative) {
  // Hubs connect to leaves only: perfectly disassortative.
  const Graph g = make_star(20);
  EXPECT_NEAR(degree_assortativity(g), -1.0, 1e-9);
}

TEST(Properties, AssortativityRegularIsZeroByConvention) {
  EXPECT_DOUBLE_EQ(degree_assortativity(make_cycle(10)), 0.0);
  EXPECT_DOUBLE_EQ(degree_assortativity(make_complete(7)), 0.0);
}

TEST(Properties, AssortativityPreferentialAttachmentNegative) {
  const Graph g = gen::barabasi_albert(2000, 3, 2);
  EXPECT_LT(degree_assortativity(g), 0.0);
  EXPECT_GT(degree_assortativity(g), -1.0);
}

TEST(Properties, HillEstimatorRecoversChungLuGamma) {
  const Graph g = gen::chung_lu(20000, 2.5, 3.0, 3);
  const double gamma = hill_tail_exponent(g, 10);
  EXPECT_GT(gamma, 2.0);
  EXPECT_LT(gamma, 3.2);
}

TEST(Properties, HillEstimatorDegenerateCases) {
  EXPECT_EQ(hill_tail_exponent(make_cycle(50), 0), 0.0);
  // All degrees equal d_min: log-sum is zero -> 0 sentinel.
  EXPECT_EQ(hill_tail_exponent(make_cycle(50), 2), 0.0);
  // Too few qualifying vertices.
  EXPECT_EQ(hill_tail_exponent(make_star(5), 4), 0.0);
}

}  // namespace
}  // namespace cobra::graph
