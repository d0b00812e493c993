#include "io/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "gen/families.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::io {
namespace {

TEST(GraphIo, ReadsBasicFormat) {
  std::istringstream in(
      "# a triangle\n"
      "3\n"
      "0 1\n"
      "\n"
      "1 2\n"
      "# middle comment\n"
      "2 0\n");
  const graph::Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphIo, RoundTripsGeneratedGraphs) {
  rng::Xoshiro256 eng(1);
  for (const graph::Graph& g :
       {graph::make_grid(2, 5), graph::make_hypercube(4),
        gen::random_regular(30, 4, eng()), graph::make_star(9)}) {
    std::stringstream buffer;
    write_edge_list(buffer, g);
    const graph::Graph back = read_edge_list(buffer);
    EXPECT_EQ(back.num_vertices(), g.num_vertices());
    EXPECT_EQ(back.num_edges(), g.num_edges());
    EXPECT_EQ(back.targets(), g.targets());  // CSR is canonical (sorted)
  }
}

TEST(GraphIo, RoundTripsSelfLoopsAndParallelEdges) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(1, 2);
  b.add_edge(1, 2);
  const graph::Graph g = b.build();
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const graph::Graph back = read_edge_list(buffer);
  EXPECT_EQ(back.num_edges(), 3u);
  EXPECT_EQ(back.degree(0), 2u);  // self-loop counts twice
  EXPECT_EQ(back.degree(1), 2u);
}

TEST(GraphIo, EmptyGraph) {
  std::istringstream in("0\n");
  const graph::Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("abc\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3 extra\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0 1 2\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0 7\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n-1 0\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
}

TEST(GraphIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "cobra_graph_io_test.txt";
  const graph::Graph g = graph::make_cycle(12);
  save_edge_list(path, g);
  const graph::Graph back = load_edge_list(path);
  EXPECT_EQ(back.num_edges(), 12u);
  EXPECT_TRUE(graph::is_connected(back));
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent_dir_xyz/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace cobra::io
