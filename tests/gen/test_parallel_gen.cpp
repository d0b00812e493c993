/// The determinism contract of src/gen: every chunk-parallel generator is a
/// pure function of (spec, seed) — bit-identical CSR across thread counts
/// 1/2/8, where the 1-thread pool is the in-line serial path — plus
/// structural invariants per family. Statistical distribution checks live in
/// tests/integration/test_generator_statistics.cpp.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/families.hpp"
#include "gen/registry.hpp"
#include "graph/algorithms.hpp"
#include "parallel/thread_pool.hpp"

namespace cobra::gen {
namespace {

using graph::Graph;

/// The serial reference: a 1-thread pool runs every chunk in-line.
GenOptions serial_options() {
  static par::ThreadPool one(1);
  GenOptions opts;
  opts.pool = &one;
  return opts;
}

/// Build `spec` serially and on pools of 2 and 8 threads; assert all three
/// CSR images are bit-identical, and return one of them.
Graph assert_thread_invariant(const std::string& spec) {
  const Graph reference = build_graph(spec, serial_options());
  for (const std::size_t threads : {2u, 8u}) {
    par::ThreadPool pool(threads);
    GenOptions opts;
    opts.pool = &pool;
    const Graph g = build_graph(spec, opts);
    EXPECT_EQ(g.offsets(), reference.offsets())
        << spec << " with " << threads << " threads";
    EXPECT_EQ(g.targets(), reference.targets())
        << spec << " with " << threads << " threads";
  }
  return reference;
}

TEST(ParallelGen, GnpThreadInvariantAndSimple) {
  // 120k vertices at avg_deg 8 spans multiple chunks (~480k edges).
  const Graph g = assert_thread_invariant("gnp:n=120000,avg_deg=8,seed=42");
  EXPECT_EQ(g.num_vertices(), 120000u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_NEAR(g.average_degree(), 8.0, 0.2);
}

TEST(ParallelGen, GnpSeedChangesGraph) {
  const GenOptions serial = serial_options();
  const Graph a = build_graph("gnp:n=2000,avg_deg=6,seed=1", serial);
  const Graph b = build_graph("gnp:n=2000,avg_deg=6,seed=2", serial);
  EXPECT_NE(a.targets(), b.targets());
}

TEST(ParallelGen, GnpEdgeCases) {
  const GenOptions serial = serial_options();
  EXPECT_EQ(gnp(100, 0.0, 1, serial).num_edges(), 0u);
  EXPECT_EQ(gnp(50, 1.0, 1, serial).num_edges(), 50u * 49u / 2);
  EXPECT_EQ(gnp(0, 0.5, 1, serial).num_vertices(), 0u);
  EXPECT_EQ(gnp(1, 0.5, 1, serial).num_edges(), 0u);
}

TEST(ParallelGen, GnmThreadInvariantExactEdgesAndSimple) {
  // 3 chunks of slots at this size; the Feistel permutation guarantees the
  // edge count is EXACT, not concentrated.
  const Graph g = assert_thread_invariant("gnm:n=100000,m=200000,seed=17");
  EXPECT_EQ(g.num_vertices(), 100000u);
  EXPECT_EQ(g.num_edges(), 200000u);
  EXPECT_TRUE(g.is_simple());
}

TEST(ParallelGen, GnmSeedChangesGraphButNeverTheEdgeCount) {
  const GenOptions serial = serial_options();
  const Graph a = build_graph("gnm:n=3000,m=9000,seed=1", serial);
  const Graph b = build_graph("gnm:n=3000,m=9000,seed=2", serial);
  EXPECT_NE(a.targets(), b.targets());
  EXPECT_EQ(a.num_edges(), 9000u);
  EXPECT_EQ(b.num_edges(), 9000u);
}

TEST(ParallelGen, GnmEdgeCasesAndSpecKeys) {
  const GenOptions serial = serial_options();
  EXPECT_EQ(gnm(100, 0, 1, serial).num_edges(), 0u);
  // m = C(n,2) is the complete graph — the permutation covers every pair.
  const Graph complete = gnm(60, 60 * 59 / 2, 1, serial);
  EXPECT_EQ(complete.num_edges(), 60u * 59 / 2);
  EXPECT_TRUE(complete.is_regular());
  EXPECT_EQ(complete.degree(0), 59u);
  EXPECT_THROW((void)gnm(10, 46, 1, serial), std::invalid_argument);  // > C(10,2)
  // avg_deg sugar: m = round(n * avg_deg / 2).
  EXPECT_EQ(build_graph("gnm:n=1000,avg_deg=8,seed=3", serial).num_edges(),
            4000u);
  EXPECT_THROW((void)build_graph("gnm:n=100,m=10,avg_deg=2", serial),
               std::invalid_argument);  // exactly one of m / avg_deg
  EXPECT_THROW((void)build_graph("gnm:n=100", serial), std::invalid_argument);
}

TEST(ParallelGen, RmatThreadInvariantAndHeavyTailed) {
  const Graph g = assert_thread_invariant("rmat:n=2^14,deg=16,seed=7");
  EXPECT_EQ(g.num_vertices(), 1u << 14);
  EXPECT_TRUE(g.is_simple());
  // Skew parameters concentrate edges on low ids: the max degree must be
  // far above the mean (heavy tail), a structural R-MAT signature.
  EXPECT_GT(g.max_degree(), 8 * g.average_degree());
}

TEST(ParallelGen, RmatRoundsUpToPowerOfTwo) {
  const GenOptions serial = serial_options();
  EXPECT_EQ(build_graph("rmat:n=1000,deg=4,seed=1", serial).num_vertices(),
            1024u);
}

TEST(ParallelGen, WattsStrogatzThreadInvariantAndNearRegular) {
  const Graph g = assert_thread_invariant("ws:n=50000,k=6,beta=0.1,seed=5");
  EXPECT_EQ(g.num_vertices(), 50000u);
  EXPECT_TRUE(g.is_simple());
  // Rewiring preserves edge count up to duplicate collisions (rare).
  EXPECT_NEAR(g.average_degree(), 6.0, 0.05);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(ParallelGen, WattsStrogatzBetaZeroIsLattice) {
  const GenOptions serial = serial_options();
  const Graph g = build_graph("ws:n=100,k=4,beta=0,seed=1", serial);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  for (std::uint32_t v = 0; v < 100; ++v) {
    EXPECT_TRUE(g.has_edge(v, (v + 1) % 100));
    EXPECT_TRUE(g.has_edge(v, (v + 2) % 100));
  }
}

TEST(ParallelGen, BarabasiAlbertThreadInvariant) {
  const Graph g = assert_thread_invariant("ba:n=60000,d=3,seed=11");
  EXPECT_EQ(g.num_vertices(), 60000u);
  EXPECT_TRUE(g.is_simple());
  // Copy-model drops self-loops, so mean degree is slightly under 2d.
  EXPECT_GT(g.average_degree(), 4.5);
  EXPECT_LE(g.average_degree(), 6.0);
}

TEST(ParallelGen, RandomRegularThreadInvariantRegularSimple) {
  const Graph g = assert_thread_invariant("rreg:n=20000,d=4,seed=9");
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(ParallelGen, GeometricThreadInvariant) {
  const Graph g = assert_thread_invariant("geo:n=80000,radius=0.008,seed=13");
  EXPECT_EQ(g.num_vertices(), 80000u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(ParallelGen, GeneratingInsidePoolWorkerFallsBackServially) {
  // A generator invoked from a pool worker (e.g. inside a Monte-Carlo
  // trial) must not deadlock in wait_idle; it detects the worker thread
  // and runs in-line, producing the identical graph.
  const GenOptions serial = serial_options();
  const Graph reference = build_graph("gnp:n=30000,avg_deg=6,seed=4", serial);
  par::ThreadPool pool(4);
  Graph from_worker;
  pool.submit([&] {
    GenOptions opts;
    opts.pool = &pool;
    from_worker = build_graph("gnp:n=30000,avg_deg=6,seed=4", opts);
  });
  pool.wait_idle();
  EXPECT_EQ(from_worker.offsets(), reference.offsets());
  EXPECT_EQ(from_worker.targets(), reference.targets());
}

TEST(ParallelGen, InvalidParametersThrow) {
  const GenOptions serial = serial_options();
  EXPECT_THROW((void)gnp(10, -0.5, 1, serial), std::invalid_argument);
  EXPECT_THROW((void)rmat(0, 10, .5, .2, .2, 1, serial),
               std::invalid_argument);
  EXPECT_THROW((void)rmat(4, 10, .6, .3, .3, 1, serial),
               std::invalid_argument);
  EXPECT_THROW((void)watts_strogatz(10, 3, 0.1, 1, serial),
               std::invalid_argument);  // odd k
  EXPECT_THROW((void)watts_strogatz(10, 10, 0.1, 1, serial),
               std::invalid_argument);  // k >= n
  EXPECT_THROW((void)watts_strogatz(10, 4, 1.5, 1, serial),
               std::invalid_argument);
  EXPECT_THROW((void)barabasi_albert(10, 0, 1, serial),
               std::invalid_argument);
  EXPECT_THROW((void)random_regular(9, 3, 1, serial),
               std::invalid_argument);  // n*d odd
  EXPECT_THROW((void)random_regular(4, 4, 1, serial),
               std::invalid_argument);  // d >= n
  EXPECT_THROW((void)random_geometric(10, 0.0, 1, serial),
               std::invalid_argument);
}

}  // namespace
}  // namespace cobra::gen
