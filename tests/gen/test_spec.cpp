#include "gen/spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>

#include "gen/registry.hpp"
#include "graph/generators.hpp"
#include "util/fault.hpp"

namespace cobra::gen {
namespace {

TEST(GraphSpec, ParsesFamilyOnly) {
  const GraphSpec spec = GraphSpec::parse("hypercube");
  EXPECT_EQ(spec.family(), "hypercube");
  EXPECT_TRUE(spec.params().empty());
}

TEST(GraphSpec, ParsesKeyValuePairsInOrder) {
  const GraphSpec spec = GraphSpec::parse("rmat:n=2^20,deg=16,seed=7");
  EXPECT_EQ(spec.family(), "rmat");
  ASSERT_EQ(spec.params().size(), 3u);
  EXPECT_EQ(spec.params()[0].first, "n");
  EXPECT_EQ(spec.params()[1].first, "deg");
  EXPECT_EQ(spec.params()[2].first, "seed");
  EXPECT_EQ(spec.require_uint("n"), 1ull << 20);
  EXPECT_EQ(spec.require_uint("deg"), 16u);
  EXPECT_EQ(spec.require_uint("seed"), 7u);
}

TEST(GraphSpec, RoundTripsThroughToString) {
  for (const char* text :
       {"gnp:n=1e6,avg_deg=8", "gnm:n=2^16,m=2^18,seed=5",
        "ws:n=4096,k=6,beta=0.1", "ring:n=100",
        "rmat:n=2^20,deg=16,seed=7", "hypercube"}) {
    const GraphSpec spec = GraphSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(GraphSpec::parse(spec.to_string()).to_string(), text);
  }
}

TEST(GraphSpec, NumberGrammar) {
  const GraphSpec spec =
      GraphSpec::parse("gnp:n=1e6,p=0.5,big=2^33,plain=123");
  EXPECT_EQ(spec.require_uint("n"), 1000000u);
  EXPECT_EQ(spec.require_uint("big"), 1ull << 33);
  EXPECT_EQ(spec.require_uint("plain"), 123u);
  EXPECT_DOUBLE_EQ(spec.require_double("p"), 0.5);
  EXPECT_DOUBLE_EQ(spec.require_double("big"),
                   static_cast<double>(1ull << 33));
}

TEST(GraphSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)GraphSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse(":n=4"), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("gnp:"), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("gnp:n"), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("gnp:n="), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("gnp:=4"), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("gnp:n=4,n=5"), std::invalid_argument);
  EXPECT_THROW((void)GraphSpec::parse("bad family:n=4"),
               std::invalid_argument);
}

TEST(GraphSpec, RejectsMalformedNumbers) {
  const GraphSpec spec = GraphSpec::parse(
      "x:a=3^20,b=2^99,c=12junk,d=1.5,e=nan,f=-3");
  EXPECT_THROW((void)spec.require_uint("a"), std::invalid_argument);
  EXPECT_THROW((void)spec.require_uint("b"), std::invalid_argument);
  EXPECT_THROW((void)spec.require_uint("c"), std::invalid_argument);
  EXPECT_THROW((void)spec.require_uint("d"), std::invalid_argument);  // not integral
  EXPECT_THROW((void)spec.require_double("e"), std::invalid_argument);
  EXPECT_THROW((void)spec.require_uint("f"), std::invalid_argument);
  EXPECT_THROW((void)spec.require_uint("missing"), std::invalid_argument);
}

TEST(GraphSpec, GettersFallBack) {
  const GraphSpec spec = GraphSpec::parse("x:flag=true,num=3");
  EXPECT_EQ(spec.get_uint("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(spec.get_double("absent", 0.25), 0.25);
  EXPECT_TRUE(spec.get_bool("flag", false));
  EXPECT_FALSE(spec.get_bool("absent", false));
  EXPECT_THROW((void)spec.get_bool("num", false), std::invalid_argument);
  EXPECT_FALSE(spec.has("absent"));
  EXPECT_TRUE(spec.has("flag"));
}

TEST(Registry, RejectsUnknownFamilyAndKeys) {
  EXPECT_THROW((void)build_graph("nope:n=10"), std::invalid_argument);
  EXPECT_THROW((void)build_graph("ring:n=10,typo=1"), std::invalid_argument);
  EXPECT_THROW((void)build_graph("gnp:n=100"), std::invalid_argument);
  EXPECT_THROW((void)build_graph("gnp:n=100,p=0.1,avg_deg=4"),
               std::invalid_argument);
}

TEST(Registry, DeterministicFamiliesMatchDirectConstruction) {
  const auto same = [](const graph::Graph& a, const graph::Graph& b) {
    return a.offsets() == b.offsets() && a.targets() == b.targets();
  };
  EXPECT_TRUE(same(build_graph("ring:n=10"), graph::make_cycle(10)));
  EXPECT_TRUE(same(build_graph("path:n=7"), graph::make_path(7)));
  EXPECT_TRUE(same(build_graph("grid:side=5,dims=2"), graph::make_grid(2, 5)));
  EXPECT_TRUE(
      same(build_graph("torus:side=5"), graph::make_grid(2, 5, true)));
  EXPECT_TRUE(same(build_graph("hypercube:dims=4"), graph::make_hypercube(4)));
  EXPECT_TRUE(same(build_graph("tree:levels=3,arity=3"),
                   graph::make_kary_tree(3, 3)));
  EXPECT_TRUE(same(build_graph("lollipop:clique=6,path=4"),
                   graph::make_lollipop(6, 4)));
  EXPECT_TRUE(same(build_graph("dclique:clique=5"),
                   graph::make_double_clique(5)));
}

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

TEST(Registry, ChungLuOutputIsPinned) {
  // Recorded when Chung–Lu still lived in graph/generators: moving the
  // Miller–Hagberg loop into gen::chung_lu must not change one edge.
  const graph::Graph g =
      build_graph("chunglu:n=2000,gamma=2.5,min_deg=3,seed=5");
  EXPECT_EQ(g.num_vertices(), 2000u);
  EXPECT_EQ(g.num_edges(), 7956u);
  EXPECT_EQ(csr_hash(g), 0x015bcd689f20b6e8ULL);
  EXPECT_EQ(csr_hash(chung_lu(2000, 2.5, 3.0, 5)), csr_hash(g));
}

TEST(Registry, ChungLuRejectsDegenerateWeights) {
  // All-zero weights (min_deg = 0) and overflowing weights (gamma just
  // above 1) made every pair probability NaN, which min(1, NaN) turned
  // into the complete graph; a negative min_deg silently gave no edges.
  EXPECT_THROW((void)build_graph("chunglu:n=1000,min_deg=0"),
               std::invalid_argument);
  EXPECT_THROW((void)build_graph("chunglu:n=1000,gamma=1.0000001"),
               std::invalid_argument);
  EXPECT_THROW((void)build_graph("chunglu:n=1000,min_deg=-3"),
               std::invalid_argument);
  EXPECT_THROW((void)build_graph("chunglu:n=1000,gamma=1"),
               std::invalid_argument);
}

TEST(Registry, TreeOfTwoTo32VerticesIsRejected) {
  // 1 + (2^32 - 1) = 2^32 vertices does not fit a 32-bit vertex id; the
  // count used to wrap to 0 and the edge reservation to 2^32 - 1.
  EXPECT_THROW((void)build_graph("tree:levels=2,arity=4294967295"),
               std::invalid_argument);
  EXPECT_EQ(build_graph("tree:levels=2,arity=5").num_vertices(), 6u);
}

TEST(Registry, GridSugarDerivesSideFromN) {
  const graph::Graph g = build_graph("grid:n=1024");
  EXPECT_EQ(g.num_vertices(), 32u * 32u);
  const graph::Graph g3 = build_graph("grid:n=1000,dims=3");
  EXPECT_EQ(g3.num_vertices(), 1000u);
}

TEST(Registry, LccExtractsLargestComponent) {
  // Sub-critical G(n, p) is disconnected w.h.p.; lcc must leave one
  // component with no isolated vertices.
  const graph::Graph g = build_graph("gnp:n=300,avg_deg=1.5,seed=3,lcc=1");
  EXPECT_GT(g.num_vertices(), 0u);
  EXPECT_GT(g.min_degree(), 0u);
  EXPECT_LT(g.num_vertices(), 300u);
}

TEST(Registry, AllocFaultSurfacesAsBadAlloc) {
  // gen.alloc (HARD): the CSR allocation fails exactly where a real OOM
  // would. build_graph must throw std::bad_alloc, never hand back a
  // torso graph — and disarmed, the same spec builds fine again.
  util::fault::disarm_all();
  util::fault::arm("gen.alloc");
  EXPECT_THROW((void)build_graph("ring:n=64"), std::bad_alloc);
  util::fault::disarm_all();
  EXPECT_EQ(build_graph("ring:n=64").num_vertices(), 64u);
}

TEST(Registry, BuildFaultUnwindsMidPipelineNamingTheSite) {
  // gen.build_graph (HARD): the build dies after the family factory. The
  // error must name the injected site so a chaos log reads as a fault,
  // not as a generator bug.
  util::fault::disarm_all();
  util::fault::arm("gen.build_graph");
  try {
    (void)build_graph("rreg:n=64,d=4,seed=1");
    FAIL() << "armed gen.build_graph did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("gen.build_graph"),
              std::string::npos);
  }
  util::fault::disarm_all();
}

TEST(Registry, FamiliesAreSortedAndDocumented) {
  const auto& fams = families();
  ASSERT_GE(fams.size(), 15u);
  for (std::size_t i = 1; i < fams.size(); ++i) {
    EXPECT_LT(fams[i - 1].name, fams[i].name);
  }
  for (const auto& info : fams) {
    EXPECT_FALSE(info.synopsis.empty()) << info.name;
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_NE(grammar_help().find(info.synopsis), std::string::npos)
        << info.name;
  }
  EXPECT_NE(find_family("gnp"), nullptr);
  EXPECT_EQ(find_family("nope"), nullptr);
}

}  // namespace
}  // namespace cobra::gen
