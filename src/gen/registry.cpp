#include "gen/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace cobra::gen {

namespace {

using graph::Graph;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("GraphSpec: " + message);
}

std::uint32_t as_u32(std::uint64_t value, const char* what) {
  if (value > 0xFFFFFFFFull) {
    fail(std::string(what) + " exceeds 2^32 - 1");
  }
  return static_cast<std::uint32_t>(value);
}

/// n for families whose size key is "n", failing when absent.
std::uint32_t spec_n(const GraphSpec& spec) {
  return as_u32(spec.require_uint("n"), "n");
}

std::uint64_t default_seed(const GraphSpec& spec) {
  return spec.get_uint("seed", 1);
}

std::uint32_t side_from_spec(const GraphSpec& spec, std::uint32_t dims) {
  if (spec.has("side")) return as_u32(spec.require_uint("side"), "side");
  // n sugar: the largest side with side^dims <= n (min 2), matching the
  // tree family's "largest complete tree <= n" semantics — never more
  // vertices than asked for.
  const std::uint64_t n = spec.require_uint("n");
  auto fits = [&](std::uint64_t side) {
    std::uint64_t volume = 1;
    for (std::uint32_t d = 0; d < dims; ++d) {
      if (volume > n / side) return false;
      volume *= side;
    }
    return volume <= n;
  };
  auto side = static_cast<std::uint64_t>(
      std::pow(static_cast<double>(n), 1.0 / dims));
  side = std::max<std::uint64_t>(side, 2);
  while (side > 2 && !fits(side)) --side;
  while (fits(side + 1)) ++side;
  return as_u32(side, "side");
}

Graph build_gnp(const GraphSpec& spec, const GenOptions& opts) {
  const std::uint32_t n = spec_n(spec);
  if (spec.has("p") == spec.has("avg_deg")) {
    fail("gnp needs exactly one of p=, avg_deg=");
  }
  const double p = spec.has("p")
                       ? spec.require_double("p")
                       : (n > 1 ? spec.require_double("avg_deg") / (n - 1) : 0.0);
  return gnp(n, p, default_seed(spec), opts);
}

Graph build_gnm(const GraphSpec& spec, const GenOptions& opts) {
  const std::uint32_t n = spec_n(spec);
  if (spec.has("m") == spec.has("avg_deg")) {
    fail("gnm needs exactly one of m=, avg_deg=");
  }
  const std::uint64_t m =
      spec.has("m") ? spec.require_uint("m")
                    : static_cast<std::uint64_t>(std::llround(
                          spec.require_double("avg_deg") * n / 2.0));
  return gnm(n, m, default_seed(spec), opts);
}

Graph build_rmat(const GraphSpec& spec, const GenOptions& opts) {
  const std::uint64_t requested_n = spec.require_uint("n");
  if (requested_n < 2) fail("rmat: n >= 2");
  std::uint32_t levels = 1;
  while ((1ull << levels) < requested_n && levels < 31) ++levels;
  if ((1ull << levels) < requested_n) fail("rmat: n exceeds 2^31");
  const std::uint64_t n = 1ull << levels;
  if (spec.has("deg") == spec.has("m")) {
    fail("rmat needs exactly one of deg=, m=");
  }
  const std::uint64_t m =
      spec.has("m") ? spec.require_uint("m")
                    : n * spec.require_uint("deg") / 2;
  // Graph500 defaults.
  const double a = spec.get_double("a", 0.57);
  const double b = spec.get_double("b", 0.19);
  const double c = spec.get_double("c", 0.19);
  return rmat(levels, m, a, b, c, default_seed(spec), opts);
}

Graph build_ws(const GraphSpec& spec, const GenOptions& opts) {
  return watts_strogatz(spec_n(spec), as_u32(spec.require_uint("k"), "k"),
                        spec.require_double("beta"), default_seed(spec), opts);
}

Graph build_ba(const GraphSpec& spec, const GenOptions& opts) {
  return barabasi_albert(spec_n(spec), as_u32(spec.require_uint("d"), "d"),
                         default_seed(spec), opts);
}

Graph build_rreg(const GraphSpec& spec, const GenOptions& opts) {
  return random_regular(spec_n(spec), as_u32(spec.require_uint("d"), "d"),
                        default_seed(spec), opts);
}

Graph build_geo(const GraphSpec& spec, const GenOptions& opts) {
  const std::uint32_t n = spec_n(spec);
  if (spec.has("radius") == spec.has("avg_deg")) {
    fail("geo needs exactly one of radius=, avg_deg=");
  }
  const double radius =
      spec.has("radius")
          ? spec.require_double("radius")
          : std::sqrt(spec.require_double("avg_deg") /
                      (3.14159265358979323846 * std::max(1u, n)));
  return random_geometric(n, radius, default_seed(spec), opts);
}

Graph build_chunglu(const GraphSpec& spec, const GenOptions&) {
  return chung_lu(spec_n(spec), spec.get_double("gamma", 2.5),
                  spec.get_double("min_deg", 2.0), default_seed(spec));
}

Graph build_grid(const GraphSpec& spec, const GenOptions&, bool torus) {
  const auto dims = as_u32(spec.get_uint("dims", 2), "dims");
  if (dims < 1) fail("grid: dims >= 1");
  return graph::make_grid(dims, side_from_spec(spec, dims), torus);
}

Graph build_tree(const GraphSpec& spec, const GenOptions&) {
  const auto arity = as_u32(spec.get_uint("arity", 2), "arity");
  if (arity < 1) fail("tree: arity >= 1");
  std::uint32_t levels;
  if (spec.has("levels")) {
    levels = as_u32(spec.require_uint("levels"), "levels");
  } else {
    // Largest complete tree with <= n vertices.
    const std::uint64_t n = spec.require_uint("n");
    std::uint64_t total = 1, layer = 1;
    levels = 1;
    while (total + layer * arity <= n) {
      layer *= arity;
      total += layer;
      ++levels;
    }
  }
  return graph::make_kary_tree(arity, levels);
}

std::pair<std::uint32_t, std::uint32_t> clique_path_from_spec(
    const GraphSpec& spec) {
  if (spec.has("clique")) {
    return {as_u32(spec.require_uint("clique"), "clique"),
            as_u32(spec.get_uint("path", 0), "path")};
  }
  const auto n = as_u32(spec.require_uint("n"), "n");
  return {2 * n / 3, n / 3};  // the standard RW worst-case split
}

const std::vector<FamilyInfo>& registry() {
  static const std::vector<FamilyInfo> kFamilies = [] {
    std::vector<FamilyInfo> fams;
    const std::vector<std::string> rand_keys = {"seed", "lcc"};
    auto add = [&](FamilyInfo info, bool randomized) {
      if (randomized) {
        info.keys.insert(info.keys.end(), rand_keys.begin(), rand_keys.end());
      }
      fams.push_back(std::move(info));
    };

    add({"gnp", "gnp:n=<N>,{p=<P>|avg_deg=<D>}",
         "Erdos-Renyi G(n, p); chunk-parallel geometric edge skipping",
         {"n", "p", "avg_deg"},
         build_gnp},
        true);
    add({"gnm", "gnm:n=<N>,{m=<M>|avg_deg=<D>}",
         "Erdos-Renyi G(n, m), exactly m edges; Feistel-permuted pairs",
         {"n", "m", "avg_deg"},
         build_gnm},
        true);
    add({"rmat", "rmat:n=<N>,{deg=<D>|m=<M>}[,a=.57,b=.19,c=.19]",
         "R-MAT power-law digraph made undirected; n rounds up to 2^k",
         {"n", "deg", "m", "a", "b", "c"},
         build_rmat},
        true);
    add({"ws", "ws:n=<N>,k=<K>,beta=<B>",
         "Watts-Strogatz ring lattice (k even) with rewiring prob beta",
         {"n", "k", "beta"},
         build_ws},
        true);
    add({"ba", "ba:n=<N>,d=<D>",
         "Barabasi-Albert preferential attachment (chunked copy-model)",
         {"n", "d"},
         build_ba},
        true);
    add({"rreg", "rreg:n=<N>,d=<D>",
         "random d-regular simple graph (configuration model + repair)",
         {"n", "d"},
         build_rreg},
        true);
    add({"geo", "geo:n=<N>,{radius=<R>|avg_deg=<D>}",
         "random geometric graph in the unit square, grid-bucketed",
         {"n", "radius", "avg_deg"},
         build_geo},
        true);
    add({"chunglu", "chunglu:n=<N>[,gamma=2.5,min_deg=2]",
         "Chung-Lu expected power-law degrees (serial skip sampling)",
         {"n", "gamma", "min_deg"},
         build_chunglu},
        true);

    add({"ring", "ring:n=<N>", "cycle C_n",
         {"n"},
         [](const GraphSpec& s, const GenOptions&) {
           return graph::make_cycle(spec_n(s));
         }},
        false);
    add({"path", "path:n=<N>", "path P_n",
         {"n"},
         [](const GraphSpec& s, const GenOptions&) {
           return graph::make_path(spec_n(s));
         }},
        false);
    add({"complete", "complete:n=<N>", "complete graph K_n",
         {"n"},
         [](const GraphSpec& s, const GenOptions&) {
           return graph::make_complete(spec_n(s));
         }},
        false);
    add({"star", "star:n=<N>", "star S_n (vertex 0 is the hub)",
         {"n"},
         [](const GraphSpec& s, const GenOptions&) {
           return graph::make_star(spec_n(s));
         }},
        false);
    add({"grid", "grid:{side=<S>|n=<N>}[,dims=2][,torus=<0|1>]",
         "dims-dimensional grid, side points per axis; torus wraps",
         {"side", "n", "dims", "torus"},
         [](const GraphSpec& s, const GenOptions& o) {
           return build_grid(s, o, s.get_bool("torus", false));
         }},
        false);
    add({"torus", "torus:{side=<S>|n=<N>}[,dims=2]",
         "grid with every axis wrapped (2*dims-regular)",
         {"side", "n", "dims"},
         [](const GraphSpec& s, const GenOptions& o) {
           return build_grid(s, o, true);
         }},
        false);
    add({"hypercube", "hypercube:dims=<D>", "hypercube Q_d on 2^d vertices",
         {"dims"},
         [](const GraphSpec& s, const GenOptions&) {
           return graph::make_hypercube(as_u32(s.require_uint("dims"), "dims"));
         }},
        false);
    add({"tree", "tree:{levels=<L>|n=<N>}[,arity=2]",
         "complete arity-ary tree (vertex 0 is the root)",
         {"levels", "n", "arity"},
         build_tree},
        false);
    add({"lollipop", "lollipop:{n=<N>|clique=<C>[,path=<P>]}",
         "clique + hanging path (RW's Theta(n^3) witness at 2n/3 + n/3)",
         {"n", "clique", "path"},
         [](const GraphSpec& s, const GenOptions&) {
           const auto [clique, path] = clique_path_from_spec(s);
           return graph::make_lollipop(clique, path);
         }},
        false);
    add({"barbell", "barbell:{n=<N>|clique=<C>[,path=<P>]}",
         "two cliques joined by a path (n sugar: cliques n/3, path n/3)",
         {"n", "clique", "path"},
         [](const GraphSpec& s, const GenOptions&) {
           if (s.has("clique")) {
             return graph::make_barbell(
                 as_u32(s.require_uint("clique"), "clique"),
                 as_u32(s.get_uint("path", 0), "path"));
           }
           const auto n = as_u32(s.require_uint("n"), "n");
           return graph::make_barbell(n / 3, n / 3);
         }},
        false);
    add({"dclique", "dclique:{n=<N>|clique=<C>}",
         "two cliques sharing one cut vertex (low-conductance stress case)",
         {"n", "clique"},
         [](const GraphSpec& s, const GenOptions&) {
           const auto clique =
               s.has("clique") ? as_u32(s.require_uint("clique"), "clique")
                               : (as_u32(s.require_uint("n"), "n") + 1) / 2;
           return graph::make_double_clique(clique);
         }},
        false);

    std::sort(fams.begin(), fams.end(),
              [](const FamilyInfo& a, const FamilyInfo& b) {
                return a.name < b.name;
              });
    return fams;
  }();
  return kFamilies;
}

}  // namespace

const std::vector<FamilyInfo>& families() { return registry(); }

const FamilyInfo* find_family(std::string_view name) {
  for (const FamilyInfo& info : registry()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

Graph build_graph(const GraphSpec& spec, const GenOptions& opts) {
  const FamilyInfo* info = find_family(spec.family());
  if (info == nullptr) {
    fail("unknown family '" + spec.family() + "' (known: " + [] {
      std::string names;
      for (const FamilyInfo& f : registry()) {
        if (!names.empty()) names += ", ";
        names += f.name;
      }
      return names;
    }() + ")");
  }
  for (const auto& [key, value] : spec.params()) {
    if (std::find(info->keys.begin(), info->keys.end(), key) ==
        info->keys.end()) {
      std::string allowed;
      for (const std::string& k : info->keys) {
        if (!allowed.empty()) allowed += ", ";
        allowed += k;
      }
      fail("family '" + info->name + "' does not accept key '" + key +
           "' (allowed: " + allowed + ")");
    }
  }
  // Fault site `gen.alloc` (HARD): the family's CSR allocation fails.
  // Surfaces as std::bad_alloc exactly where a real OOM on a too-large
  // spec would — callers must fail loudly, never hand back a torso graph.
  if (util::fault::should_fail("gen.alloc")) throw std::bad_alloc();
  Graph g = [&] {
#if COBRA_OBS_LEVEL >= 1
    // Per-family build time ("gen.build.rreg", ...) plus a global count —
    // by-name lookup is fine here, graph construction dwarfs it.
    obs::ScopedTimer timed(obs::registry().timer("gen.build." + info->name));
    obs::count("gen.graphs_built");
#endif
    Graph built = info->factory(spec, opts);
    // Fault site `gen.build_graph` (HARD): the build dies mid-pipeline,
    // after the factory but before lcc/validate — the half-built graph
    // must be unwound, not returned.
    if (util::fault::should_fail("gen.build_graph")) {
      throw std::runtime_error(
          "build_graph('" + spec.family() +
          "'): injected fault at site gen.build_graph");
    }
    if (spec.get_bool("lcc", false)) {
      built = graph::largest_component(built).graph;
    }
    return built;
  }();
  // Post-build CSR audit (Graph::validate): on in debug builds, and
  // opt-in anywhere via COBRA_VALIDATE_GRAPH=1 — a generator bug that
  // emits an asymmetric CSR corrupts statistics silently, so the paranoid
  // lanes pay the O(m) check and release benches don't.
#ifdef NDEBUG
  const char* check = std::getenv("COBRA_VALIDATE_GRAPH");
  const bool audit = check != nullptr && *check != '\0' && *check != '0';
#else
  const bool audit = true;
#endif
  if (audit) {
    std::string why;
    if (!g.validate(&why)) {
      throw std::logic_error("build_graph('" + spec.family() +
                             "'): generator produced an invalid CSR: " + why);
    }
  }
  return g;
}

Graph build_graph(std::string_view spec_text, const GenOptions& opts) {
  return build_graph(GraphSpec::parse(spec_text), opts);
}

std::string grammar_help() {
  std::size_t width = 0;
  for (const FamilyInfo& info : registry()) {
    width = std::max(width, info.synopsis.size());
  }
  std::string out;
  for (const FamilyInfo& info : registry()) {
    out += "  " + info.synopsis;
    out.append(width - info.synopsis.size() + 2, ' ');
    out += info.description + "\n";
  }
  out +=
      "  shared keys on randomized families: seed=<S> (default 1), lcc=<0|1>\n"
      "  numbers accept 123, 2^20, and 1e6 spellings\n";
  return out;
}

}  // namespace cobra::gen
