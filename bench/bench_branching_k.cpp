/// A1 — ablation: the branching factor k. The paper fixes k = 2 for its
/// main results and notes (§3) that larger constant k only changes
/// constants on grids; k = 1 is exactly the simple random walk.
///
/// Table: per graph family, cover time vs k in {1, 2, 3, 4, 8}. The jump
/// from k=1 to k=2 is the qualitative one (polynomial -> near-optimal);
/// further k buys only constants — the paper's justification for studying
/// 2-cobra walks.
///
/// Usage: bench_branching_k [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Sweep graphs are built through the spec registry. --graph replaces
///   the sweep with one registry-built graph; --smoke shrinks the trial
///   count for CI; --out writes the JSON records.

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

void sweep(const std::string& name, const std::string& spec,
           const graph::Graph& g, std::uint32_t trials, std::uint64_t seed,
           bench::JsonReporter& json) {
  io::Table table({"k", "cover", "speedup vs k=1", "speedup vs k=2"});
  double k1_mean = 0.0, k2_mean = 0.0;
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 8u}) {
    const auto cover = sim::replicate(trials, seed + k, [&](core::Engine& gen) {
      return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, k);
    });
    if (k == 1) k1_mean = cover.mean;
    if (k == 2) k2_mean = cover.mean;
    table.add_row({io::Table::fmt_int(k), bench::mean_ci(cover),
                   io::Table::fmt(k1_mean / cover.mean, 1) + "x",
                   k >= 2 ? io::Table::fmt(k2_mean / cover.mean, 2) + "x" : "-"});
    json.record(name + "/k" + std::to_string(k))
        .field("graph", name)
        .field("spec", spec)
        .field("n", static_cast<double>(g.num_vertices()))
        .field("k", static_cast<double>(k))
        .field("cover_mean", cover.mean)
        .field("cover_ci95", cover.ci95_half)
        .field("speedup_vs_k1", k1_mean / cover.mean);
  }
  std::cout << name << "  (n = " << g.num_vertices() << ")\n" << table << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args = bench::parse_bench_args(argc, argv, {"trials"});
  const bool smoke = args.get_bool("smoke", false);
  const auto trials =
      static_cast<std::uint32_t>(args.get_uint("trials", smoke ? 5 : 30));

  bench::print_header(
      "A1  (ablation)",
      "branching factor k: k=1 is the plain random walk; k=2 is the paper's "
      "process;\nlarger k buys only constant factors");

  bench::JsonReporter json("branching_k");
  json.context("trials", static_cast<double>(trials));
  if (smoke) json.context("smoke", 1.0);

  if (args.has("graph")) {
    const std::string spec = io::graph_spec_from_args(args, "");
    sweep(spec, spec, bench::bench_graph(args, spec), trials, 0xA1900, json);
  } else {
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"grid 24x24", smoke ? "grid:side=8,dims=2" : "grid:side=24,dims=2"},
        {"cycle", smoke ? "ring:n=64" : "ring:n=256"},
        {"random 4-regular",
         smoke ? "rreg:n=128,d=4,seed=10" : "rreg:n=512,d=4,seed=10"},
        {"lollipop", smoke ? "lollipop:clique=20,path=10"
                           : "lollipop:clique=80,path=40"},
        {"binary tree", smoke ? "tree:levels=5" : "tree:levels=8"},
    };
    std::uint64_t seed = 0xA1100;
    for (const auto& [name, spec] : cases) {
      sweep(name, spec, gen::build_graph(spec), trials, seed, json);
      seed += 0x100;
    }
  }

  std::cout
      << "reading: the k=1 -> k=2 jump is one-to-two orders of magnitude on\n"
         "grids/cycles/lollipops (branching defeats diffusive backtracking);\n"
         "k=2 -> k=8 is a small constant. This is the ablation behind the\n"
         "paper's choice to analyze 2-cobra walks only.\n";
  if (args.has("out")) return json.write(args.get("out", "")) ? 0 : 1;
  return 0;
}
