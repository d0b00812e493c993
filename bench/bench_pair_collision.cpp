/// A4 — Lemma 11 (the heart of Theorem 8's second-moment bound): after the
/// coupled two-pebble Walt walk mixes, the probability that pebbles i and
/// j sit on the SAME arbitrary vertex v at time s satisfies
///
///     Pr[E_i ∩ E_j] <= 2/(n^2 + n) + 1/n^4,
///
/// because the walk on the Eulerian digraph D(G x G) has stationary mass
/// exactly 2/(n^2+n) on each diagonal state. Tables:
///   1. exact stationary check: D(G x G) out-weight distribution vs the
///      closed form (machine-precision identity, printed as max error);
///   2. simulated collision probability at time s vs the Lemma 11 bound,
///      per family, with the paper's lazy pairing;
///   3. TV-mixing of the matrix walk: distance to stationarity vs s,
///      showing the O(Phi^-2 log n) decay Theorem 12 (Chung) provides.
///
/// Usage: bench_pair_collision [--trials T] [--graph <spec>] [--out path]
///        [--smoke] [--caps] [--metrics path] [--trace path]
///   Case graphs are built through the spec registry. --graph replaces
///   the simulated-collision case list with that one graph ONLY — the
///   exact D(G x G) tables keep their tiny built-in cases (they
///   materialize n^2 states), so this bench declares `graph=partial` in
///   its --caps metadata and sweep drivers skip it rather than hardcoding
///   the exception. --smoke shrinks the trial count for CI (the graph
///   suite is already tiny; no sizes change under --smoke). --metrics
///   snapshots the registry (gen.build.* timers and the rest) on exit;
///   --trace records only the rounds that run through the FrontierEngine
///   (the matrix pair walk steps outside it, so expect few or no lines).

#include <cmath>

#include "harness.hpp"

#include "core/pair_walk.hpp"
#include "graph/spectral.hpp"
#include "graph/tensor_product.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

void stationary_identity_table(bench::Harness& h) {
  std::cout << "1) D(G x G) stationary vs closed form (Eulerian identity)\n";
  io::Table table({"graph", "n^2 states", "max |pi - closed|", "balanced"});
  table.set_align(0, io::Align::Left);
  // Tiny cases only: the pair digraph materializes n^2 states, so this
  // exact table never follows --graph.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"cycle n=8", "ring:n=8"},
      {"complete n=6", "complete:n=6"},
      {"hypercube Q_3", "hypercube:dims=3"},
      {"random 4-regular n=12", "rreg:n=12,d=4,seed=164"},
  };
  for (const auto& [name, spec] : cases) {
    const graph::Graph g = gen::build_graph(spec);
    const graph::Digraph d = graph::walt_pair_digraph(g);
    const auto closed = graph::walt_pair_stationary(g.num_vertices());
    double total = 0.0;
    for (graph::Vertex pv = 0; pv < d.num_vertices(); ++pv) {
      total += d.out_weight_total(pv);
    }
    double max_err = 0.0;
    for (graph::Vertex pv = 0; pv < d.num_vertices(); ++pv) {
      const double pi = d.out_weight_total(pv) / total;
      const double expect = graph::is_diagonal(pv, g.num_vertices())
                                ? closed.diagonal
                                : closed.off_diagonal;
      max_err = std::max(max_err, std::abs(pi - expect));
    }
    table.add_row({name, io::Table::fmt_int(d.num_vertices()),
                   io::Table::fmt_sci(max_err, 2),
                   d.is_weight_balanced() ? "yes" : "NO"});
    h.json()
        .record("stationary/" + name)
        .field("spec", spec)
        .field("pair_states", static_cast<double>(d.num_vertices()))
        .field("max_stationary_error", max_err)
        .field("weight_balanced", d.is_weight_balanced() ? 1.0 : 0.0);
  }
  std::cout << table << "\n";
}

void collision_table(bench::Harness& h, std::uint32_t trials) {
  std::cout << "2) simulated Pr[i, j co-located at time s] vs the Lemma 11 "
               "bound\n";
  io::Table table({"graph", "n", "s", "Pr[collision]", "n * pi(S1) = 2/(n+1)",
                   "Lemma 11 bound * n"});
  table.set_align(0, io::Align::Left);
  const std::vector<bench::SuiteCase> cases = {
      {"complete n=16", "complete:n=16"},
      {"hypercube Q_6", "hypercube:dims=6", "hypercube:dims=4"},
      {"random 6-regular n=64", "rreg:n=64,d=6,seed=165",
       "rreg:n=32,d=6,seed=165"},
      {"torus 8x8", "torus:side=8,dims=2"},
  };
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    const auto n = g.num_vertices();
    // Mixing horizon: generous multiple of Phi^-2 log^2 n.
    const auto est = graph::estimate_conductance(g);
    const double phi = est.point();
    const auto s = static_cast<std::uint64_t>(
        16.0 / (phi * phi) * std::log(static_cast<double>(n)) + 64);
    // Probability that the pair is co-located (summed over all v — the
    // per-v bound times n) at time s, over trials.
    const auto prob = sim::replicate(
        trials, 0xA4200 ^ std::hash<std::string>{}(c.spec),
        [&, s](core::Engine& gen) {
          // The product walk as a sim::Process on D(G x G): a fixed-horizon
          // Runner schedule replaces the hand-rolled step loop (identical
          // draws — the Runner adds no randomness).
          core::PairWalk walk(g, 0, 0, /*lazy=*/true);
          sim::FixedRounds horizon(s);
          sim::Runner(s).run(walk, gen, horizon);
          return walk.collided() ? 1.0 : 0.0;
        });
    const double stationary_sum = 2.0 / (n + 1.0);
    const double bound_sum =
        n * (2.0 / (static_cast<double>(n) * n + n) +
             1.0 / std::pow(static_cast<double>(n), 4.0));
    table.add_row({c.name, io::Table::fmt_int(n),
                   io::Table::fmt_int(static_cast<long long>(s)),
                   io::Table::fmt(prob.mean, 4),
                   io::Table::fmt(stationary_sum, 4),
                   io::Table::fmt(bound_sum, 4)});
    h.json()
        .record("collision/" + c.name)
        .field("spec", c.spec)
        .field("n", static_cast<double>(n))
        .field("s", static_cast<double>(s))
        .field("collision_prob", prob.mean)
        .field("stationary_sum", stationary_sum)
        .field("lemma11_bound_times_n", bound_sum);
  }
  std::cout << table
            << "reading: the collision probability lands on the stationary\n"
               "value and under the bound x n (the bound is per-vertex; the\n"
               "collision event sums it over all n vertices).\n\n";
}

void mixing_table(bench::Harness& h) {
  std::cout << "3) TV mixing of the D(G x G) matrix walk\n";
  const graph::Graph g = gen::build_graph("complete:n=8");
  const graph::Digraph d = graph::walt_pair_digraph(g);
  const std::uint32_t n = g.num_vertices();
  const auto closed = graph::walt_pair_stationary(n);
  std::vector<double> pi(d.num_vertices());
  for (graph::Vertex pv = 0; pv < d.num_vertices(); ++pv) {
    pi[pv] = graph::is_diagonal(pv, n) ? closed.diagonal : closed.off_diagonal;
  }
  // Lazy version of the chain: average with staying put (the paper's Walt
  // laziness), realized by mixing the pushed distribution 50/50.
  std::vector<double> current(d.num_vertices(), 0.0);
  current[graph::tensor_id(0, 0, n)] = 1.0;  // both pebbles at vertex 0
  std::vector<double> pushed(d.num_vertices());
  io::Table table({"s", "TV(P^s(x0, .), pi)"});
  for (std::uint32_t s = 0; s <= 32; ++s) {
    if (s % 4 == 0) {
      const double tv = graph::total_variation(current, pi);
      table.add_row({io::Table::fmt_int(s), io::Table::fmt_sci(tv, 3)});
      h.json()
          .record("mixing/s" + std::to_string(s))
          .field("s", static_cast<double>(s))
          .field("tv_distance", tv);
    }
    d.push_distribution(current, pushed);
    for (std::size_t i = 0; i < current.size(); ++i) {
      current[i] = 0.5 * current[i] + 0.5 * pushed[i];
    }
  }
  std::cout << table
            << "reading: geometric TV decay from a worst-case start — the\n"
               "rapid directed-chain mixing that Chung's Theorem 7.3 (the\n"
               "paper's Theorem 12) guarantees via the directed Cheeger\n"
               "constant, here visible directly.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("pair_collision",
                   bench::parse_bench_args(
                       argc, argv, {"trials"},
                       {.graph = bench::BenchCaps::Graph::Partial}));
  const std::uint32_t trials = h.trials(4000, 400);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header("A4  (Lemma 11 / §4 machinery)",
                      "two-pebble collision probability and D(G x G) mixing");
  if (!h.has_graph()) stationary_identity_table(h);
  collision_table(h, trials);
  if (!h.has_graph()) mixing_table(h);
  return h.finish();
}
