/// A3 — strong scaling of the Monte-Carlo driver: wall-clock speedup of a
/// fixed trial budget as the thread count grows. Trials are embarrassingly
/// parallel with heavy-tailed durations; run_trials claims them one at a
/// time (dynamic schedule), so it should scale near-linearly until memory
/// bandwidth saturates. Results go to BENCH_parallel_scaling.json for the
/// perf trajectory.
///
/// Usage: bench_parallel_scaling [--out path] [--trials T]
///        [--graph <spec>] [--smoke]
///   Default graph: grid:side=48,dims=2 (the paper's E1 topology at a
///   size whose cover time is ~ms per trial). --smoke shrinks to a 16x16
///   grid and 48 trials for CI.

#include <chrono>
#include <cstdlib>
#include <string>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

double timed_run(std::size_t threads, const graph::Graph& g,
                 std::uint32_t trials) {
  par::ThreadPool pool(threads);
  par::MonteCarloOptions opts;
  opts.base_seed = 0xA3;
  opts.trials = trials;
  const auto start = std::chrono::steady_clock::now();
  const auto results = par::run_trials(pool, opts, [&](core::Engine& gen,
                                                       std::uint32_t) {
    return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
  });
  const auto stop = std::chrono::steady_clock::now();
  // Guard against the optimizer and against silent wrong results.
  if (results.size() != trials) std::abort();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args = bench::parse_bench_args(argc, argv, {"trials"});
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get("out", "BENCH_parallel_scaling.json");
  const auto trials_arg = args.get_uint("trials", smoke ? 48 : 384);
  if (trials_arg < 1 || trials_arg > 1000000) {
    std::cerr << "bench_parallel_scaling: --trials must be in [1, 1000000]\n";
    return 1;
  }
  const auto trials = static_cast<std::uint32_t>(trials_arg);

  bench::print_header(
      "A3  (systems)",
      "strong scaling of the Monte-Carlo driver (fixed trial budget)");

  const std::string default_spec =
      smoke ? "grid:side=16,dims=2" : "grid:side=48,dims=2";
  const std::string spec = io::graph_spec_from_args(args, default_spec);
  const graph::Graph g = bench::bench_graph(args, default_spec);

  bench::JsonReporter json("parallel_scaling");
  json.context("graph", spec);
  json.context("vertices", static_cast<double>(g.num_vertices()));
  json.context("trials", static_cast<double>(trials));
  if (smoke) json.context("smoke", 1.0);

  // Representation probe: one cover run through a directly-held walk, so
  // the JSON records which frontier representations the trial workload
  // actually exercises on this graph (the Monte-Carlo rows construct their
  // walks internally and cannot expose the engine counters).
  {
    core::CobraWalk probe(g, 0, 2);
    core::Engine probe_gen(0xA3);
    (void)sim::run_cover(probe, probe_gen, 1u << 22);
    json.record("representation_probe")
        .field("rounds", static_cast<double>(probe.round()))
        .field("dense_rounds",
               static_cast<double>(probe.engine().dense_rounds()))
        .field("sparse_rounds",
               static_cast<double>(probe.engine().sparse_rounds()))
        .field("switches", static_cast<double>(probe.engine().switches()))
        .field("parallel_rounds",
               static_cast<double>(probe.engine().parallel_rounds()));
  }

  // Warm-up run so first-touch page faults don't pollute the 1-thread row.
  (void)timed_run(2, g, trials / 6 + 1);

  const double serial = timed_run(1, g, trials);
  io::Table table({"threads", "dynamic (s)", "speedup", "efficiency"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double dyn = timed_run(threads, g, trials);
    table.add_row(
        {io::Table::fmt_int(static_cast<long long>(threads)),
         io::Table::fmt(dyn, 3),
         io::Table::fmt(serial / dyn, 2) + "x",
         io::Table::fmt(serial / dyn / static_cast<double>(threads) * 100.0, 0) + "%"});
    json.record("threads" + std::to_string(threads))
        .field("threads", static_cast<double>(threads))
        .field("dynamic_seconds", dyn)
        .field("dynamic_speedup", serial / dyn)
        .field("dynamic_efficiency", serial / dyn / static_cast<double>(threads));
  }
  std::cout << table << "\n";
  const bool wrote = json.write(out_path);
  std::cout
      << "reading: near-linear speedup through the physical core count;\n"
         "trials are claimed one at a time, so heavy-tailed cover times\n"
         "do not leave workers idle behind a straggler.\n";
  return wrote ? 0 : 1;
}
