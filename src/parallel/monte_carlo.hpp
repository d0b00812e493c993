#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

/// \file monte_carlo.hpp
/// The Monte-Carlo trial driver — the bridge between the paper's
/// "expected cover time" statements and measurable numbers. A *trial* is a
/// function from an independent RNG to a real-valued observation (e.g. the
/// step at which a cobra walk covered the graph). The driver runs `trials`
/// of them across a thread pool, one trial per dynamic claim
/// (par::parallel_for_chunks: cover-time trials have heavy-tailed
/// duration, so a static split would leave workers idle), and returns the
/// observations in trial-index order.
///
/// Determinism contract: trial i always receives an engine seeded with
/// derive_seed(base_seed, i). Results are therefore bit-identical across
/// runs and across any thread count, which is what makes EXPERIMENTS.md
/// reproducible.

namespace cobra::par {

struct MonteCarloOptions {
  std::uint64_t base_seed = 0xC0BA5EEDULL;
  std::uint32_t trials = 100;
};

/// Runs `opts.trials` independent trials of `trial` on `pool` and returns
/// the observations indexed by trial number.
///
/// `trial` must be callable as double(rng::Xoshiro256&, std::uint32_t) —
/// the second argument is the trial index (handy for stratified designs) —
/// and must be thread-safe across distinct calls (i.e. not mutate shared
/// state without synchronization).
template <typename Trial>
std::vector<double> run_trials(ThreadPool& pool, const MonteCarloOptions& opts,
                               Trial&& trial) {
  std::vector<double> results(opts.trials, 0.0);
  parallel_for_chunks(
      pool, opts.trials, pool.size(), [&](std::size_t, std::size_t i) {
        rng::Xoshiro256 engine(rng::derive_seed(opts.base_seed, i));
        results[i] = trial(engine, static_cast<std::uint32_t>(i));
      });
  return results;
}

/// Serial fallback with the same determinism contract; used by tests to
/// verify schedule-independence and by callers that already parallelize at
/// an outer level.
template <typename Trial>
std::vector<double> run_trials_serial(const MonteCarloOptions& opts, Trial&& trial) {
  std::vector<double> results(opts.trials, 0.0);
  for (std::uint32_t i = 0; i < opts.trials; ++i) {
    rng::Xoshiro256 engine(rng::derive_seed(opts.base_seed, i));
    results[i] = trial(engine, i);
  }
  return results;
}

/// Shared process-wide pool, constructed on first use. Experiments and
/// examples route through this so the process never oversubscribes.
ThreadPool& global_pool();

/// Request the worker count for the lazily-created global pool (0 means
/// hardware concurrency, the default). Effective only before the first
/// global_pool() call: returns false and changes nothing once the pool
/// exists. The benches' shared --threads flag routes through this.
bool request_global_pool_threads(std::size_t num_threads);

}  // namespace cobra::par
