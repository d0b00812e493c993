#include "sim/runner.hpp"

#include <limits>

#include "core/cobra_walk.hpp"
#include "parallel/monte_carlo.hpp"
#include "rng/distributions.hpp"

namespace cobra::sim {

std::uint64_t default_step_budget(std::uint32_t num_vertices) {
  // Worst case for simple RW cover is Θ(n^3); pad by 32x and floor the
  // budget so tiny graphs aren't budget-bound either. 32 n^3 exceeds 64
  // bits past n = 832,255, so saturate there instead of wrapping.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto n = static_cast<std::uint64_t>(num_vertices);
  const std::uint64_t square = n * n;  // < 2^64 for any 32-bit n
  if (n != 0 && square > kMax / 32 / n) return kMax;
  const std::uint64_t cubic = 32 * square * n;
  return cubic < 1u << 20 ? 1u << 20 : cubic;
}

stats::Summary replicate(std::uint32_t trials, std::uint64_t seed,
                         const std::function<double(core::Engine&)>& trial) {
  par::MonteCarloOptions opts;
  opts.base_seed = seed;
  opts.trials = trials;
  const auto samples = par::run_trials(
      par::global_pool(), opts,
      [&](core::Engine& gen, std::uint32_t) { return trial(gen); });
  return stats::summarize(samples);
}

HmaxEstimate estimate_cobra_hmax(const graph::Graph& g,
                                 std::uint32_t branching, core::Engine& gen,
                                 std::uint64_t pair_samples,
                                 std::uint32_t trials_per_pair,
                                 std::uint64_t max_rounds) {
  const std::uint32_t n = g.num_vertices();
  HmaxEstimate est;

  auto consider_pair = [&](core::Vertex u, core::Vertex v) {
    if (u == v) return;
    double total = 0.0;
    for (std::uint32_t t = 0; t < trials_per_pair; ++t) {
      core::CobraWalk walk(g, u, branching);
      const RunResult r = run_hit(walk, v, gen, max_rounds);
      if (!r.stopped) est.all_hit = false;
      total += static_cast<double>(r.rounds);
    }
    const double mean = total / trials_per_pair;
    ++est.pairs;
    if (mean > est.hmax) {
      est.hmax = mean;
      est.argmax_from = u;
      est.argmax_to = v;
    }
  };

  if (pair_samples == 0) {
    for (core::Vertex u = 0; u < n; ++u) {
      for (core::Vertex v = 0; v < n; ++v) consider_pair(u, v);
    }
  } else {
    for (std::uint64_t s = 0; s < pair_samples; ++s) {
      const auto [u, v] = rng::distinct_pair(gen, n);
      consider_pair(static_cast<core::Vertex>(u), static_cast<core::Vertex>(v));
    }
  }
  return est;
}

}  // namespace cobra::sim
