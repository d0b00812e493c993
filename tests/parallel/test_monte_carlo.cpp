#include "parallel/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rng/distributions.hpp"

namespace cobra::par {
namespace {

double noisy_trial(rng::Xoshiro256& gen, std::uint32_t /*index*/) {
  return rng::uniform_unit(gen);
}

TEST(MonteCarlo, ParallelMatchesSerial) {
  ThreadPool pool(8);
  MonteCarloOptions opts;
  opts.base_seed = 12345;
  opts.trials = 500;
  const auto parallel = run_trials(pool, opts, noisy_trial);
  const auto serial = run_trials_serial(opts, noisy_trial);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "trial " << i;
  }
}

TEST(MonteCarlo, ThreadCountInvariant) {
  MonteCarloOptions opts;
  opts.base_seed = 42;
  opts.trials = 200;
  ThreadPool one(1);
  ThreadPool many(16);
  EXPECT_EQ(run_trials(one, opts, noisy_trial), run_trials(many, opts, noisy_trial));
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  MonteCarloOptions a, b;
  a.base_seed = 1;
  b.base_seed = 2;
  a.trials = b.trials = 50;
  EXPECT_NE(run_trials_serial(a, noisy_trial), run_trials_serial(b, noisy_trial));
}

TEST(MonteCarlo, TrialsAreIndependentStreams) {
  MonteCarloOptions opts;
  opts.trials = 1000;
  const auto results = run_trials_serial(opts, noisy_trial);
  const std::set<double> unique(results.begin(), results.end());
  EXPECT_EQ(unique.size(), results.size());  // collisions would betray stream reuse
}

TEST(MonteCarlo, TrialIndexIsPassedThrough) {
  MonteCarloOptions opts;
  opts.trials = 64;
  const auto results = run_trials_serial(
      opts, [](rng::Xoshiro256&, std::uint32_t index) {
        return static_cast<double>(index);
      });
  for (std::uint32_t i = 0; i < opts.trials; ++i) {
    EXPECT_EQ(results[i], static_cast<double>(i));
  }
}

TEST(MonteCarlo, ZeroTrialsYieldEmpty) {
  MonteCarloOptions opts;
  opts.trials = 0;
  EXPECT_TRUE(run_trials_serial(opts, noisy_trial).empty());
}

TEST(MonteCarlo, GlobalPoolIsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(MonteCarlo, SampleMeanConverges) {
  ThreadPool pool(8);
  MonteCarloOptions opts;
  opts.trials = 20000;
  const auto results = run_trials(pool, opts, noisy_trial);
  double sum = 0.0;
  for (const double r : results) sum += r;
  EXPECT_NEAR(sum / static_cast<double>(results.size()), 0.5, 0.01);
}

}  // namespace
}  // namespace cobra::par
