// Tests for the obs metrics registry: counter/gauge/timer primitives,
// snapshot/reset semantics, concurrent increments, the fault registry's
// migration onto registry-backed counters, and MetricsObserver through
// sim::Runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cobra_walk.hpp"
#include "gen/registry.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_observer.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

const obs::Sample* find_sample(const std::vector<obs::Sample>& samples,
                               const std::string& name) {
  const auto it = std::find_if(samples.begin(), samples.end(),
                               [&](const obs::Sample& s) {
                                 return s.name == name;
                               });
  return it == samples.end() ? nullptr : &*it;
}

TEST(Metrics, CounterAddReturnsPreviousValue) {
  obs::Counter c;
  EXPECT_EQ(c.add(), 0u);
  EXPECT_EQ(c.add(5), 1u);
  EXPECT_EQ(c.value(), 6u);
  c.set(0);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, TimerAccumulatesAcrossSlots) {
  obs::Timer t;
  t.add(100);
  t.add(50, 3);
  EXPECT_EQ(t.total_ns(), 150u);
  EXPECT_EQ(t.count(), 4u);
  t.reset();
  EXPECT_EQ(t.total_ns(), 0u);
  EXPECT_EQ(t.count(), 0u);
}

TEST(Metrics, RegistryReturnsStableReferencesByName) {
  obs::Counter& a = obs::registry().counter("test.stable");
  obs::Counter& b = obs::registry().counter("test.stable");
  EXPECT_EQ(&a, &b);
  // Distinct kinds under one name are distinct metrics.
  obs::Gauge& g = obs::registry().gauge("test.stable");
  g.set(2.5);
  a.add(7);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, SnapshotListsRegisteredMetricsSorted) {
  obs::registry().counter("test.snap.b").set(3);
  obs::registry().counter("test.snap.a").set(1);
  obs::registry().gauge("test.snap.g").set(0.5);
  obs::Timer& t = obs::registry().timer("test.snap.t");
  t.reset();
  t.add(2'000'000'000, 2);  // 2 s over 2 calls

  const auto samples = obs::registry().snapshot();
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const obs::Sample& x, const obs::Sample& y) {
                               return x.name < y.name;
                             }));
  const obs::Sample* a = find_sample(samples, "test.snap.a");
  const obs::Sample* b = find_sample(samples, "test.snap.b");
  const obs::Sample* g = find_sample(samples, "test.snap.g");
  const obs::Sample* timer = find_sample(samples, "test.snap.t");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(g, nullptr);
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(a->kind, "counter");
  EXPECT_DOUBLE_EQ(a->value, 1.0);
  EXPECT_DOUBLE_EQ(b->value, 3.0);
  EXPECT_EQ(g->kind, "gauge");
  EXPECT_DOUBLE_EQ(g->value, 0.5);
  EXPECT_EQ(timer->kind, "timer");
  EXPECT_DOUBLE_EQ(timer->value, 2.0);  // seconds
  EXPECT_EQ(timer->count, 2u);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrationsAndReferences) {
  obs::Counter& c = obs::registry().counter("test.reset.c");
  obs::Gauge& g = obs::registry().gauge("test.reset.g");
  obs::Timer& t = obs::registry().timer("test.reset.t");
  c.add(9);
  g.set(1.25);
  t.add(10);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(t.total_ns(), 0u);
  // Registration survives: the name still snapshots, and the cached
  // reference still feeds it.
  c.add(2);
  const auto samples = obs::registry().snapshot();
  const obs::Sample* s = find_sample(samples, "test.reset.c");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 2.0);
}

TEST(Metrics, ConcurrentIncrementsLoseNothing) {
  obs::Counter& c = obs::registry().counter("test.concurrent");
  obs::Timer& t = obs::registry().timer("test.concurrent.t");
  c.set(0);
  t.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        t.add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.total_ns(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, FaultHitsAreRegistryBackedCounters) {
  util::fault::disarm_all();
  util::fault::arm("test.site", 2);
  EXPECT_FALSE(util::fault::should_fail("test.site"));  // hit 0
  EXPECT_FALSE(util::fault::should_fail("test.site"));  // hit 1
  EXPECT_TRUE(util::fault::should_fail("test.site"));   // hit 2: fails
  EXPECT_EQ(util::fault::hits("test.site"), 3u);
  // The same count is visible through the registry — hits() is now a thin
  // wrapper over "fault.<site>.hits".
  EXPECT_EQ(obs::registry().counter("fault.test.site.hits").value(), 3u);
  const auto samples = obs::registry().snapshot();
  const obs::Sample* s = find_sample(samples, "fault.test.site.hits");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 3.0);
  util::fault::disarm_all();
}

TEST(Metrics, MetricsObserverFeedsRegistryThroughRunner) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=11");
  obs::Counter& rounds = obs::registry().counter("sim.observed_rounds");
  obs::Counter& runs = obs::registry().counter("sim.observed_runs");
  const std::uint64_t rounds_before = rounds.value();
  const std::uint64_t runs_before = runs.value();
  core::Engine gen(77);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  obs::MetricsObserver metrics;
  const auto r = sim::Runner(1u << 20).run(walk, gen, cover, metrics);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(rounds.value() - rounds_before, r.rounds);
  EXPECT_EQ(runs.value() - runs_before, 1u);
  EXPECT_GE(obs::registry().gauge("sim.peak_active_size").value(), 1.0);
}

TEST(Metrics, WriteMetricsJsonEmitsManifestAndSamples) {
  obs::registry().counter("test.json.marker").set(42);
  const std::string path = testing::TempDir() + "cobra_metrics_test.json";
  ASSERT_TRUE(obs::write_metrics_json(path));
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  EXPECT_NE(text.find("\"manifest\""), std::string::npos);
  EXPECT_NE(text.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(text.find("\"build_type\""), std::string::npos);
  EXPECT_NE(text.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(text.find("\"test.json.marker\""), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  // The manifest helper agrees with what was stamped.
  const obs::Manifest m = obs::current_manifest();
  EXPECT_NE(text.find(m.git_sha), std::string::npos);
  EXPECT_FALSE(m.build_type.empty());
}

}  // namespace
