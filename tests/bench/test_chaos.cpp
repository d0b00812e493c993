// Tests for the cobra_chaos fuzz engine (bench/chaos.{hpp,cpp}):
// trajectory fingerprints are deterministic and thread-count-invariant,
// graceful plans leave them unchanged (for the cobra, generalized-cobra
// and MIS processes), the planted chaos.degrade_bug is caught AND shrunk
// to a minimal reproducer, shrink_plan's greedy delta-debug keeps exactly
// the necessary entries, and a clean run's report carries the expected
// accounting.

#include "chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;
using util::fault::FaultPlan;

struct ChaosTest : ::testing::Test {
  void SetUp() override { util::fault::disarm_all(); }
  void TearDown() override { util::fault::disarm_all(); }
};

TEST_F(ChaosTest, TrajectoryFingerprintIsDeterministicAndThreadInvariant) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t f1 = bench::chaos_trajectory(g, 1, 99, 24, 2, false);
  const std::uint64_t f1b = bench::chaos_trajectory(g, 1, 99, 24, 2, false);
  const std::uint64_t f2 = bench::chaos_trajectory(g, 2, 99, 24, 2, false);
  EXPECT_EQ(f1, f1b);
  EXPECT_EQ(f1, f2) << "trajectory depends on thread count";
  // Different walk seed, different trajectory.
  EXPECT_NE(f1, bench::chaos_trajectory(g, 1, 100, 24, 2, false));
}

TEST_F(ChaosTest, GracefulPlanLeavesTheFingerprintUnchanged) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t baseline = bench::chaos_trajectory(g, 2, 5, 24, 2, false);
  // Arm every graceful catalog site at once — the worst graceful storm.
  FaultPlan plan;
  for (const std::string& site : bench::chaos_graceful_sites(false)) {
    plan.specs.push_back(FaultPlan::parse(site + "%0.5").specs[0]);
  }
  plan.seed = 13;
  util::fault::arm_plan(plan);
  const std::uint64_t stormy = bench::chaos_trajectory(g, 2, 5, 24, 2, false);
  util::fault::disarm_all();
  EXPECT_EQ(stormy, baseline);
}

TEST_F(ChaosTest, DegradeBugChangesTheFingerprint) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t baseline = bench::chaos_trajectory(g, 1, 5, 24, 2, true);
  util::fault::arm("chaos.degrade_bug", 3);
  const std::uint64_t broken = bench::chaos_trajectory(g, 1, 5, 24, 2, true);
  util::fault::disarm_all();
  EXPECT_NE(broken, baseline) << "the planted bug fired but nothing diverged";
}

TEST_F(ChaosTest, ShrinkPlanKeepsExactlyTheNecessaryEntries) {
  const FaultPlan plan = FaultPlan::parse("a@1,b@2%0.5,c#3,d@4");
  // "Reproduces" iff the sub-plan still contains both b and d.
  const auto needs_b_and_d = [](const FaultPlan& p) {
    const auto has = [&p](const std::string& name) {
      return std::any_of(p.specs.begin(), p.specs.end(),
                         [&](const auto& s) { return s.site == name; });
    };
    return has("b") && has("d");
  };
  std::size_t runs = 0;
  const FaultPlan shrunk = bench::shrink_plan(plan, needs_b_and_d, &runs);
  ASSERT_EQ(shrunk.specs.size(), 2u);
  EXPECT_EQ(shrunk.specs[0].site, "b");
  EXPECT_EQ(shrunk.specs[1].site, "d");
  EXPECT_GT(runs, 0u);
  // Suffixes survive the shrink untouched (the reproducer must replay).
  EXPECT_DOUBLE_EQ(shrunk.specs[0].prob, 0.5);
}

TEST_F(ChaosTest, ShrinkPlanIsIdentityOnSingleEntryPlans) {
  const FaultPlan plan = FaultPlan::parse("only.site@2");
  const auto always = [](const FaultPlan&) { return true; };
  EXPECT_EQ(bench::shrink_plan(plan, always).specs.size(), 1u);
}

TEST_F(ChaosTest, CleanFuzzReportsNoViolationsWithFullAccounting) {
  bench::ChaosConfig config;
  config.specs = {"rreg:n=128,d=4,seed=3"};
  config.threads = {1, 2};
  config.schedules = 8;
  config.seed = 1;
  config.rounds = 12;
  config.scratch_path = ::testing::TempDir() + "chaos_clean.snap";
  const bench::ChaosReport report = bench::run_chaos(config);
  EXPECT_EQ(report.cells, 2u);
  EXPECT_EQ(report.fuzz_runs, 16u);
  EXPECT_GT(report.hard_checks, 0u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(util::fault::armed_sites().empty());  // registry left clean
  const std::string text = bench::render_chaos_report(report, config);
  EXPECT_NE(text.find("0 violations"), std::string::npos);
}

TEST_F(ChaosTest, GcobraGracefulStormMatchesTheUnarmedSerialRun) {
  // The random branching schedule draws from the chunk stream next to the
  // neighbour samples, so a graceful site that changed which stream values
  // the schedule reads would change the walk.
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  const std::uint64_t baseline =
      bench::chaos_gcobra_trajectory(g, 1, 5, 24, 2, false);
  EXPECT_NE(baseline, bench::chaos_gcobra_trajectory(g, 1, 6, 24, 2, false));
  FaultPlan plan;
  for (const std::string& site : bench::chaos_graceful_sites(false)) {
    plan.specs.push_back(FaultPlan::parse(site + "%0.5").specs[0]);
  }
  plan.seed = 13;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::fault::arm_plan(plan);
    const std::uint64_t stormy =
        bench::chaos_gcobra_trajectory(g, threads, 5, 24, 2, false);
    util::fault::disarm_all();
    EXPECT_EQ(stormy, baseline)
        << "a graceful degradation changed a generalized-cobra trajectory";
  }
}

TEST_F(ChaosTest, MisFingerprintIsDeterministicAndThreadInvariant) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t f1 = bench::chaos_mis_trajectory(g, 1, 99, 24, 2, false);
  const std::uint64_t f1b = bench::chaos_mis_trajectory(g, 1, 99, 24, 2, false);
  const std::uint64_t f8 = bench::chaos_mis_trajectory(g, 8, 99, 24, 2, false);
  EXPECT_EQ(f1, f1b);
  EXPECT_EQ(f1, f8) << "MIS trajectory depends on thread count";
  EXPECT_NE(f1, bench::chaos_mis_trajectory(g, 1, 100, 24, 2, false));
}

TEST_F(ChaosTest, MisGracefulStormLeavesTheFingerprintUnchanged) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t baseline =
      bench::chaos_mis_trajectory(g, 2, 5, 24, 2, false);
  FaultPlan plan;
  for (const std::string& site : bench::chaos_graceful_sites(false)) {
    plan.specs.push_back(FaultPlan::parse(site + "%0.5").specs[0]);
  }
  plan.seed = 13;
  util::fault::arm_plan(plan);
  const std::uint64_t stormy =
      bench::chaos_mis_trajectory(g, 2, 5, 24, 2, false);
  util::fault::disarm_all();
  EXPECT_EQ(stormy, baseline)
      << "a graceful degradation changed a retain-path trajectory";
}

TEST_F(ChaosTest, MisDegradeBugChangesTheFingerprint) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=7");
  const std::uint64_t baseline =
      bench::chaos_mis_trajectory(g, 1, 5, 24, 2, true);
  util::fault::arm("chaos.degrade_bug", 1);
  const std::uint64_t broken = bench::chaos_mis_trajectory(g, 1, 5, 24, 2, true);
  util::fault::disarm_all();
  EXPECT_NE(broken, baseline) << "the planted MIS bug fired silently";
}

TEST_F(ChaosTest, MisCleanFuzzReportsNoViolations) {
  bench::ChaosConfig config;
  config.process = "mis";
  config.specs = {"rreg:n=128,d=4,seed=3"};
  config.threads = {1, 2};
  config.schedules = 8;
  config.seed = 1;
  config.rounds = 12;
  config.scratch_path = ::testing::TempDir() + "chaos_mis_clean.snap";
  const bench::ChaosReport report = bench::run_chaos(config);
  EXPECT_EQ(report.cells, 2u);
  EXPECT_EQ(report.fuzz_runs, 16u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(util::fault::armed_sites().empty());
  const std::string text = bench::render_chaos_report(report, config);
  EXPECT_NE(text.find("process=mis"), std::string::npos);
}

TEST_F(ChaosTest, MisInjectedBugIsCaughtAndShrunk) {
  bench::ChaosConfig config;
  config.process = "mis";
  config.specs = {"rreg:n=128,d=4,seed=3"};
  config.threads = {1};
  config.schedules = 16;
  config.seed = 1;
  config.rounds = 12;
  config.inject_bug = true;
  config.scratch_path = ::testing::TempDir() + "chaos_mis_bug.snap";
  const bench::ChaosReport report = bench::run_chaos(config);
  ASSERT_FALSE(report.violations.empty())
      << "16 schedules over the bug catalog never tripped the MIS bug";
  for (const bench::ChaosViolation& v : report.violations) {
    EXPECT_LE(v.shrunk.specs.size(), 2u) << "reproducer not minimal";
    EXPECT_TRUE(std::any_of(
        v.shrunk.specs.begin(), v.shrunk.specs.end(),
        [](const auto& s) { return s.site == "chaos.degrade_bug"; }))
        << "shrunk plan lost the planted bug";
  }
}

TEST_F(ChaosTest, UnknownProcessIsALoudConfigError) {
  bench::ChaosConfig config;
  config.specs = {"ring:n=16"};
  config.threads = {1};
  config.process = "walt";
  EXPECT_THROW((void)bench::run_chaos(config), std::invalid_argument);
}

TEST_F(ChaosTest, InjectedBugIsCaughtAndShrunkToAMinimalReproducer) {
  bench::ChaosConfig config;
  config.specs = {"rreg:n=128,d=4,seed=3"};
  config.threads = {1};
  config.schedules = 16;
  config.seed = 1;
  config.rounds = 12;
  config.inject_bug = true;
  config.scratch_path = ::testing::TempDir() + "chaos_bug.snap";
  const bench::ChaosReport report = bench::run_chaos(config);
  ASSERT_FALSE(report.violations.empty())
      << "16 schedules over the bug catalog never drew the planted bug";
  for (const bench::ChaosViolation& v : report.violations) {
    EXPECT_LE(v.shrunk.specs.size(), 2u) << "reproducer not minimal";
    EXPECT_TRUE(std::any_of(
        v.shrunk.specs.begin(), v.shrunk.specs.end(),
        [](const auto& s) { return s.site == "chaos.degrade_bug"; }))
        << "shrunk plan lost the planted bug";
  }
  // The report renders a replayable --fault-plan block per violation.
  const std::string text = bench::render_chaos_report(report, config);
  EXPECT_NE(text.find("seed="), std::string::npos);
  EXPECT_NE(text.find("chaos.degrade_bug"), std::string::npos);
}

}  // namespace
