#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.hpp"

// Every rule family: fires on a violating snippet, stays silent on the
// clean/out-of-scope variant, and never fires on the same construct
// quoted in a string or discussed in a comment. Snippets are linted via
// lint_text, the exact path the real tool takes.

namespace {

using cobra::lint::Finding;
using cobra::lint::lint_text;

std::vector<std::string> rules_hit(const std::string& path,
                                   const std::string& src) {
  std::vector<std::string> out;
  for (const Finding& f : lint_text(path, src)) out.push_back(f.rule);
  return out;
}

bool hits(const std::string& path, const std::string& src,
          const std::string& rule) {
  const auto r = rules_hit(path, src);
  return std::find(r.begin(), r.end(), rule) != r.end();
}

// ----------------------------------------------------------- D1-rand ----

TEST(LintRules, RandFires) {
  EXPECT_TRUE(hits("src/core/x.cpp", "int v = std::rand();\n", "D1-rand"));
  EXPECT_TRUE(hits("bench/x.cpp", "srand(42);\n", "D1-rand"));
}

TEST(LintRules, RandSilentOnCleanAndNonCall) {
  EXPECT_FALSE(hits("src/core/x.cpp", "int v = gen.next();\n", "D1-rand"));
  // Identifier containing 'rand' on a word boundary but not a call.
  EXPECT_FALSE(hits("src/core/x.cpp", "int rand_count = 0;\n", "D1-rand"));
}

TEST(LintRules, RandSilentInStringAndComment) {
  EXPECT_FALSE(
      hits("src/core/x.cpp", "log(\"std::rand() is banned\");\n", "D1-rand"));
  EXPECT_FALSE(
      hits("src/core/x.cpp", "// never call std::rand() here\n", "D1-rand"));
}

// -------------------------------------------------- D1-random-device ----

TEST(LintRules, RandomDeviceScopedToRng) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_TRUE(hits("src/core/x.cpp", src, "D1-random-device"));
  EXPECT_TRUE(hits("src/sim/x.cpp", src, "D1-random-device"));
  EXPECT_FALSE(hits("src/rng/entropy.cpp", src, "D1-random-device"));
}

// ---------------------------------------------------------- D1-clock ----

TEST(LintRules, WallClockFiresEverywhere) {
  EXPECT_TRUE(hits("src/core/x.cpp",
                   "auto t = std::chrono::system_clock::now();\n",
                   "D1-clock"));
  EXPECT_TRUE(hits("bench/x.cpp", "seed = time(nullptr);\n", "D1-clock"));
  EXPECT_TRUE(hits("src/gen/x.cpp", "auto c = clock();\n", "D1-clock"));
}

TEST(LintRules, MonotonicClockScopedToObsAndBench) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(hits("src/core/x.cpp", src, "D1-clock"));
  EXPECT_FALSE(hits("src/obs/metrics.cpp", src, "D1-clock"));
  EXPECT_FALSE(hits("bench/bench_x.cpp", src, "D1-clock"));
  EXPECT_FALSE(hits("tools/x.cpp", src, "D1-clock"));
}

TEST(LintRules, ClockSilentOnLookalikes) {
  // time_point is its own identifier; member calls and fields named time
  // are not the libc time().
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "std::uint64_t time_point = 0; t.time_ms = 4;\n",
                    "D1-clock"));
  EXPECT_FALSE(
      hits("src/core/x.cpp", "double cover_time(Vertex v);\n", "D1-clock"));
}

// ------------------------------------------------------ D1-thread-id ----

TEST(LintRules, ThreadIdFires) {
  EXPECT_TRUE(hits("src/core/x.cpp",
                   "auto id = std::this_thread::get_id();\n", "D1-thread-id"));
  EXPECT_TRUE(hits("src/sim/x.cpp",
                   "std::hash<std::thread::id> h;\n", "D1-thread-id"));
}

TEST(LintRules, ThreadIdSilentOnCleanThreads) {
  EXPECT_FALSE(hits("src/parallel/pool.cpp",
                    "std::vector<std::thread> workers;\n", "D1-thread-id"));
}

// ------------------------------------------------------ D2-unordered ----

TEST(LintRules, UnorderedFiresInSrc) {
  EXPECT_TRUE(hits("src/core/x.cpp",
                   "std::unordered_map<int, int> m;\n", "D2-unordered"));
  EXPECT_TRUE(hits("src/gen/x.cpp", "std::unordered_set<Vertex> s;\n",
                   "D2-unordered"));
  EXPECT_TRUE(hits("src/graph/x.cpp", "std::unordered_multiset<int> s;\n",
                   "D2-unordered"));
}

TEST(LintRules, UnorderedExemptions) {
  // bench/tools are measurement/CLI code — out of scope by design.
  EXPECT_FALSE(hits("bench/sweep.cpp", "std::unordered_map<int, int> m;\n",
                    "D2-unordered"));
  // The #include line is not the hazard; the use sites are.
  EXPECT_FALSE(hits("src/core/x.cpp", "#include <unordered_map>\n",
                    "D2-unordered"));
}

// ------------------------------------------------------- D3-rng-seed ----

TEST(LintRules, RngSeedFiresOnRawConstruction) {
  EXPECT_TRUE(hits("src/core/x.cpp", "Engine gen(12345);\n", "D3-rng-seed"));
  EXPECT_TRUE(hits("src/core/x.cpp",
                   "auto r = rng::Xoshiro256(seed + chunk);\n",
                   "D3-rng-seed"));
  EXPECT_TRUE(
      hits("src/core/x.cpp", "Engine gen{round ^ 7};\n", "D3-rng-seed"));
}

TEST(LintRules, RngSeedSilentWhenDerived) {
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "Engine gen(rng::derive_seed(round_seed, c));\n",
                    "D3-rng-seed"));
  // References, default construction, copies of an existing stream.
  EXPECT_FALSE(hits("src/core/x.cpp", "void f(Engine& gen);\n",
                    "D3-rng-seed"));
  EXPECT_FALSE(hits("src/core/x.cpp", "Engine fork(parent_gen);\n",
                    "D3-rng-seed"));
  // Out of scope: the bench layer seeds its root stream from --seed.
  EXPECT_FALSE(hits("bench/x.cpp", "Engine gen(args_seed);\n",
                    "D3-rng-seed"));
}

// ----------------------------------------------------- D3-thread-key ----

TEST(LintRules, ThreadKeyFires) {
  EXPECT_TRUE(hits("src/core/x.cpp",
                   "auto s = rng::derive_seed(round_seed, worker);\n",
                   "D3-thread-key"));
  EXPECT_TRUE(hits("src/sim/x.cpp",
                   "derive_seed(seed, thread_id);\n", "D3-thread-key"));
}

TEST(LintRules, ThreadKeySilentOnWorkKeys) {
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "auto s = rng::derive_seed(round_seed, chunk);\n",
                    "D3-thread-key"));
  // 'workers' (the pool size) is not 'worker' (the executing lane).
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "auto s = rng::derive_seed(seed, workers);\n",
                    "D3-thread-key"));
}

// ---------------------------------------------------- D4-atomic-order ----

TEST(LintRules, AtomicOrderFires) {
  EXPECT_TRUE(hits("src/core/x.cpp", "flag.store(true);\n",
                   "D4-atomic-order"));
  EXPECT_TRUE(hits("src/obs/x.cpp", "auto v = count.load();\n",
                   "D4-atomic-order"));
  EXPECT_TRUE(hits("src/util/x.cpp", "count->fetch_add(1);\n",
                   "D4-atomic-order"));
  EXPECT_TRUE(hits("src/core/x.cpp", "old = word.exchange(next);\n",
                   "D4-atomic-order"));
}

TEST(LintRules, AtomicOrderSilentWhenExplicit) {
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "flag.store(true, std::memory_order_relaxed);\n",
                    "D4-atomic-order"));
  EXPECT_FALSE(hits("src/core/x.cpp",
                    "word.fetch_or(bit, std::memory_order_relaxed);\n",
                    "D4-atomic-order"));
  EXPECT_FALSE(hits(
      "src/core/x.cpp",
      "auto v = gate.load(\n      std::memory_order_acquire);\n",
      "D4-atomic-order"));
}

TEST(LintRules, AtomicOrderSilentOnNonMembers) {
  // Free functions / other members on word boundaries must not match.
  EXPECT_FALSE(hits("src/core/x.cpp", "load(path);\n", "D4-atomic-order"));
  EXPECT_FALSE(hits("src/core/x.cpp", "reader.preload(x);\n",
                    "D4-atomic-order"));
}

// -------------------------------------------------------- D5-layering ----

TEST(LintRules, LayeringFiresUpward) {
  EXPECT_TRUE(hits("src/core/x.cpp", "#include \"sim/runner.hpp\"\n",
                   "D5-layering"));
  EXPECT_TRUE(hits("src/rng/x.cpp", "#include \"core/types.hpp\"\n",
                   "D5-layering"));
  EXPECT_TRUE(hits("src/sim/x.cpp", "#include \"bench/harness.hpp\"\n",
                   "D5-layering"));
  EXPECT_TRUE(hits("bench/x.cpp", "#include \"tools/x.hpp\"\n",
                   "D5-layering"));
  // gen builds on graph, never the reverse: a graph/ -> gen/ include would
  // bring back the include cycle between the two.
  EXPECT_TRUE(hits("src/graph/x.cpp", "#include \"gen/families.hpp\"\n",
                   "D5-layering"));
}

TEST(LintRules, LayeringAllowsDownAndSideways) {
  EXPECT_FALSE(hits("src/core/x.cpp", "#include \"graph/graph.hpp\"\n",
                    "D5-layering"));
  EXPECT_FALSE(hits("src/sim/x.cpp", "#include \"core/types.hpp\"\n",
                    "D5-layering"));
  EXPECT_FALSE(hits("src/gen/x.cpp", "#include \"graph/builder.hpp\"\n",
                    "D5-layering"));
  EXPECT_FALSE(hits("src/io/x.cpp", "#include \"gen/registry.hpp\"\n",
                    "D5-layering"));
  // System includes and same-directory includes are unconstrained.
  EXPECT_FALSE(hits("src/core/x.cpp", "#include <vector>\n", "D5-layering"));
  EXPECT_FALSE(hits("bench/x.cpp", "#include \"harness.hpp\"\n",
                    "D5-layering"));
}

}  // namespace
