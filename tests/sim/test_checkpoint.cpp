// Tests for checkpoint/resume: snapshot file integrity (truncation fuzz,
// checksum, magic/version), process state round trips (CobraWalk,
// GeneralizedCobraWalk incl. extinct, Gossip incl. mode cross-check),
// Runner periodic snapshotting, and the headline guarantee — a killed and
// resumed run reproduces the uninterrupted trajectory bit-identically at
// 1/2/8 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/generalized_cobra.hpp"
#include "core/gossip.hpp"
#include "gen/registry.hpp"
#include "obs/manifest.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/checkpoint.hpp"
#include "sim/observers.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "util/checkpoint_io.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  return {text.begin(), text.end()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct CheckpointTest : ::testing::Test {
  void SetUp() override { util::fault::disarm_all(); }
  void TearDown() override { util::fault::disarm_all(); }
};

// ------------------------------------------------------ file integrity --

TEST_F(CheckpointTest, SnapshotFileRoundTrips) {
  const std::string path = temp_path("roundtrip.snap");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  sim::write_snapshot_file(path, payload);
  EXPECT_TRUE(sim::snapshot_valid(path));
  EXPECT_EQ(sim::read_snapshot_file(path), payload);
}

TEST_F(CheckpointTest, MissingFileIsInvalidAndThrowsOnRead) {
  const std::string path = temp_path("never_written.snap");
  EXPECT_FALSE(sim::snapshot_valid(path));
  EXPECT_THROW((void)sim::read_snapshot_file(path), util::CheckpointError);
}

TEST_F(CheckpointTest, EveryTruncatedFilePrefixIsRejected) {
  const std::string path = temp_path("fuzz.snap");
  sim::write_snapshot_file(path, {10, 20, 30, 40, 50, 60, 70, 80});
  const std::vector<std::uint8_t> full = slurp(path);
  ASSERT_GT(full.size(), 24u);  // header + payload
  const std::string cut = temp_path("fuzz_cut.snap");
  for (std::size_t len = 0; len < full.size(); ++len) {
    dump(cut, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_FALSE(sim::snapshot_valid(cut)) << "prefix length " << len;
    EXPECT_THROW((void)sim::read_snapshot_file(cut), util::CheckpointError)
        << "prefix length " << len;
  }
  dump(cut, full);  // the unmutilated file still reads
  EXPECT_TRUE(sim::snapshot_valid(cut));
}

TEST_F(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const std::string path = temp_path("corrupt.snap");
  sim::write_snapshot_file(path, {1, 1, 2, 3, 5, 8, 13, 21});
  const std::vector<std::uint8_t> full = slurp(path);
  const std::string bad = temp_path("corrupt_bad.snap");
  // Covers the magic, version, declared size, checksum, and payload bytes.
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<std::uint8_t> mutated = full;
    mutated[i] ^= 0x01;
    dump(bad, mutated);
    EXPECT_FALSE(sim::snapshot_valid(bad)) << "flipped byte " << i;
  }
}

// ----------------------------------------------- process state round trips --

TEST_F(CheckpointTest, CobraWalkStateRoundTripsAndContinuesIdentically) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=11");
  core::Engine gen(77);
  core::CobraWalk src(g, 0, 2);
  for (int i = 0; i < 12; ++i) src.step(gen);

  util::CheckpointWriter w;
  src.save_state(w);
  core::CobraWalk dst(g, 0, 2);
  util::CheckpointReader r(w.buffer());
  dst.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(dst.round(), src.round());
  ASSERT_EQ(std::vector<core::Vertex>(dst.active().begin(), dst.active().end()),
            std::vector<core::Vertex>(src.active().begin(), src.active().end()));

  // Same randomness from here on => identical futures.
  core::Engine ga = gen, gb = gen;
  for (int i = 0; i < 8; ++i) {
    src.step(ga);
    dst.step(gb);
    ASSERT_EQ(
        std::vector<core::Vertex>(dst.active().begin(), dst.active().end()),
        std::vector<core::Vertex>(src.active().begin(), src.active().end()))
        << "diverged at continuation step " << i;
  }
}

TEST_F(CheckpointTest, CobraWalkRestoreRejectsCorruptFrontiers) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  core::CobraWalk walk(g, 0, 2);
  const auto payload_with = [](std::vector<std::uint32_t> verts) {
    util::CheckpointWriter w;
    w.u64(3);  // round
    w.u64(9);  // samples
    w.u32_span(verts);
    return w.buffer();
  };
  for (const auto& verts : std::vector<std::vector<std::uint32_t>>{
           {5, 2},      // not ascending
           {2, 2, 5},   // duplicate
           {1, 90},     // out of range for n=64
           {},          // a cobra walk cannot be empty
       }) {
    const auto payload = payload_with(verts);
    util::CheckpointReader r(payload);
    EXPECT_THROW(walk.restore_state(r), util::CheckpointError);
  }
}

TEST_F(CheckpointTest, GeneralizedCobraExtinctStateRoundTrips) {
  const graph::Graph g = gen::build_graph("ring:n=32");
  core::GeneralizedCobraWalk src(
      g, 0, [](core::Vertex, std::uint64_t, core::Engine&) { return 0u; });
  core::Engine gen(4);
  src.step(gen);  // always-zero branching: extinct in one round
  ASSERT_TRUE(src.extinct());

  util::CheckpointWriter w;
  src.save_state(w);
  core::GeneralizedCobraWalk dst(
      g, 0, [](core::Vertex, std::uint64_t, core::Engine&) { return 0u; });
  util::CheckpointReader r(w.buffer());
  dst.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(dst.extinct());
  EXPECT_EQ(dst.round(), src.round());
  EXPECT_TRUE(dst.active().empty());
}

TEST_F(CheckpointTest, GossipStateRoundTripsAndChecksMode) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=3");
  core::Engine gen(9);
  core::Gossip src(g, 5, core::GossipMode::PushPull);
  for (int i = 0; i < 4; ++i) src.step(gen);

  util::CheckpointWriter w;
  src.save_state(w);
  core::Gossip dst(g, 5, core::GossipMode::PushPull);
  util::CheckpointReader r(w.buffer());
  dst.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(dst.round(), src.round());
  EXPECT_EQ(dst.informed_count(), src.informed_count());
  // The rebuilt uninformed complement is exact, not just counted.
  EXPECT_EQ(dst.uninformed().size(), g.num_vertices() - dst.informed_count());
  for (const core::Vertex v : dst.uninformed()) {
    EXPECT_FALSE(dst.is_informed(v));
  }
  // Identical futures from the same engine state.
  core::Engine ga = gen, gb = gen;
  for (int i = 0; i < 6; ++i) {
    src.step(ga);
    dst.step(gb);
    ASSERT_EQ(dst.informed_count(), src.informed_count());
  }

  // Resuming a PushPull snapshot into a Push process would silently change
  // the trajectory — the mode tag catches it.
  core::Gossip wrong_mode(g, 5, core::GossipMode::Push);
  util::CheckpointReader r2(w.buffer());
  EXPECT_THROW(wrong_mode.restore_state(r2), util::CheckpointError);
}

// ------------------------------------------------------- runner glue --

TEST_F(CheckpointTest, SnapshottingRunMatchesPlainRun) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=21");
  core::Engine gen_plain(55), gen_snap(55);
  core::CobraWalk plain(g, 0, 2), snap(g, 0, 2);
  sim::CoverStop cover_plain, cover_snap;
  const auto a = sim::Runner(1u << 18).run(plain, gen_plain, cover_plain);
  const sim::SnapshotPolicy policy{temp_path("periodic.snap"), 8};
  const auto b =
      sim::Runner(1u << 18).run_snapshotting(snap, gen_snap, policy, cover_snap);
  ASSERT_TRUE(a.stopped);
  ASSERT_TRUE(b.stopped);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(cover_plain.covered_count(), cover_snap.covered_count());
  EXPECT_EQ(gen_plain(), gen_snap());  // snapshotting consumed no randomness
}

TEST_F(CheckpointTest, KilledRunResumesBitIdenticallyAcrossThreadCounts) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  constexpr std::size_t kChunk = 64;
  const std::string snap = temp_path("resume.snap");

  struct Trace {
    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> visits;
  };
  // Reference: the uninterrupted serial run.
  const Trace reference = [&] {
    core::CobraWalk walk(g, 0, 2);
    walk.engine().options() = {kChunk, static_cast<std::size_t>(-1), nullptr};
    core::Engine gen(1234);
    sim::CoverStop cover;
    sim::FirstVisitTimes visits;
    const auto r = sim::Runner(1u << 18).run(walk, gen, cover, visits);
    EXPECT_TRUE(r.stopped);
    return Trace{r.rounds, visits.times()};
  }();
  const std::uint64_t kill_at = reference.rounds / 2;
  ASSERT_GT(kill_at, 0u);

  par::ThreadPool pool1(1), pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    // Phase 1: run to the kill point with per-round snapshots, then "die"
    // (the budget models the kill — the process object is thrown away).
    {
      core::CobraWalk walk(g, 0, 2);
      walk.engine().options() = {kChunk, 1, pool};
      core::Engine gen(1234);
      sim::CoverStop cover;
      sim::FirstVisitTimes visits;
      const auto r = sim::Runner(kill_at).run_snapshotting(
          walk, gen, sim::SnapshotPolicy{snap, 1}, cover, visits);
      ASSERT_FALSE(r.stopped);
      ASSERT_EQ(r.rounds, kill_at);
    }
    ASSERT_TRUE(sim::snapshot_valid(snap));

    // Phase 2: fresh process, engine (wrong seed on purpose — the snapshot
    // must overwrite it), and hooks; resume and run to cover.
    core::CobraWalk walk(g, 0, 2);
    walk.engine().options() = {kChunk, 1, pool};
    core::Engine gen(999);
    sim::CoverStop cover;
    sim::FirstVisitTimes visits;
    const auto r = sim::Runner(1u << 18).resume_from(
        walk, gen, sim::SnapshotPolicy{snap, 0}, cover, visits);
    EXPECT_TRUE(r.stopped);
    EXPECT_TRUE(cover.complete());
    // The acceptance bar: exact cover round and exact visit order.
    EXPECT_EQ(r.rounds, reference.rounds);
    EXPECT_EQ(visits.times(), reference.visits);
  }
}

TEST_F(CheckpointTest, BudgetCoversTheWholeRunNotJustTheResumedHalf) {
  const graph::Graph g = gen::build_graph("ring:n=256");
  const std::string snap = temp_path("budget.snap");
  core::Engine gen(3);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto first = sim::Runner(10).run_snapshotting(
      walk, gen, sim::SnapshotPolicy{snap, 5}, cover);
  ASSERT_FALSE(first.stopped);
  ASSERT_EQ(first.rounds, 10u);
  // Resuming under the SAME budget grants zero additional rounds.
  core::CobraWalk walk2(g, 0, 2);
  core::Engine gen2(3);
  sim::CoverStop cover2;
  const auto second = sim::Runner(10).resume_from(
      walk2, gen2, sim::SnapshotPolicy{snap, 0}, cover2);
  EXPECT_FALSE(second.stopped);
  EXPECT_EQ(second.rounds, 10u);
  EXPECT_EQ(walk2.round(), 10u);  // restored, not re-stepped
}

// A hook with start() but no checkpoint state: resume must re-start it,
// inside AnyOf exactly as at top level.
struct StartProbe {
  std::optional<std::uint64_t> anchor;  ///< process round at last start()
  template <sim::Process P>
  void start(const P& p) {
    anchor = p.round();
  }
  template <sim::Process P>
  [[nodiscard]] bool done(const P&) const {
    return false;
  }
};

TEST_F(CheckpointTest, AnyOfMembersAreRestartedOnResume) {
  const graph::Graph g = gen::build_graph("ring:n=256");
  const std::string any_snap = temp_path("any_of.snap");
  const std::string top_snap = temp_path("top_level.snap");
  {
    core::Engine gen(8);
    core::CobraWalk walk(g, 0, 2);
    sim::CoverStop cover;
    StartProbe probe;
    const auto r = sim::Runner(6).run_snapshotting(
        walk, gen, sim::SnapshotPolicy{any_snap, 3}, sim::any_of(cover, probe));
    ASSERT_FALSE(r.stopped);
    EXPECT_EQ(probe.anchor, 0u);
  }
  {
    core::Engine gen(8);
    core::CobraWalk walk(g, 0, 2);
    sim::CoverStop cover;
    StartProbe probe;
    const auto r = sim::Runner(6).run_snapshotting(
        walk, gen, sim::SnapshotPolicy{top_snap, 3}, cover, probe);
    ASSERT_FALSE(r.stopped);
  }

  core::Engine gen(8);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  StartProbe probe;
  const auto r = sim::Runner(1u << 18).resume_from(
      walk, gen, sim::SnapshotPolicy{any_snap, 0}, sim::any_of(cover, probe));
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(probe.anchor, 6u);  // re-started at the restored round

  core::Engine top_gen(8);
  core::CobraWalk top_walk(g, 0, 2);
  sim::CoverStop top_cover;
  StartProbe top_probe;
  const auto top = sim::Runner(1u << 18).resume_from(
      top_walk, top_gen, sim::SnapshotPolicy{top_snap, 0}, top_cover,
      top_probe);
  EXPECT_TRUE(top.stopped);
  EXPECT_EQ(top_probe.anchor, probe.anchor);
  EXPECT_EQ(top.rounds, r.rounds);
}

TEST_F(CheckpointTest, ObserverPackMismatchIsDetectedOnResume) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  const std::string snap = temp_path("mismatch.snap");
  core::Engine gen(2);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  sim::GrowthCurve curve;
  cover.start(walk);
  curve.start(walk);
  sim::Runner::save_snapshot(walk, gen, 0, snap, cover, curve);
  // Resume WITHOUT the curve: its bytes are left over — refused, because
  // silently misaligned stop/observer state is worse than a dead snapshot.
  core::CobraWalk walk2(g, 0, 2);
  core::Engine gen2(2);
  sim::CoverStop cover2;
  EXPECT_THROW((void)sim::Runner(100).resume_from(
                   walk2, gen2, sim::SnapshotPolicy{snap, 0}, cover2),
               util::CheckpointError);
}

TEST_F(CheckpointTest, CoverStateFromAnotherGraphIsRejectedOnResume) {
  // A 2^8-torus snapshot resumed into a walk on the 2^12 torus: the
  // walk's frontier is valid there (ids < 256), but the coverage set is
  // sized for 256 vertices and must not be trusted for 4096.
  const graph::Graph small = gen::build_graph("torus:n=2^8");
  const std::string snap = temp_path("other_graph.snap");
  core::Engine gen(4);
  core::CobraWalk walk(small, 0, 2);
  sim::CoverStop cover;
  const auto first = sim::Runner(6).run_snapshotting(
      walk, gen, sim::SnapshotPolicy{snap, 3}, cover);
  ASSERT_FALSE(first.stopped);

  const graph::Graph big = gen::build_graph("torus:n=2^12");
  core::CobraWalk walk2(big, 0, 2);
  core::Engine gen2(4);
  sim::CoverStop cover2;
  EXPECT_THROW((void)sim::Runner(1u << 18).resume_from(
                   walk2, gen2, sim::SnapshotPolicy{snap, 0}, cover2),
               util::CheckpointError);
}

TEST_F(CheckpointTest, FirstVisitTimesFromAnotherGraphIsRejectedOnResume) {
  // The same 2^8-torus-into-2^12-torus resume, with the visit table as the
  // only stateful hook: sized for 256 vertices, it would be indexed up to
  // 4095 by the next observe.
  const auto never = sim::until([](const core::CobraWalk&) { return false; });
  const graph::Graph small = gen::build_graph("torus:n=2^8");
  const std::string snap = temp_path("other_graph_visits.snap");
  core::Engine gen(4);
  core::CobraWalk walk(small, 0, 2);
  auto stop = never;
  sim::FirstVisitTimes visits;
  const auto first = sim::Runner(6).run_snapshotting(
      walk, gen, sim::SnapshotPolicy{snap, 3}, stop, visits);
  ASSERT_FALSE(first.stopped);

  const graph::Graph big = gen::build_graph("torus:n=2^12");
  core::CobraWalk walk2(big, 0, 2);
  core::Engine gen2(4);
  auto stop2 = never;
  sim::FirstVisitTimes visits2;
  EXPECT_THROW((void)sim::Runner(64).resume_from(
                   walk2, gen2, sim::SnapshotPolicy{snap, 0}, stop2, visits2),
               util::CheckpointError);
}

TEST_F(CheckpointTest, FirstVisitTimesRejectsVisitsAfterTheSavedRound) {
  const graph::Graph g = gen::build_graph("ring:n=4");
  core::CobraWalk walk(g, 0, 2);
  constexpr std::uint64_t kNever = sim::FirstVisitTimes::kNever;
  const auto restore = [&](std::vector<std::uint64_t> first) {
    util::CheckpointWriter w;
    w.u64(5);  // rounds
    w.u64_span(first);
    util::CheckpointReader r(w.buffer());
    sim::FirstVisitTimes visits;
    visits.restore_state(r, walk);
    return visits.last_first_visit();
  };
  EXPECT_EQ(restore({0, 5, kNever, 2}), 5u);
  EXPECT_THROW((void)restore({0, 6, kNever, 2}), util::CheckpointError);
  EXPECT_THROW((void)restore({0, 5, kNever}), util::CheckpointError);
}

TEST_F(CheckpointTest, CoverStateRejectsFlagBytesOtherThanZeroOrOne) {
  const graph::Graph g = gen::build_graph("ring:n=8");
  core::CobraWalk walk(g, 0, 2);
  const auto restore = [&](std::vector<std::uint8_t> flags) {
    util::CheckpointWriter w;
    w.u8(1);
    w.bytes(flags);
    util::CheckpointReader r(w.buffer());
    sim::CoverStop cover;
    cover.restore_state(r, walk);
    return cover.covered_count();
  };
  EXPECT_EQ(restore({1, 0, 0, 1, 1, 0, 0, 0}), 3u);
  EXPECT_THROW((void)restore({1, 0, 0, 2, 1, 0, 0, 0}), util::CheckpointError);
  EXPECT_THROW((void)restore({1, 0, 0, 1, 1, 0, 0}), util::CheckpointError);
}

// ------------------------------------------------------ fault injection --

TEST_F(CheckpointTest, PeriodicSnapshotFaultWarnsAndRunContinues) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=5");
  const std::string snap = temp_path("never_lands.snap");
  util::fault::arm("checkpoint.write");
  core::Engine gen_faulty(66), gen_plain(66);
  core::CobraWalk faulty(g, 0, 2), plain(g, 0, 2);
  sim::CoverStop cover_faulty, cover_plain;
  const auto a = sim::Runner(1u << 18).run_snapshotting(
      faulty, gen_faulty, sim::SnapshotPolicy{snap, 4}, cover_faulty);
  const auto b = sim::Runner(1u << 18).run(plain, gen_plain, cover_plain);
  // Graceful degradation: every snapshot failed, the computation did not.
  EXPECT_TRUE(a.stopped);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_GT(util::fault::hits("checkpoint.write"), 0u);
  EXPECT_FALSE(sim::snapshot_valid(snap));
}

TEST_F(CheckpointTest, TornWriteLandsOnDiskButIsRejectedOnRead) {
  // checkpoint.torn_write (HARD): the payload truncates mid-write while
  // the header still claims the full size, and the atomic rename lands
  // the torso on the target path. The write itself reports success (the
  // torn write models a lying disk, not a detected error) — the READ
  // side must reject the file via the size/checksum checks.
  const std::string snap = temp_path("torn.snap");
  util::fault::arm("checkpoint.torn_write");
  sim::write_snapshot_file(snap, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0});
  util::fault::disarm_all();
  EXPECT_TRUE(std::ifstream(snap).good()) << "torn write never landed";
  EXPECT_FALSE(sim::snapshot_valid(snap));
  EXPECT_THROW((void)sim::read_snapshot_file(snap), util::CheckpointError);
}

TEST_F(CheckpointTest, SnapshotHeaderCarriesTheBuildManifest) {
  // v2 headers stamp the writing build's manifest so resume can warn on a
  // cross-build restore instead of silently mixing binaries.
  const std::string snap = temp_path("stamped.snap");
  sim::write_snapshot_file(snap, {42});
  sim::SnapshotInfo info;
  EXPECT_EQ(sim::read_snapshot_file(snap, &info),
            std::vector<std::uint8_t>{42});
  const obs::Manifest m = obs::current_manifest();
  EXPECT_EQ(info.version, sim::kSnapshotVersion);
  EXPECT_EQ(info.git_sha, m.git_sha);
  EXPECT_EQ(info.build_type, m.build_type);
}

TEST_F(CheckpointTest, ResumeFromFaultyReadFailsLoudly) {
  const std::string snap = temp_path("read_fault.snap");
  sim::write_snapshot_file(snap, {1, 2, 3});
  util::fault::arm("checkpoint.read");
  EXPECT_THROW((void)sim::read_snapshot_file(snap), util::CheckpointError);
  EXPECT_FALSE(sim::snapshot_valid(snap));
  util::fault::disarm_all();
  EXPECT_EQ(sim::read_snapshot_file(snap).size(), 3u);  // file was never harmed
}

}  // namespace
