/// \file perfbench.cpp
/// The repo benchmark: the path users of this library take for the paper's
/// cover-time answers — spec string -> gen::build_graph -> sim::Runner to
/// the stop rule -> checked record — timed end to end on two closed-loop
/// workloads, plus a separate traced pass that splits the time by layer.
///
/// Usage (perfbench/run.py builds this binary and calls it):
///   cobra_perfbench --workload <name> --seed <n> --seconds <s>
///                   --trace <0|1> [--seed-set main|holdout]
///                   [--expect <digest>] [--report <path>] [--scratch <dir>]
///   cobra_perfbench --workload <name> --pin <first>-<last>
///
/// One run: time the workload's graph build (setup_s), run one untimed
/// warm-up batch, then repeat the batch until --seconds have been spent. A
/// batch is a closed loop: one caller constructs each process, runs it to
/// its stop rule and records it before the next starts (trials_torus hands
/// its trials to sim::replicate, which is the same loop on every pool
/// worker). Every timed batch must reproduce the warm-up exactly, and the
/// warm-up must match the pinned digest (--expect) or, for seeds without a
/// pin, a serial re-run of the batch's first process.
///
/// --trace 1 alternates untraced and traced batches. The traced ones give
/// per-layer numbers that come only from timing and counting calls into
/// public functions from this file: gen::build_graph, Process::step,
/// Process::active, CoverStop::observe, the FrontierEngine counters,
/// par::parallel_for_chunks, Runner::save_snapshot and read_snapshot_file.
/// Nothing inside src/ is instrumented for it.
///
/// The report is a bench::JsonReporter document: the context holds the
/// build manifest, host and run settings, and one record per metric.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/greedy_mis.hpp"
#include "gen/registry.hpp"
#include "gen/spec.hpp"
#include "io/args.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/splitmix64.hpp"
#include "sim/checkpoint.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "util/checkpoint_io.hpp"

namespace {

using namespace cobra;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds on `clock`: CLOCK_THREAD_CPUTIME_ID for the calling thread,
/// CLOCK_PROCESS_CPUTIME_ID for every thread of the process. Both count
/// only time the threads ran, so neither grows while the host runs
/// something else on the cores this process was given.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------ workloads --

enum class Kind { Mis, Trials };

struct Workload {
  const char* name;
  Kind kind;
  const char* spec;
  std::uint32_t runs;  ///< processes per batch
  /// Why the workload exists and which layer it isolates.
  const char* why;
};

const Workload kWorkloads[] = {
    {"mis_rmat", Kind::Mis, "rmat:n=2^18,deg=16,seed=7", 64,
     "Greedy MIS for 64 seeds on a skewed-degree R-MAT graph: the frontier "
     "shrinks through retain beside winner/closure expand, the one measured "
     "retain path."},
    {"trials_torus", Kind::Trials, "torus:n=2^16,dims=2", 64,
     "64 2-cobra cover trials of a torus from vertex 0 through "
     "sim::replicate: parallelism is trial-level and every engine runs "
     "inline on its pool worker, so round dispatch is bypassed and "
     "parallel/monte_carlo plus the serial engine path, the frontier "
     "materialisation and CoverStop do the work, the pattern every paper "
     "table uses."},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Process seeds of one batch: run i draws from derive_seed(base, i). The
/// holdout set salts the base so a gain tuned on the main seeds can be
/// re-checked on seeds it never saw.
constexpr std::uint64_t kHoldoutSalt = 0x686f6c646f7574ULL;  // "holdout"

std::uint64_t batch_base(std::uint64_t seed, bool holdout) {
  return holdout ? rng::derive_seed(seed, kHoldoutSalt) : seed;
}

/// Engine parallel thresholds: the library default, and one no round
/// reaches, which runs every engine round inline on the caller.
const std::size_t kPooled = core::FrontierOptions{}.parallel_threshold;
constexpr std::size_t kSerial = std::numeric_limits<std::size_t>::max();

// --------------------------------------------------------------- tracing --

/// Per-layer accumulators of the traced pass, filled by the wrappers below
/// around public calls. Totals; the report divides by the batch count.
struct Trace {
  double step_s = 0.0;
  double materialize_s = 0.0;
  double absorb_s = 0.0;
  double runner_s = 0.0;  ///< wall time inside Runner::run
  std::vector<double> round_s;
  std::uint64_t visits = 0;  ///< input-frontier vertices stepped
  std::uint64_t samples = 0;
  std::uint64_t emitted = 0;
  std::uint64_t produced = 0;  ///< output-frontier vertices
  std::uint64_t rng_blocks = 0;
  std::uint64_t dense_rounds = 0;
  std::uint64_t sparse_rounds = 0;
  std::uint64_t parallel_rounds = 0;
  std::uint64_t switches = 0;
  std::uint64_t dense_fallbacks = 0;

  void add_engine(const core::FrontierEngine& e) {
    dense_rounds += e.dense_rounds();
    sparse_rounds += e.sparse_rounds();
    parallel_rounds += e.parallel_rounds();
    switches += e.switches();
    dense_fallbacks += e.dense_fallbacks();
  }

  void merge(const Trace& o) {
    step_s += o.step_s;
    materialize_s += o.materialize_s;
    absorb_s += o.absorb_s;
    runner_s += o.runner_s;
    round_s.insert(round_s.end(), o.round_s.begin(), o.round_s.end());
    visits += o.visits;
    samples += o.samples;
    emitted += o.emitted;
    produced += o.produced;
    rng_blocks += o.rng_blocks;
    dense_rounds += o.dense_rounds;
    sparse_rounds += o.sparse_rounds;
    parallel_rounds += o.parallel_rounds;
    switches += o.switches;
    dense_fallbacks += o.dense_fallbacks;
  }
};

/// sim::Process wrapper that times step() and active() and reads the
/// engine's per-round counters after each step. `reads_per_visit` is the
/// adjacency reads per stepped frontier vertex: k for a k-cobra walk, the
/// mean degree for greedy MIS. For a greedy-MIS step the engine counters
/// describe the step's last engine call, the retain.
template <typename P>
class TimedProcess {
 public:
  TimedProcess(P& p, Trace& t, double reads_per_visit)
      : p_(&p), t_(&t), reads_per_visit_(reads_per_visit) {}

  void step(core::Engine& gen) {
    const std::size_t in = p_->frontier().size();
    const auto t0 = Clock::now();
    p_->step(gen);
    const double s = since(t0);
    t_->step_s += s;
    t_->round_s.push_back(s);
    t_->visits += in;
    t_->samples += static_cast<std::uint64_t>(
        static_cast<double>(in) * reads_per_visit_);
    t_->emitted += p_->engine().last_emitted();
    t_->rng_blocks += p_->engine().last_rng_blocks();
    t_->produced += p_->frontier().size();
  }

  [[nodiscard]] std::span<const core::Vertex> active() const {
    const auto t0 = Clock::now();
    const auto a = p_->active();
    t_->materialize_s += since(t0);
    return a;
  }
  [[nodiscard]] std::uint64_t round() const { return p_->round(); }
  [[nodiscard]] std::uint32_t n() const { return p_->n(); }
  [[nodiscard]] const core::Frontier& frontier() const {
    return p_->frontier();
  }
  [[nodiscard]] const P& process() const { return *p_; }

 private:
  P* p_;
  Trace* t_;
  double reads_per_visit_;
};

/// CoverStop wrapper: materialises the frontier first (timed by
/// TimedProcess::active), then times CoverStop::observe on the already
/// materialised list — the coverage absorb alone.
class TimedCover {
 public:
  TimedCover(sim::CoverStop& cover, Trace& t) : cover_(&cover), t_(&t) {}

  template <typename P>
  void start(const TimedProcess<P>& p) {
    cover_->start(p.process());
  }
  template <typename P>
  void observe(const TimedProcess<P>& p) {
    (void)p.active();
    const auto t0 = Clock::now();
    cover_->observe(p.process());
    t_->absorb_s += since(t0);
  }
  template <typename P>
  [[nodiscard]] bool done(const TimedProcess<P>& p) const {
    return cover_->done(p.process());
  }

 private:
  sim::CoverStop* cover_;
  Trace* t_;
};

// ------------------------------------------------------------------ runs --

/// One process run to its stop rule. `key` identifies the run's seed (the
/// first draw of a copy of its engine) so trial-level results can be put
/// back in seed order.
struct RunOutcome {
  std::uint64_t key = 0;
  std::uint64_t rounds = 0;
  std::uint64_t size = 0;  ///< |MIS| for greedy MIS, 0 otherwise
  bool ok = false;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< CPU time of every thread that ran it
};

template <typename P, typename Stop>
sim::RunResult drive(P& p, core::Engine& gen, Stop& stop, Trace* trace,
                     double reads_per_visit) {
  if (trace == nullptr) return sim::Runner().run(p, gen, stop);
  TimedProcess<P> timed(p, *trace, reads_per_visit);
  const auto t0 = Clock::now();
  sim::RunResult r;
  if constexpr (std::is_same_v<Stop, sim::CoverStop>) {
    TimedCover timed_stop(stop, *trace);
    r = sim::Runner().run(timed, gen, timed_stop);
  } else {
    r = sim::Runner().run(timed, gen, stop);
  }
  trace->runner_s += since(t0);
  trace->add_engine(p.engine());
  return r;
}

RunOutcome cover_run(const graph::Graph& g, core::Engine& gen, Trace* trace,
                     std::size_t threshold) {
  RunOutcome out;
  out.key = core::Engine(gen)();
  // A cover trial runs inline on one thread (sim::replicate's worker, or
  // the caller with the serial threshold), so that thread's CPU clock is
  // all the CPU the trial used; the traced run checks that no round went
  // to the pool.
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const auto t0 = Clock::now();
  core::CobraWalk walk(g, 0, 2);
  walk.engine().options().parallel_threshold = threshold;
  sim::CoverStop cover;
  const sim::RunResult r =
      drive(walk, gen, cover, trace, static_cast<double>(walk.branching()));
  out.seconds = since(t0);
  out.cpu_seconds = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  out.rounds = r.rounds;
  out.ok = r.stopped && cover.complete();
  return out;
}

/// Independence and maximality of the final set, O(n + m).
bool certified(const graph::Graph& g, const core::GreedyMIS& mis) {
  for (core::Vertex v = 0; v < g.num_vertices(); ++v) {
    bool dominated = mis.in_mis(v);
    for (const core::Vertex u : g.neighbors(v)) {
      if (u == v || !mis.in_mis(u)) continue;
      if (mis.in_mis(v)) return false;
      dominated = true;
    }
    if (!dominated) return false;
  }
  return true;
}

RunOutcome mis_run(const graph::Graph& g, core::Engine& gen, Trace* trace,
                   std::size_t threshold, bool certify) {
  RunOutcome out;
  out.key = core::Engine(gen)();
  // One MIS runs at a time and its large rounds go to the pool, so the
  // process CPU clock (caller plus pool workers) is the CPU the run used.
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto t0 = Clock::now();
  core::FrontierOptions opts;
  opts.parallel_threshold = threshold;
  core::GreedyMIS mis(g, opts);
  sim::Extinction done;
  const double mean_degree =
      static_cast<double>(g.num_arcs()) / g.num_vertices();
  const sim::RunResult r = drive(mis, gen, done, trace, mean_degree);
  out.seconds = since(t0);  // the certificate stays outside the clock
  out.cpu_seconds = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  out.rounds = r.rounds;
  out.size = mis.mis().size();
  out.ok = r.stopped && mis.done() && (!certify || certified(g, mis));
  return out;
}

/// One batch: the workload's `runs` processes, results in seed order.
struct Batch {
  std::vector<std::uint64_t> results;  ///< the pinned sequence
  std::vector<double> run_s;
  std::vector<double> run_cpu_s;
  std::uint64_t rounds = 0;
  std::uint32_t failed = 0;
  double solve_s = 0.0;
  double solve_cpu_s = 0.0;  ///< CPU seconds of every thread over solve_s
  double trial_sum_s = 0.0;  ///< trials_torus: summed per-trial seconds
  RunOutcome first;          ///< the run seeded derive_seed(base, 0)
};

/// fnv1a64 over the little-endian bytes of the result sequence.
std::uint64_t digest(const std::vector<std::uint64_t>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v : results) {
    std::uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<std::uint8_t>(v >> (8 * b));
    h = util::fnv1a64(bytes, h);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

RunOutcome single_run(const Workload& w, const graph::Graph& g,
                      std::uint64_t base, std::uint32_t i, Trace* trace,
                      std::size_t threshold, bool certify) {
  core::Engine gen(rng::derive_seed(base, i));
  return w.kind == Kind::Mis ? mis_run(g, gen, trace, threshold, certify)
                             : cover_run(g, gen, trace, threshold);
}

void record(Batch& b, const Workload& w, const RunOutcome& r) {
  b.results.push_back(r.rounds);
  if (w.kind == Kind::Mis) b.results.push_back(r.size);
  b.run_s.push_back(r.seconds);
  b.run_cpu_s.push_back(r.cpu_seconds);
  b.rounds += r.rounds;
  if (!r.ok) ++b.failed;
}

Batch run_batch(const Workload& w, const graph::Graph& g, std::uint64_t base,
                Trace* trace, std::size_t threshold, bool certify) {
  Batch b;
  if (w.kind != Kind::Trials) {
    for (std::uint32_t i = 0; i < w.runs; ++i) {
      const RunOutcome r =
          single_run(w, g, base, i, trace, threshold, certify);
      b.solve_s += r.seconds;
      b.solve_cpu_s += r.cpu_seconds;
      record(b, w, r);
      if (i == 0) b.first = r;
    }
    return b;
  }
  std::mutex mutex;
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(w.runs);
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto t0 = Clock::now();
  (void)sim::replicate(w.runs, base, [&](core::Engine& gen) {
    Trace local;
    const RunOutcome r =
        cover_run(g, gen, trace != nullptr ? &local : nullptr, threshold);
    const std::lock_guard<std::mutex> lock(mutex);
    outcomes.push_back(r);
    if (trace != nullptr) trace->merge(local);
    return static_cast<double>(r.rounds);
  });
  b.solve_s = since(t0);
  b.solve_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RunOutcome& a, const RunOutcome& c) { return a.key < c.key; });
  const std::uint64_t key0 = core::Engine(rng::derive_seed(base, 0))();
  for (const RunOutcome& r : outcomes) {
    record(b, w, r);
    b.trial_sum_s += r.seconds;
    if (r.key == key0) b.first = r;
  }
  return b;
}

// ----------------------------------------------------------- statistics --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return stats::quantile_sorted(v, 0.5);
}

/// The highest percentile with at least ten samples beyond it (the
/// largest sample when there are ten or fewer), and that percentile.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) return {v.back(), 100.0};
  const std::size_t i = v.size() - 11;
  return {v[i], 100.0 * static_cast<double>(i) /
                    static_cast<double>(v.size() - 1)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------- layers --

/// Empty fork/join rounds: parallel_for_chunks over 1024 chunks with an
/// empty body on the global pool; per-round seconds.
std::vector<double> empty_rounds(std::size_t rounds) {
  par::ThreadPool& pool = par::global_pool();
  std::vector<double> out;
  out.reserve(rounds);
  for (std::size_t r = 0; r < rounds + rounds / 10; ++r) {
    const auto t0 = Clock::now();
    par::parallel_for_chunks(pool, 1024, pool.size(),
                             [](std::size_t, std::size_t) {});
    if (r >= rounds / 10) out.push_back(since(t0));  // first tenth warms up
  }
  return out;
}

struct CheckpointTiming {
  double save_s = 0.0;
  double load_s = 0.0;
  double bytes = 0.0;
  bool ok = true;
};

/// One mid-run snapshot round trip of the batch's first cover: run to half
/// its pinned rounds, Runner::save_snapshot, read_snapshot_file, then
/// Runner::resume_from to the end, which must land on the same round.
CheckpointTiming checkpoint_round_trip(const graph::Graph& g,
                                       std::uint64_t base,
                                       std::uint64_t rounds,
                                       const std::string& path) {
  CheckpointTiming t;
  const std::uint64_t mid = std::max<std::uint64_t>(1, rounds / 2);
  {
    core::Engine gen(rng::derive_seed(base, 0));
    core::CobraWalk walk(g, 0, 2);
    sim::CoverStop cover;
    (void)sim::Runner(mid).run(walk, gen, cover);
    const auto t0 = Clock::now();
    sim::Runner::save_snapshot(walk, gen, mid, path, cover);
    t.save_s = since(t0);
  }
  const auto t1 = Clock::now();
  const std::vector<std::uint8_t> payload = sim::read_snapshot_file(path);
  t.load_s = since(t1);
  t.bytes = static_cast<double>(std::filesystem::file_size(path));
  t.ok = !payload.empty();
  core::Engine gen(0);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const sim::RunResult r =
      sim::Runner().resume_from(walk, gen, sim::SnapshotPolicy{path, 0}, cover);
  t.ok = t.ok && r.stopped && r.rounds == rounds;
  std::filesystem::remove(path);
  return t;
}

// --------------------------------------------------------------- passes --

/// Timed batches until `seconds` are spent, each of which must reproduce
/// the warm-up batch `ref` exactly. With a trace, untraced and traced
/// batches alternate, so both see the same host conditions and their ratio
/// is the tracing overhead.
struct Timed {
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  bool consistent = true;
};

Timed run_timed(const Workload& w, const graph::Graph& g, std::uint64_t base,
                double seconds, Trace* trace, const Batch& ref) {
  Timed timed;
  const auto t0 = Clock::now();
  do {
    timed.plain.push_back(run_batch(w, g, base, nullptr, kPooled, false));
    timed.consistent &= timed.plain.back().results == ref.results;
    if (trace != nullptr) {
      timed.traced.push_back(run_batch(w, g, base, trace, kPooled, false));
      timed.consistent &= timed.traced.back().results == ref.results;
    }
  } while (since(t0) < seconds);
  return timed;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run_benchmark(const io::Args& args, const Workload& w) {
  const std::uint64_t seed = args.get_uint("seed", 1);
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_uint("trace", 0) != 0;
  const std::string seed_set = args.get("seed-set", "main");
  if (seed_set != "main" && seed_set != "holdout") {
    throw std::invalid_argument("--seed-set must be main or holdout");
  }
  const std::uint64_t base = batch_base(seed, seed_set == "holdout");
  const std::string expect = args.get("expect", "");
  const std::string scratch = args.get("scratch", ".");

  par::ThreadPool& pool = par::global_pool();

  // Setup: spec parse plus gen::build_graph. One sample times `reps`
  // back-to-back builds, enough to fill a quarter second, so a millisecond
  // build is averaged over the host's stalls instead of landing in one;
  // the median of at least three samples and two seconds is setup_s. The
  // last graph is the one measured.
  constexpr std::size_t kMinSetupSamples = 3;
  constexpr double kMinSampleSeconds = 0.25;
  constexpr double kMinSetupSeconds = 2.0;
  std::vector<double> setup_s;
  std::optional<graph::Graph> built;
  const auto build = [&] {
    built.reset();
    built.emplace(gen::build_graph(gen::GraphSpec::parse(w.spec)));
  };
  auto t0 = Clock::now();
  build();
  const double first = since(t0);
  const std::size_t reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(kMinSampleSeconds / first));
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetupSamples ||
         since(setup_start) < kMinSetupSeconds) {
    t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) build();
    setup_s.push_back(since(t0) / static_cast<double>(reps));
  }
  const graph::Graph& g = *built;

  // A warm-up batch, untimed, brings the allocator and caches to the
  // steady state a closed loop runs in. It is the reference every timed
  // batch must reproduce, and it alone carries the MIS certificate, which
  // is O(n + m) per run.
  const Batch ref = run_batch(w, g, base, nullptr, kPooled, true);
  Trace trace;
  const Timed timed = run_timed(w, g, base, seconds, traced ? &trace : nullptr, ref);
  const std::vector<Batch>& plain = timed.plain;
  std::vector<std::string> problems;
  if (!timed.consistent) problems.push_back("batches disagree");

  std::uint64_t attempted = w.runs;
  std::uint64_t failed = ref.failed;
  std::vector<double> solve, solve_cpu, run_s, run_cpu_s;
  for (const Batch& b : plain) {
    attempted += w.runs;
    failed += b.failed;
    solve.push_back(b.solve_s);
    solve_cpu.push_back(b.solve_cpu_s);
    run_s.insert(run_s.end(), b.run_s.begin(), b.run_s.end());
    run_cpu_s.insert(run_cpu_s.end(), b.run_cpu_s.begin(), b.run_cpu_s.end());
  }
  if (failed != 0) problems.push_back(std::to_string(failed) + " runs failed");

  // The oracle: the pinned digest, or for an unpinned seed a serial re-run
  // of the batch's first process (identical by the determinism contract).
  const std::string got = hex(digest(ref.results));
  std::string oracle = "pinned";
  if (!expect.empty()) {
    if (got != expect) problems.push_back("digest " + got + " != pinned " + expect);
  } else {
    oracle = "serial-rerun";
    const RunOutcome again = single_run(w, g, base, 0, nullptr, kSerial, false);
    if (again.rounds != ref.first.rounds || again.size != ref.first.size) {
      problems.push_back("serial re-run of run 0 disagrees");
    }
  }

  // The tail is taken per batch, over its runs of distinct seeds, and the
  // median over batches is reported: one batch that met a host stall then
  // moves the figure no more than it moves the batch times.
  const auto batch_tail = [&](std::vector<double> Batch::*times) {
    std::vector<double> tails;
    for (const Batch& b : plain) tails.push_back(tail(b.*times).first);
    return median(tails);
  };
  // Batches and runs are bounded in CPU seconds, and their wall seconds
  // are only reported: on a shared host, wall time also counts the time
  // the hypervisor gave this process's cores to other tenants.
  std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"solve_cpu_s", median(solve_cpu), "s"},
      {"run_cpu_p50_s", median(run_cpu_s), "s"},
      {"run_cpu_tail_s", batch_tail(&Batch::run_cpu_s), "s"},
      {"rounds_per_cpu_s", static_cast<double>(ref.rounds) / median(solve_cpu),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::vector<Metric> layers;
  if (traced) {
    const double nb = static_cast<double>(timed.traced.size());
    std::vector<double> traced_solve;
    for (const Batch& b : timed.traced) traced_solve.push_back(b.solve_s);

    // Determinism cross-check: the whole batch again with every engine
    // round forced inline; it must reproduce the pinned results exactly.
    Trace serial_trace;
    const Batch serial = run_batch(w, g, base, &serial_trace, kSerial, false);
    if (serial.results != ref.results) {
      problems.push_back("serial re-run disagrees");
    }
    if (serial_trace.parallel_rounds != 0) {
      problems.push_back("serial re-run used the pool");
    }
    if (w.kind == Kind::Trials && trace.parallel_rounds != 0) {
      problems.push_back("trials_torus dispatched engine rounds to the pool");
    }

    const std::vector<double> empty = empty_rounds(2000);
    CheckpointTiming cp;
    if (w.kind != Kind::Mis) {
      cp = checkpoint_round_trip(g, base, ref.first.rounds,
                                 scratch + "/perfbench_snapshot.cbck");
      if (!cp.ok) problems.push_back("checkpoint round trip disagrees");
    }

    const double samples = static_cast<double>(trace.samples);
    const double steps = static_cast<double>(trace.round_s.size());
    double mc_busy = 0.0;
    double mc_trial_p50 = 0.0;
    if (w.kind == Kind::Trials) {
      double busy = 0.0;
      double wall = 0.0;
      for (const Batch& b : plain) {
        busy += b.trial_sum_s;
        wall += b.solve_s;
      }
      mc_busy = busy / (wall * static_cast<double>(pool.size()));
      mc_trial_p50 = median(run_s);
    }
    const double arcs = static_cast<double>(g.num_arcs());
    layers = {
        {"gen.arcs", arcs, "count"},
        {"gen.arcs_per_s", arcs / median(setup_s), "1/s"},
        {"engine.step_s", trace.step_s / nb, "s"},
        {"engine.round_ms_p50", 1e3 * median(trace.round_s), "ms"},
        {"engine.round_ms_tail", 1e3 * tail(trace.round_s).first, "ms"},
        {"engine.samples", samples / nb, "count"},
        {"engine.ns_per_sample", 1e9 * trace.step_s / samples, "ns"},
        {"engine.bytes_computed",
         (8.0 * static_cast<double>(trace.visits) + 4.0 * samples) / nb, "B"},
        {"engine.emitted", static_cast<double>(trace.emitted) / nb, "count"},
        {"engine.dedup_yield",
         static_cast<double>(trace.produced) /
             static_cast<double>(std::max<std::uint64_t>(trace.emitted, 1)),
         "ratio"},
        {"engine.rng_blocks", static_cast<double>(trace.rng_blocks) / nb, "count"},
        {"engine.dense_rounds", static_cast<double>(trace.dense_rounds) / nb, "count"},
        {"engine.sparse_rounds", static_cast<double>(trace.sparse_rounds) / nb, "count"},
        {"engine.parallel_rounds", static_cast<double>(trace.parallel_rounds) / nb, "count"},
        {"engine.switches", static_cast<double>(trace.switches) / nb, "count"},
        {"engine.dense_fallbacks", static_cast<double>(trace.dense_fallbacks) / nb, "count"},
        {"frontier.materialize_s", trace.materialize_s / nb, "s"},
        {"frontier.mean_size", static_cast<double>(trace.produced) / steps, "count"},
        {"parallel.empty_round_us_p50", 1e6 * median(empty), "us"},
        {"parallel.empty_round_us_tail", 1e6 * tail(empty).first, "us"},
        {"parallel.speedup_vs_serial", serial.solve_s / median(solve), "ratio"},
        {"mc.busy_share", mc_busy, "ratio"},
        {"mc.trial_s_p50", mc_trial_p50, "s"},
        {"stop.absorb_s", trace.absorb_s / nb, "s"},
        {"runner.self_s",
         (trace.runner_s - trace.step_s - trace.materialize_s - trace.absorb_s) / nb,
         "s"},
        {"checkpoint.save_s", cp.save_s, "s"},
        {"checkpoint.load_s", cp.load_s, "s"},
        {"checkpoint.bytes", cp.bytes, "B"},
        {"trace.overhead_share", median(traced_solve) / median(solve) - 1.0,
         "ratio"},
    };
  }

  bench::JsonReporter report("perfbench");
  report.context("workload", w.name);
  report.context("why", w.why);
  report.context("spec", w.spec);
  report.context("seed", static_cast<double>(seed));
  report.context("seed_set", seed_set);
  report.context("seconds", seconds);
  report.context("trace", traced ? 1.0 : 0.0);
  report.context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.context("pool_threads", static_cast<double>(pool.size()));
  report.context("n", static_cast<double>(g.num_vertices()));
  report.context("runs_per_batch", static_cast<double>(w.runs));
  report.context("batches", static_cast<double>(plain.size()));
  std::string batch_solve;
  for (const double b : solve) {
    batch_solve += (batch_solve.empty() ? "" : ",") + std::to_string(b);
  }
  report.context("batch_solve_s", batch_solve);
  report.context("solve_s", median(solve));
  report.context("rounds_per_s", static_cast<double>(ref.rounds) / median(solve));
  report.context("run_samples", static_cast<double>(run_s.size()));
  report.context("run_wall_p50_s", median(run_s));
  report.context("run_wall_tail_s", batch_tail(&Batch::run_s));
  report.context("run_tail_percentile", tail(ref.run_s).second);
  report.context("setup_samples", static_cast<double>(setup_s.size()));
  report.context("setup_builds_per_sample", static_cast<double>(reps));
  report.context("fail_ratio",
                 static_cast<double>(failed) / static_cast<double>(attempted));
  report.context("digest", got);
  report.context("oracle", oracle);
  report.context("attempted", static_cast<double>(attempted));
  report.context("failed", static_cast<double>(failed));
  report.context("correct", problems.empty() ? "true" : "false");
  for (const Metric& m : end_to_end) {
    report.record(m.name).field("value", m.value).field("unit", m.unit)
        .field("layer", "end_to_end");
  }
  for (const Metric& m : layers) {
    report.record(m.name).field("value", m.value).field("unit", m.unit)
        .field("layer", "per_layer");
  }
  for (const std::string& p : problems) {
    std::cerr << "[perfbench] " << w.name << " seed " << seed
              << ": INCORRECT: " << p << "\n";
  }
  const std::string out = args.get("report", "");
  if (out.empty()) {
    std::cout << report.render();
    return 0;
  }
  return report.write(out) ? 0 : 1;
}

/// Print one `<seed> <digest>` line per main-set seed in [first, last]
/// after checking each batch against a serial re-run of the whole batch.
int pin(const io::Args& args, const Workload& w) {
  const std::string range = args.get("pin", "");
  const auto dash = range.find('-');
  if (dash == std::string::npos) throw std::invalid_argument("--pin <first>-<last>");
  const std::uint64_t first = std::stoull(range.substr(0, dash));
  const std::uint64_t last = std::stoull(range.substr(dash + 1));
  const graph::Graph g = gen::build_graph(w.spec);
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const std::uint64_t base = batch_base(seed, false);
    const Batch pooled = run_batch(w, g, base, nullptr, kPooled, true);
    const Batch serial = run_batch(w, g, base, nullptr, kSerial, false);
    if (pooled.failed != 0 || pooled.results != serial.results) {
      std::cerr << "[perfbench] " << w.name << " seed " << seed
                << ": pooled and serial batches disagree; not pinned\n";
      return 1;
    }
    std::cout << seed << " " << hex(digest(pooled.results)) << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const io::Args args(argc, argv,
                        {"workload", "seed", "seconds", "trace", "seed-set",
                         "expect", "report", "scratch", "pin"});
    const Workload* w = find_workload(args.get("workload", ""));
    if (w == nullptr) {
      std::cerr << "unknown --workload; one of:";
      for (const Workload& k : kWorkloads) std::cerr << " " << k.name;
      std::cerr << "\n";
      return 2;
    }
    par::request_global_pool_threads(0);  // nproc workers
    return args.has("pin") ? pin(args, *w) : run_benchmark(args, *w);
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 1;
  }
}
