#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/audit.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/batch.hpp"
#include "rng/splitmix64.hpp"
#include "util/fault.hpp"

/// \file frontier_engine.hpp
/// The shared frontier-expansion engine: executes one branching/coalescing
/// round of any frontier process (cobra walk, coalescing walks, gossip
/// push/pull, ...) with the per-vertex sampling work spread across the
/// thread pool. This is the library's hottest path — on expanders the
/// frontier grows to Θ(n) vertices in O(log n) rounds, so per-round work,
/// not per-trial work, is the unit of parallelism that matters (the same
/// altitude at which Ghaffari & Uitto's sparsified MPC rounds and parallel
/// greedy MIS operate).
///
/// Representations (the Beamer-style sparse/dense switch): a frontier is
/// either a SPARSE sorted vertex list or a DENSE bitmap over [0, n). The
/// engine picks per round from the frontier size — dense once
/// |frontier| * dense_alpha > n, back to sparse below half that entry
/// threshold (hysteresis, so a frontier hovering at the boundary does not
/// flap) — and the choice affects SPEED only, never results:
///
///   * sparse rounds dedup offspring against a per-vertex 32-bit epoch
///     stamp (one plain store serially, one compare_exchange in parallel)
///     and sort the claimed list;
///   * dense rounds dedup by setting bits with fetch_or on 64-bit bitmap
///     words — the output is a set materialized in ascending vertex order
///     by construction, so no sort, no ownership resolution, and ~1/32 of
///     the stamp path's dedup memory traffic.
///
/// Determinism contract (mirrors monte_carlo.hpp): a round's randomness is
/// a pure function of its `round_seed`. The VERTEX-ID SPACE [0, n) is split
/// into fixed ranges of `chunk_size` ids (rounded up to a multiple of 64 so
/// ranges align with bitmap words); the active vertices of range c are
/// visited in ascending id order drawing from an engine seeded
/// rng::derive_seed(round_seed, c). Because both representations walk the
/// same ranges in the same order, and both dedups produce the same set
/// materialized ascending, the produced frontier is bit-identical across
/// 1, 2, ... N threads, identical to the serial in-line path, AND identical
/// across the sparse and dense paths. (This is simpler than the previous
/// frontier-position chunking: ordering is canonical — ascending — rather
/// than "whatever the serial visit order was", so the parallel merge needs
/// no min-chunk CAS ownership protocol.) The one requirement this puts on
/// callers: a frontier passed as a raw span must be sorted ascending and
/// duplicate-free — which `expand` and `dedupe` outputs always are.
///
/// Epoch-wrap audit (the stamp idiom's one failure mode): advancing the
/// 32-bit epoch past 2^32 would alias stamps from 2^32 sparse rounds ago,
/// so the advance wipes the array on wrap (`advance_epoch`). Dense rounds
/// do not touch the stamps at all — their bitmap is cleared at round start
/// — so representation switches compose with the epoch scheme with no
/// extra invalidation. `expand` returns before touching any state when the
/// frontier is empty: an extinct process stepped in a loop burns neither
/// epochs nor bitmap clears.
///
/// Scheduling: chunks are claimed dynamically by a fixed set of workers
/// (par::parallel_for_chunks), each owning a reusable flat offspring
/// buffer and a decode scratch for dense input chunks — no per-chunk
/// allocation in steady state. Pooled and sparse sampling loops
/// software-prefetch the CSR adjacency row a few vertices ahead (ascending
/// visit order makes the offsets stream sequential, so only the targets
/// row needs the hint). The serial dense round decodes nothing: it walks
/// each chunk's bitmap words in place, in the same ascending order.

namespace cobra::core {

/// How `expand` chooses the round's representation.
enum class FrontierMode : std::uint8_t {
  Auto,         ///< size-based switch with hysteresis (the default)
  ForceSparse,  ///< always the stamp/list path (tests, tiny graphs)
  ForceDense,   ///< always the bitmap path (tests)
};

struct FrontierOptions {
  /// Vertex IDs per chunk (rounded up to a multiple of 64 internally).
  /// Fixed chunking (not pool-size-derived) is what makes results
  /// independent of the thread count; changing it changes the
  /// seed-to-stream assignment, i.e. the trajectories a seed produces.
  std::size_t chunk_size = 1024;
  /// Estimated samples (|frontier| * branching_hint) below which a round
  /// runs in-line on the calling thread: below it, pool hand-off costs
  /// more than the sampling itself.
  std::size_t parallel_threshold = 8192;
  /// Pool to spread chunks over; nullptr means par::global_pool().
  par::ThreadPool* pool = nullptr;
  /// Expected sink() calls per frontier vertex — the work estimate that
  /// parallel_threshold is compared against. Clients that know their
  /// branching factor set it (CobraWalk sets k); 1.0 is the conservative
  /// default (one sample per vertex, the gossip/coalescing case).
  double branching_hint = 1.0;
  /// Dense once |frontier| * dense_alpha > n; back to sparse below half
  /// that. The default is where the bitmap's O(n/64)-word fixed costs
  /// (clear + materialize scan) drop below the sparse path's sort of the
  /// claimed list. Values < 1 effectively disable the dense path.
  double dense_alpha = 256.0;
  /// Representation override for tests and experiments.
  FrontierMode mode = FrontierMode::Auto;
  /// Spread the dense rounds' O(n/64) fixed costs (bitmap clear,
  /// span-overload materialization) over the round's pool once the bitmap
  /// outgrows cache scale. Value-independent work, so this affects SPEED
  /// only, never results; off = the serial clear/decode (tests pin it to
  /// isolate the sampling path).
  bool parallel_dense_ops = true;
};

namespace detail {

/// Append the set bits of `words[first_word, last_word)` to `out` as
/// vertex ids, ascending — the one bitmap-decode idiom, shared by
/// Frontier materialization, chunk decoding, and the span-overload
/// output path.
inline void decode_bits(std::span<const std::uint64_t> words,
                        std::size_t first_word, std::size_t last_word,
                        std::vector<Vertex>& out) {
  for (std::size_t w = first_word; w < last_word; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      out.push_back(static_cast<Vertex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

}  // namespace detail

/// A frontier in either representation, owned by the process that steps
/// it. Sparse form is a sorted duplicate-free vertex list; dense form is a
/// bitmap over [0, n) plus a popcount. `vertices()` is always available —
/// after a dense round it materializes (and caches) the sorted list from
/// the bitmap in O(n/64 + size). `size()` is O(1) in both forms, so hot
/// loops that only need the count (benches, growth tracking) never pay for
/// materialization.
class Frontier {
 public:
  Frontier() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// True when the bitmap is the authoritative representation.
  [[nodiscard]] bool dense() const noexcept { return dense_; }

  /// The frontier as a sorted, duplicate-free span. Materializes from the
  /// bitmap on first call after a dense round; cached until the engine
  /// next writes this frontier.
  [[nodiscard]] std::span<const Vertex> vertices() const {
    if (!list_valid_) {
      list_.clear();
      list_.reserve(count_);
      detail::decode_bits(bits_, 0, bits_.size(), list_);
      list_valid_ = true;
    }
    return list_;
  }

  /// The bitmap, bit v & 63 of word v >> 6 over (n + 63) / 64 words — the
  /// authoritative form while dense(), stale otherwise. Reading it costs
  /// nothing, whether or not vertices() has cached the list.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return bits_;
  }

  /// Whether `v` is in the frontier, without materializing it: a bit test
  /// when dense, a binary search of the sorted list when sparse.
  [[nodiscard]] bool contains(Vertex v) const noexcept {
    if (dense_) {
      const std::size_t w = v >> 6;
      return w < bits_.size() && ((bits_[w] >> (v & 63)) & 1u) != 0;
    }
    return std::binary_search(list_.begin(), list_.end(), v);
  }

  /// Reset to the empty sparse frontier (storage retained).
  void clear() noexcept {
    list_.clear();
    list_valid_ = true;
    dense_ = false;
    count_ = 0;
  }

  void swap(Frontier& other) noexcept {
    list_.swap(other.list_);
    bits_.swap(other.bits_);
    std::swap(list_valid_, other.list_valid_);
    std::swap(dense_, other.dense_);
    std::swap(count_, other.count_);
  }

 private:
  friend class FrontierEngine;
  friend class FrontierView;

  mutable std::vector<Vertex> list_;  ///< sparse form / dense-form cache
  mutable bool list_valid_ = true;
  std::vector<std::uint64_t> bits_;  ///< dense form, (n + 63) / 64 words
  bool dense_ = false;
  std::size_t count_ = 0;
};

/// Non-owning view of a frontier in either representation — what the
/// engine's expansion loops walk. Sparse views require the span to be
/// sorted ascending and duplicate-free (asserted in debug builds).
class FrontierView {
 public:
  /* implicit */ FrontierView(std::span<const Vertex> sorted) noexcept
      : list_(sorted), count_(sorted.size()) {
    assert(std::is_sorted(sorted.begin(), sorted.end()));
  }

  FrontierView(std::span<const std::uint64_t> words, std::size_t count) noexcept
      : words_(words), count_(count), dense_(true) {}

  /// View of `f` in its cheapest walkable form: the cached list when one
  /// is valid (no decode needed), the bitmap otherwise.
  explicit FrontierView(const Frontier& f) noexcept {
    if (f.dense_ && !f.list_valid_) {
      words_ = f.bits_;
      dense_ = true;
    } else {
      list_ = f.list_;
    }
    count_ = f.count_;
  }

  [[nodiscard]] bool dense() const noexcept { return dense_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::span<const Vertex> list() const noexcept { return list_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

 private:
  std::span<const Vertex> list_;
  std::span<const std::uint64_t> words_;
  std::size_t count_ = 0;
  bool dense_ = false;
};

/// Uniform neighbor selection with a regular-degree fast path. When the
/// graph is regular with a power-of-two degree d >= 2, Lemire's bounded
/// sampler degenerates to a shift (2^64 mod d == 0, so the rejection zone
/// is empty and m >> 64 == x >> (64 - log2 d)); precomputing that shift
/// replaces the 128-bit multiply with a mask-like single shift, and the
/// result is bit-identical to the generic path.
class NeighborSampler {
 public:
  NeighborSampler() = default;

  explicit NeighborSampler(const Graph& g) {
    if (g.num_vertices() == 0 || !g.is_regular()) return;
    const std::uint32_t degree = g.degree(0);
    if (degree >= 2 && std::has_single_bit(degree)) {
      shift_ = static_cast<int>(64 - std::bit_width(degree) + 1);  // 64 - log2(degree)
    }
  }

  template <rng::Uint64Generator G>
  [[nodiscard]] Vertex operator()(std::span<const Vertex> neighbors,
                                  G& gen) const {
    if (shift_ != 0) {
      return neighbors[static_cast<std::size_t>(gen() >> shift_)];
    }
    return neighbors[static_cast<std::size_t>(
        rng::uniform_below(gen, neighbors.size()))];
  }

  /// True when the shift fast path is armed (exposed for tests).
  [[nodiscard]] bool fast_path() const noexcept { return shift_ != 0; }

 private:
  int shift_ = 0;  // 0 = generic Lemire path
};

class FrontierEngine {
 public:
  /// The RNG handed to samplers: a block-buffered xoshiro (rng/batch.hpp).
  using ChunkRng = rng::Batched<Engine, 256>;

  explicit FrontierEngine(const Graph& g, FrontierOptions opts = {});

  /// Expand one round: for every frontier vertex v (ascending order within
  /// each vertex-range chunk), invoke `sampler(v, rng, sink)`, which must
  /// call `sink(u)` once per offspring vertex u. `next` receives the
  /// deduplicated offspring in the representation the round's mode picked;
  /// `frontier` and `next` must be distinct objects. `sampler` is shared
  /// across worker threads — it must be const-callable and must not mutate
  /// shared state without synchronization.
  template <typename Sampler>
  void expand(const Frontier& frontier, Frontier& next,
              std::uint64_t round_seed, const Sampler& sampler);

  /// Span-in / vector-out variant for processes that maintain their own
  /// lists (gossip). `frontier` must be sorted ascending and duplicate-free
  /// (all engine outputs are); `next` receives the deduplicated offspring
  /// sorted ascending (cleared first), materialized even after dense
  /// rounds (via the engine's scratch bitmap).
  template <typename Sampler>
  void expand(std::span<const Vertex> frontier, std::vector<Vertex>& next,
              std::uint64_t round_seed, const Sampler& sampler);

  /// Filter one round: `next` receives exactly the frontier vertices v with
  /// keep(v) true, in the representation the round's mode picked. This is
  /// the remove-from-frontier path that shrinking processes (greedy MIS,
  /// LLL resampling) step — the dual of expand: no sampling, no dedup (a
  /// subset of a canonical frontier is canonical), no RNG at all, so the
  /// output is trivially a pure function of (frontier, keep) regardless of
  /// thread count or representation. `keep` is shared across worker
  /// threads — it must be const-callable on concurrent vertices.
  template <typename Pred>
  void retain(const Frontier& frontier, Frontier& next, const Pred& keep);

  /// Span-in / vector-out retain for processes that maintain their own
  /// lists. `frontier` must be sorted ascending and duplicate-free; `next`
  /// receives the kept vertices ascending (cleared first).
  template <typename Pred>
  void retain(std::span<const Vertex> frontier, std::vector<Vertex>& next,
              const Pred& keep);

  /// Serial dedup of `in` into `out` (reset paths): keeps the first
  /// occurrence of each vertex, preserving order. Shares the stamp array,
  /// so it composes with expand rounds.
  void dedupe(std::span<const Vertex> in, std::vector<Vertex>& out);

  /// Dedup `in` into a canonical (sorted ascending) sparse frontier — the
  /// reset path of every engine client.
  void dedupe(std::span<const Vertex> in, Frontier& out);

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Mutable knobs — tests pin chunk_size / threshold / pool explicitly.
  [[nodiscard]] FrontierOptions& options() noexcept { return opts_; }

  /// How many expand rounds took each execution path (observability).
  [[nodiscard]] std::uint64_t parallel_rounds() const noexcept {
    return parallel_rounds_;
  }
  [[nodiscard]] std::uint64_t serial_rounds() const noexcept {
    return serial_rounds_;
  }

  /// How many expand rounds ran each representation, and how often the
  /// representation changed between consecutive rounds (the benches record
  /// all three next to their timings).
  [[nodiscard]] std::uint64_t dense_rounds() const noexcept {
    return dense_rounds_;
  }
  [[nodiscard]] std::uint64_t sparse_rounds() const noexcept {
    return sparse_rounds_;
  }
  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }

  /// Rounds that wanted the dense bitmap but could not get its storage
  /// (allocation failure, or the "frontier.dense_alloc" fault site) and
  /// ran sparse instead. The dense path is an optimization, so memory
  /// pressure degrades throughput, never correctness — the sparse round
  /// produces the identical frontier. Retried per round: the next round
  /// re-attempts dense as usual.
  [[nodiscard]] std::uint64_t dense_fallbacks() const noexcept {
    return dense_fallbacks_;
  }

  /// Set the dedup epoch counter directly — ONLY for tests exercising the
  /// 32-bit wrap path (e.g. a resumed run crossing the wrap) without
  /// stepping 2^32 sparse rounds first.
  void set_epoch_for_testing(std::uint32_t epoch) noexcept { epoch_ = epoch; }

  /// Total sink() invocations of the most recent expand round — i.e. the
  /// offspring emitted before dedup. Counted per worker and summed at the
  /// end (no shared atomic in the sampling loop), so callers whose
  /// per-vertex emission count is data-dependent (random branching
  /// schedules) read their work measure here instead of maintaining a
  /// contended counter inside the sampler.
  [[nodiscard]] std::uint64_t last_emitted() const noexcept {
    return last_emitted_;
  }

  /// Why the most recent round's representation is what it is: "" when the
  /// mode simply carried over, else one of "auto-grow", "auto-shrink",
  /// "forced-sparse", "forced-dense", "dense-alloc-fallback" — the trace
  /// sink's "switch" field.
  [[nodiscard]] const char* last_switch_reason() const noexcept {
    return last_switch_reason_;
  }

  /// Batched-RNG blocks drawn during the most recent expand round (summed
  /// over chunks) — the trace sink's "rng_blocks" field.
  [[nodiscard]] std::uint64_t last_rng_blocks() const noexcept {
    return last_rng_blocks_;
  }

 private:
  /// Advance the epoch, wiping stamps on 32-bit wrap (the aliasing guard).
  std::uint32_t advance_epoch();

  /// Pick the round's representation: the size/hysteresis policy
  /// (want_dense), then a guarded grab of the bitmap storage — a failed
  /// grab (bad_alloc or the "frontier.dense_alloc" fault site) demotes the
  /// round to sparse instead of propagating. Updates the mode counters for
  /// the representation the round will ACTUALLY run.
  bool choose_dense(std::size_t frontier_size,
                    std::vector<std::uint64_t>& dense_bits);

  /// The size/hysteresis policy alone (no side effects).
  [[nodiscard]] bool want_dense(std::size_t frontier_size) const;

  /// Record the round's representation (hysteresis memory + counters).
  bool commit_mode(bool dense);

  /// Ensure `bits` can hold num_words() words; false on failure.
  bool acquire_dense_words(std::vector<std::uint64_t>& bits);

  /// The pool to use for a round of `work` estimated samples, or nullptr
  /// for the in-line path.
  [[nodiscard]] par::ThreadPool* pick_pool(std::size_t frontier_size) const;

  [[nodiscard]] std::size_t chunk_span() const noexcept {
    const std::size_t raw = opts_.chunk_size > 0 ? opts_.chunk_size : 1;
    return (raw + 63) / 64 * 64;  // word-aligned vertex ranges
  }

  [[nodiscard]] std::size_t num_words() const noexcept {
    return (static_cast<std::size_t>(g_->num_vertices()) + 63) / 64;
  }

  void ensure_workers(std::size_t workers);

  /// Zero `bits` (sized to num_words()) — in parallel over `pool` once the
  /// bitmap outgrows cache scale (the dense rounds' fixed O(n/64) cost the
  /// ROADMAP called out), serially below that or with parallel_dense_ops
  /// off.
  void clear_words(std::vector<std::uint64_t>& bits, par::ThreadPool* pool);

  /// Decode `words` (holding `count` set bits) into `out` ascending — the
  /// span-overload output path. Parallel two-pass (per-range popcount,
  /// prefix offsets, in-place range decode) on large bitmaps; identical
  /// output to the serial decode by construction.
  void materialize_bits(std::span<const std::uint64_t> words,
                        std::size_t count, std::vector<Vertex>& out);

  /// Active vertices of vertex-range chunk c, ascending. Sparse views
  /// return a subspan located by binary search; dense views decode the
  /// chunk's words into `scratch`.
  [[nodiscard]] std::span<const Vertex> chunk_vertices(
      const FrontierView& in, std::size_t span, std::size_t c,
      std::vector<Vertex>& scratch) const;

  /// Read-only load-imbalance scan for the trace sink: how many vertex
  /// chunks hold active vertices and how full the fullest is. O(|frontier|)
  /// sparse / O(n/64) dense — run ONLY on traced rounds.
  void occupancy_stats(const FrontierView& in, std::size_t span,
                       std::uint64_t& chunks, std::uint64_t& max_occ) const;

  /// Append the finished round to the global trace sink (call sites gate
  /// on obs::trace_enabled() so untraced rounds pay one relaxed load).
  void emit_trace(const FrontierView& in, std::size_t produced, bool dense,
                  const obs::Stopwatch& watch);

  /// Invariant audits of a finished round's output (call sites gate on
  /// audit::enabled(), the one relaxed load). Sampling policy and the
  /// checks themselves live in core/audit.*; these adapters hand them the
  /// engine's private state (stamps, epoch, scratch bitmap).
  void audit_frontier(const Frontier& next, bool dense);
  void audit_list(std::span<const Vertex> next, bool dense);
  /// Retain-round variants: removal rounds never claim vertices, so the
  /// epoch/stamp record is untouched and the expand-path stamp check would
  /// misfire on them — these check canonical order / bitmap health only.
  void audit_retain(const Frontier& next, bool dense);
  void audit_retain_list(std::span<const Vertex> next, bool dense);
  void audit_graph_once();

  /// Drive `sampler` over one chunk's active vertices with CSR row
  /// prefetch a few vertices ahead.
  template <typename Sampler, typename Sink>
  void process_run(std::span<const Vertex> vs, ChunkRng& rng,
                   const Sampler& sampler, const Sink& sink) const {
    constexpr std::size_t kLookahead = 8;
    [[maybe_unused]] const auto& offsets = g_->offsets();
    [[maybe_unused]] const Vertex* targets = g_->targets().data();
    for (std::size_t i = 0; i < vs.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kLookahead < vs.size()) {
        __builtin_prefetch(targets + offsets[vs[i + kLookahead]]);
      }
#endif
      sampler(vs[i], rng, sink);
    }
  }

  /// Serial in-line visit of every chunk with active vertices. For sparse
  /// input this walks the sorted list run by run (no scan over empty
  /// chunks — a 24-vertex ring frontier touches 1-2 chunks, not n/span);
  /// dense input walks the bitmap words in place, skipping all-zero chunks
  /// before their RNG is seeded and visiting set bits ascending.
  template <typename Sampler, typename Sink>
  void serial_visit(const FrontierView& in, std::size_t span,
                    std::uint64_t round_seed, const Sampler& sampler,
                    const Sink& sink) {
    if (!in.dense()) {
      const auto list = in.list();
      std::size_t i = 0;
      while (i < list.size()) {
        const std::size_t c = list[i] / span;
        const auto limit = static_cast<Vertex>(
            std::min<std::uint64_t>((c + 1) * span, g_->num_vertices()));
        const auto end = static_cast<std::size_t>(
            std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(i),
                             list.end(), limit) -
            list.begin());
        ChunkRng rng(Engine(rng::derive_seed(round_seed, c)));
        process_run(list.subspan(i, end - i), rng, sampler, sink);
        last_rng_blocks_ += rng.refills();
        i = end;
      }
      return;
    }
    const auto words = in.words();
    const std::size_t chunk_words = span / 64;
    for (std::size_t c = 0, w0 = 0; w0 < words.size(); ++c, w0 += chunk_words) {
      const std::size_t w1 = std::min(w0 + chunk_words, words.size());
      const auto chunk = words.subspan(w0, w1 - w0);
      if (std::all_of(chunk.begin(), chunk.end(),
                      [](std::uint64_t word) { return word == 0; })) {
        continue;
      }
      ChunkRng rng(Engine(rng::derive_seed(round_seed, c)));
      for (std::size_t w = w0; w < w1; ++w) {
        for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
          const auto v = static_cast<Vertex>(
              (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
          sampler(v, rng, sink);
        }
      }
      last_rng_blocks_ += rng.refills();
    }
  }

  /// One sparse round into `out` (unsorted claims, sorted before return).
  template <typename Sampler>
  void expand_sparse(const FrontierView& in, std::vector<Vertex>& out,
                     std::uint64_t round_seed, const Sampler& sampler);

  /// One dense round into `out_bits` / `out_count`.
  template <typename Sampler>
  void expand_dense(const FrontierView& in, std::vector<std::uint64_t>& out_bits,
                    std::size_t& out_count, std::uint64_t round_seed,
                    const Sampler& sampler);

  /// One sparse retain round into `out` (ascending by construction).
  template <typename Pred>
  void retain_sparse(const FrontierView& in, std::vector<Vertex>& out,
                     const Pred& keep);

  /// One dense retain round into `out_bits` / `out_count`.
  template <typename Pred>
  void retain_dense(const FrontierView& in,
                    std::vector<std::uint64_t>& out_bits,
                    std::size_t& out_count, const Pred& keep);

  const Graph* g_;
  FrontierOptions opts_;
  std::vector<std::uint32_t> stamp_;  ///< per-vertex epoch of last claim
  std::uint32_t epoch_ = 0;
  bool last_dense_ = false;  ///< hysteresis memory
  bool have_mode_ = false;   ///< false until the first non-empty round
  std::vector<std::uint64_t> scratch_bits_;  ///< span-overload dense output
  // Reusable flat per-worker state (sized once, cleared per round).
  std::vector<std::vector<Vertex>> worker_lists_;    ///< sparse claims
  std::vector<std::vector<Vertex>> worker_decode_;   ///< dense-input decode
  std::vector<std::uint64_t> worker_emitted_;
  std::vector<std::uint64_t> worker_claimed_;
  std::vector<std::uint64_t> worker_blocks_;  ///< per-worker RNG refills
  std::uint64_t parallel_rounds_ = 0;
  std::uint64_t serial_rounds_ = 0;
  std::uint64_t dense_rounds_ = 0;
  std::uint64_t sparse_rounds_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t dense_fallbacks_ = 0;
  std::uint64_t last_emitted_ = 0;
  std::uint64_t last_rng_blocks_ = 0;
  const char* last_switch_reason_ = "";
  bool last_parallel_ = false;     ///< the trace sink's "path" field
  std::uint64_t trace_id_ = 0;     ///< lazily drawn on first traced round
  std::uint64_t audit_seq_ = 0;    ///< audited-round ordinal (sampling)
  bool audit_graph_checked_ = false;  ///< CSR validated once per engine
};

template <typename Sampler>
void FrontierEngine::expand_sparse(const FrontierView& in,
                                   std::vector<Vertex>& out,
                                   std::uint64_t round_seed,
                                   const Sampler& sampler) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  const std::uint32_t epoch = advance_epoch();
  par::ThreadPool* pool = pick_pool(in.size());
  last_rng_blocks_ = 0;

  if (pool == nullptr || n_chunks <= 1) {
    ++serial_rounds_;
    last_parallel_ = false;
    std::uint64_t emitted = 0;
    const auto sink = [&](Vertex u) {
      ++emitted;
      if (stamp_[u] != epoch) {
        stamp_[u] = epoch;
        out.push_back(u);
      }
    };
    serial_visit(in, span, round_seed, sampler, sink);
    last_emitted_ = emitted;
  } else {
    ++parallel_rounds_;
    last_parallel_ = true;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_lists_[w].clear();
      worker_emitted_[w] = 0;
      worker_blocks_[w] = 0;
    }
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const auto vs = chunk_vertices(in, span, c, worker_decode_[w]);
          if (vs.empty()) return;
          ChunkRng rng(Engine(rng::derive_seed(round_seed, c)));
          auto& claims = worker_lists_[w];
          std::uint64_t emitted = 0;
          const auto sink = [&](Vertex u) {
            ++emitted;
            std::atomic_ref<std::uint32_t> cell(stamp_[u]);
            std::uint32_t cur = cell.load(std::memory_order_relaxed);
            // One strong CAS suffices: every contending write this round
            // installs the same epoch value, so failure == already claimed.
            if (cur != epoch &&
                cell.compare_exchange_strong(cur, epoch,
                                             std::memory_order_relaxed)) {
              claims.push_back(u);
            }
          };
          process_run(vs, rng, sampler, sink);
          worker_emitted_[w] += emitted;
          worker_blocks_[w] += rng.refills();
        });
    std::uint64_t emitted = 0;
    std::size_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      emitted += worker_emitted_[w];
      total += worker_lists_[w].size();
      last_rng_blocks_ += worker_blocks_[w];
    }
    out.reserve(out.size() + total);
    for (std::size_t w = 0; w < workers; ++w) {
      out.insert(out.end(), worker_lists_[w].begin(), worker_lists_[w].end());
    }
    last_emitted_ = emitted;
  }
  // Canonical ascending order: what makes the result independent of both
  // the schedule (claim sets are schedule-independent) and the
  // representation (the dense path is ascending by construction).
  std::sort(out.begin(), out.end());
}

template <typename Sampler>
void FrontierEngine::expand_dense(const FrontierView& in,
                                  std::vector<std::uint64_t>& out_bits,
                                  std::size_t& out_count,
                                  std::uint64_t round_seed,
                                  const Sampler& sampler) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  par::ThreadPool* pool = pick_pool(in.size());
  clear_words(out_bits, pool);  // the round's one O(n/64) clear
  last_rng_blocks_ = 0;

  if (pool == nullptr || n_chunks <= 1) {
    ++serial_rounds_;
    last_parallel_ = false;
    std::uint64_t emitted = 0;
    std::size_t claimed = 0;
    std::uint64_t* bits = out_bits.data();
    const auto sink = [&](Vertex u) {
      ++emitted;
      std::uint64_t& word = bits[u >> 6];
      const std::uint64_t bit = 1ULL << (u & 63);
      claimed += (word & bit) == 0;
      word |= bit;
    };
    serial_visit(in, span, round_seed, sampler, sink);
    last_emitted_ = emitted;
    out_count = claimed;
  } else {
    ++parallel_rounds_;
    last_parallel_ = true;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_emitted_[w] = 0;
      worker_claimed_[w] = 0;
      worker_blocks_[w] = 0;
    }
    std::uint64_t* bits = out_bits.data();
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const auto vs = chunk_vertices(in, span, c, worker_decode_[w]);
          if (vs.empty()) return;
          ChunkRng rng(Engine(rng::derive_seed(round_seed, c)));
          std::uint64_t emitted = 0;
          std::uint64_t claimed = 0;
          const auto sink = [&](Vertex u) {
            ++emitted;
            std::atomic_ref<std::uint64_t> word(bits[u >> 6]);
            const std::uint64_t bit = 1ULL << (u & 63);
            const std::uint64_t old =
                word.fetch_or(bit, std::memory_order_relaxed);
            claimed += (old & bit) == 0;
          };
          process_run(vs, rng, sampler, sink);
          worker_emitted_[w] += emitted;
          worker_claimed_[w] += claimed;
          worker_blocks_[w] += rng.refills();
        });
    std::uint64_t emitted = 0;
    std::size_t claimed = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      emitted += worker_emitted_[w];
      claimed += worker_claimed_[w];
      last_rng_blocks_ += worker_blocks_[w];
    }
    last_emitted_ = emitted;
    out_count = claimed;
  }
}

template <typename Pred>
void FrontierEngine::retain_sparse(const FrontierView& in,
                                   std::vector<Vertex>& out,
                                   const Pred& keep) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  par::ThreadPool* pool = pick_pool(in.size());
  last_rng_blocks_ = 0;

  if (pool == nullptr || n_chunks <= 1) {
    ++serial_rounds_;
    last_parallel_ = false;
    if (!in.dense()) {
      // The input list is already ascending; a filtered copy stays so.
      for (const Vertex v : in.list()) {
        if (keep(v)) out.push_back(v);
      }
    } else {
      const auto words = in.words();
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
          const auto v = static_cast<Vertex>(
              (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
          if (keep(v)) out.push_back(v);
          word &= word - 1;
        }
      }
    }
  } else {
    ++parallel_rounds_;
    last_parallel_ = true;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) worker_lists_[w].clear();
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const auto vs = chunk_vertices(in, span, c, worker_decode_[w]);
          auto& kept = worker_lists_[w];
          for (const Vertex v : vs) {
            if (keep(v)) kept.push_back(v);
          }
        });
    std::size_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) total += worker_lists_[w].size();
    out.reserve(out.size() + total);
    for (std::size_t w = 0; w < workers; ++w) {
      out.insert(out.end(), worker_lists_[w].begin(), worker_lists_[w].end());
    }
    // Chunks are claimed dynamically, so worker lists interleave chunk
    // ranges; the sort restores the canonical ascending order. The kept
    // SET is schedule-independent (keep draws no RNG), so the sorted
    // result is bit-identical to the serial path.
    std::sort(out.begin(), out.end());
  }
  // The work measure: keep() evaluated once per frontier vertex.
  last_emitted_ = in.size();
}

template <typename Pred>
void FrontierEngine::retain_dense(const FrontierView& in,
                                  std::vector<std::uint64_t>& out_bits,
                                  std::size_t& out_count, const Pred& keep) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  par::ThreadPool* pool = pick_pool(in.size());
  clear_words(out_bits, pool);  // may reallocate — take .data() after
  last_rng_blocks_ = 0;
  std::uint64_t* bits = out_bits.data();

  if (pool == nullptr || n_chunks <= 1) {
    ++serial_rounds_;
    last_parallel_ = false;
    std::size_t kept = 0;
    const auto mark = [&](Vertex v) {
      if (keep(v)) {
        bits[v >> 6] |= 1ULL << (v & 63);
        ++kept;
      }
    };
    if (!in.dense()) {
      for (const Vertex v : in.list()) mark(v);
    } else {
      const auto words = in.words();
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
          mark(static_cast<Vertex>(
              (w << 6) + static_cast<std::size_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
    }
    out_count = kept;
  } else {
    ++parallel_rounds_;
    last_parallel_ = true;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) worker_claimed_[w] = 0;
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const auto vs = chunk_vertices(in, span, c, worker_decode_[w]);
          std::uint64_t kept = 0;
          // Chunk ranges are word-aligned and a retain only sets bits of
          // its own chunk's vertices, so workers own disjoint words —
          // plain stores, no fetch_or.
          for (const Vertex v : vs) {
            if (keep(v)) {
              bits[v >> 6] |= 1ULL << (v & 63);
              ++kept;
            }
          }
          worker_claimed_[w] += kept;
        });
    std::size_t kept = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      kept += static_cast<std::size_t>(worker_claimed_[w]);
    }
    out_count = kept;
  }
  last_emitted_ = in.size();
}

template <typename Sampler>
void FrontierEngine::expand(const Frontier& frontier, Frontier& next,
                            std::uint64_t round_seed, const Sampler& sampler) {
  assert(&frontier != &next);
  next.clear();
  last_emitted_ = 0;
  if (frontier.empty()) return;  // no epoch/bitmap burn for extinct processes

  // Advance the chaos round clock (event-log context for fault firings).
  // Gated on the fault registry's relaxed load — free in fault-free runs.
  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& step_timer = obs::registry().timer("frontier.step");
  obs::ScopedTimer timed(step_timer);
#endif
  // One relaxed load when untraced; everything trace-priced (occupancy
  // scan, clock reads) stays behind it. Telemetry reads state only — the
  // produced frontier is bit-identical traced or not.
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  const FrontierView in(frontier);
  bool dense = choose_dense(in.size(), next.bits_);
  if (dense) {
    expand_dense(in, next.bits_, next.count_, round_seed, sampler);
    next.dense_ = true;
    next.list_valid_ = false;  // materialized lazily by vertices()
  } else {
    expand_sparse(in, next.list_, round_seed, sampler);
    next.count_ = next.list_.size();
  }
  // One relaxed load when unarmed, mirroring fault/trace; the sampled
  // checks read the produced frontier only, never mutate it.
  if (audit::enabled()) audit_frontier(next, dense);
  if (traced) emit_trace(in, next.count_, dense, watch);
}

template <typename Sampler>
void FrontierEngine::expand(std::span<const Vertex> frontier,
                            std::vector<Vertex>& next,
                            std::uint64_t round_seed, const Sampler& sampler) {
  next.clear();
  last_emitted_ = 0;
  if (frontier.empty()) return;

  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& step_timer = obs::registry().timer("frontier.step");
  obs::ScopedTimer timed(step_timer);
#endif
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  const FrontierView in(frontier);  // asserts sortedness in debug builds
  bool dense = choose_dense(in.size(), scratch_bits_);
  if (dense) {
    std::size_t count = 0;
    expand_dense(in, scratch_bits_, count, round_seed, sampler);
    materialize_bits(scratch_bits_, count, next);
  } else {
    expand_sparse(in, next, round_seed, sampler);
  }
  if (audit::enabled()) audit_list(next, dense);
  if (traced) emit_trace(in, next.size(), dense, watch);
}

template <typename Pred>
void FrontierEngine::retain(const Frontier& frontier, Frontier& next,
                            const Pred& keep) {
  assert(&frontier != &next);
  next.clear();
  last_emitted_ = 0;
  if (frontier.empty()) return;

  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& retain_timer = obs::registry().timer("frontier.retain");
  obs::ScopedTimer timed(retain_timer);
#endif
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  const FrontierView in(frontier);
  bool dense = choose_dense(in.size(), next.bits_);
  if (dense) {
    retain_dense(in, next.bits_, next.count_, keep);
    next.dense_ = true;
    next.list_valid_ = false;
  } else {
    retain_sparse(in, next.list_, keep);
    next.count_ = next.list_.size();
  }
  if (audit::enabled()) audit_retain(next, dense);
  if (traced) emit_trace(in, next.count_, dense, watch);
}

template <typename Pred>
void FrontierEngine::retain(std::span<const Vertex> frontier,
                            std::vector<Vertex>& next, const Pred& keep) {
  next.clear();
  last_emitted_ = 0;
  if (frontier.empty()) return;

  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& retain_timer = obs::registry().timer("frontier.retain");
  obs::ScopedTimer timed(retain_timer);
#endif
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  const FrontierView in(frontier);  // asserts sortedness in debug builds
  bool dense = choose_dense(in.size(), scratch_bits_);
  if (dense) {
    std::size_t count = 0;
    retain_dense(in, scratch_bits_, count, keep);
    materialize_bits(scratch_bits_, count, next);
  } else {
    retain_sparse(in, next, keep);
  }
  if (audit::enabled()) audit_retain_list(next, dense);
  if (traced) emit_trace(in, next.size(), dense, watch);
}

}  // namespace cobra::core
