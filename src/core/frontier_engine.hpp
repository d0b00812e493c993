#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/audit.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
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
///   * sparse rounds append, sort, unique: every offspring is appended to
///     its chunk's claim list, and one sort + unique of the round's list
///     leaves it ascending and duplicate-free;
///   * dense rounds dedup by setting bits of 64-bit bitmap words (one
///     plain store serially, one fetch_or in parallel) — the output is a
///     set materialized in ascending vertex order by construction, so no
///     sort and no per-offspring list entry.
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
/// No dedup state carries over between rounds: a sparse round's claim
/// lists are cleared before use and a dense round's bitmap at round start,
/// so representation switches need no invalidation. `expand` returns before
/// touching any state when the frontier is empty: an extinct process
/// stepped in a loop pays no bitmap clears.
///
/// Scheduling: every round — expand or retain, sparse or dense output,
/// serial or pooled — runs the same per-chunk body (`run_round`). The
/// serial path visits only occupied chunks (a sorted list run by run, a
/// bitmap skipping all-zero chunks before their stream is seeded); the
/// pooled path hands chunks out dynamically (par::parallel_for_chunks) to
/// a fixed set of workers, each owning a reusable flat claim buffer — no
/// per-chunk allocation in steady state, and no decode scratch: a dense
/// input chunk's bitmap words are walked in place on both paths. Sorted
/// list chunks of expand rounds software-prefetch the CSR adjacency row a
/// few vertices ahead (ascending visit order makes the offsets stream
/// sequential, so only the targets row needs the hint). How a claim is
/// stored is a compile-time `Shared` flag of the body, not a per-sample
/// branch: pooled dense expand rounds claim with a bitmap fetch_or, serial
/// rounds with plain stores — a lock-prefixed fetch_or would tax every
/// sample of the many small serial dense rounds that trial-level
/// Monte-Carlo steps, one engine per trial.

namespace cobra::core {

/// How `expand` chooses the round's representation.
enum class FrontierMode : std::uint8_t {
  Auto,         ///< size-based switch with hysteresis (the default)
  ForceSparse,  ///< always the sorted-list path (tests, tiny graphs)
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
/// Frontier materialization and the span-overload output path.
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
  /// The RNG handed to samplers: the chunk's own xoshiro stream, seeded
  /// derive_seed(round_seed, chunk index) — one chunk stream per visited
  /// chunk of an expand round.
  using ChunkRng = Engine;

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
              std::uint64_t round_seed, const Sampler& sampler) {
    assert(&frontier != &next);
    round<true>(FrontierView(frontier), next, round_seed, sampler);
  }

  /// Span-in / vector-out variant for processes that maintain their own
  /// lists (gossip). `frontier` must be sorted ascending and duplicate-free
  /// (all engine outputs are); `next` receives the deduplicated offspring
  /// sorted ascending (cleared first), materialized even after dense
  /// rounds (via the engine's scratch bitmap).
  template <typename Sampler>
  void expand(std::span<const Vertex> frontier, std::vector<Vertex>& next,
              std::uint64_t round_seed, const Sampler& sampler) {
    round<true>(FrontierView(frontier), next, round_seed, sampler);
  }

  /// Filter one round: `next` receives exactly the frontier vertices v with
  /// keep(v) true, in the representation the round's mode picked. This is
  /// the remove-from-frontier path that shrinking processes (greedy MIS,
  /// LLL resampling) step — the dual of expand: no sampling, no dedup (a
  /// subset of a canonical frontier is canonical), no RNG draws at all, so
  /// the output is trivially a pure function of (frontier, keep) regardless
  /// of thread count or representation. `keep` is shared across worker
  /// threads — it must be const-callable on concurrent vertices.
  template <typename Pred>
  void retain(const Frontier& frontier, Frontier& next, const Pred& keep) {
    assert(&frontier != &next);
    round<false>(FrontierView(frontier), next, 0,
                 [&keep](Vertex v, ChunkRng&, const auto& sink) {
                   if (keep(v)) sink(v);
                 });
  }

  /// Dedup `in` into a canonical (sorted ascending) sparse frontier — the
  /// reset path of every engine client: copy, sort, unique. The sort is
  /// skipped when the copy is already ascending, so a canonical `in` (an
  /// iota, a checked checkpoint) costs linear passes only. `in` may view
  /// `out`'s own list (a reset from a subspan of the active set).
  void dedupe(std::span<const Vertex> in, Frontier& out);

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Mutable knobs — tests pin chunk_size / threshold / pool explicitly.
  [[nodiscard]] FrontierOptions& options() noexcept { return opts_; }

  /// How many rounds (expand and retain) took each execution path
  /// (observability).
  [[nodiscard]] std::uint64_t parallel_rounds() const noexcept {
    return parallel_rounds_;
  }
  [[nodiscard]] std::uint64_t serial_rounds() const noexcept {
    return serial_rounds_;
  }

  /// How many rounds ran each representation, and how often the
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

  /// Total sink() invocations of the most recent expand round — i.e. the
  /// offspring emitted before dedup; |frontier| after a retain round (keep
  /// evaluated once per vertex). Counted per chunk and summed at the end
  /// (no shared atomic in the sampling loop), so callers whose per-vertex
  /// emission count is data-dependent (random branching schedules) read
  /// their work measure here instead of maintaining a contended counter
  /// inside the sampler.
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

  /// Chunk streams seeded during the most recent round: one per visited
  /// (occupied) chunk of an expand round, 0 after a retain round — the
  /// trace sink's "rng_blocks" field.
  [[nodiscard]] std::uint64_t last_rng_blocks() const noexcept {
    return last_rng_blocks_;
  }

 private:
  /// Per-chunk round counters, summed per worker and then per round.
  struct Tally {
    std::uint64_t emitted = 0;     ///< sink() calls
    std::uint64_t claimed = 0;     ///< bits newly set (dense output)
    std::uint64_t rng_blocks = 0;  ///< chunk streams seeded

    Tally& operator+=(const Tally& o) noexcept {
      emitted += o.emitted;
      claimed += o.claimed;
      rng_blocks += o.rng_blocks;
      return *this;
    }
  };

  /// One vertex-range chunk of a round's input, in the input's own form:
  /// a subspan of the sorted list, or the range's bitmap words starting at
  /// word `first_word` (chunk ranges are word-aligned).
  struct Chunk {
    std::span<const Vertex> list;
    std::span<const std::uint64_t> words;
    std::size_t first_word = 0;

    [[nodiscard]] bool empty() const noexcept {
      return list.empty() &&
             std::all_of(words.begin(), words.end(),
                         [](std::uint64_t word) { return word == 0; });
    }

    [[nodiscard]] std::size_t size() const noexcept {
      std::size_t n = list.size();
      for (const std::uint64_t word : words) {
        n += static_cast<std::size_t>(std::popcount(word));
      }
      return n;
    }

    /// f(v) for each active vertex, ascending. Bitmap words are decoded in
    /// place; a list is walked with the CSR row of the vertex a few places
    /// ahead prefetched when `Prefetch` (samplers read rows, retain
    /// predicates need not).
    template <bool Prefetch, typename F>
    void for_each(const Graph& g, const F& f) const {
      constexpr std::size_t kLookahead = 8;
      [[maybe_unused]] const auto& offsets = g.offsets();
      [[maybe_unused]] const Vertex* targets = g.targets().data();
      for (std::size_t i = 0; i < list.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
        if (Prefetch && i + kLookahead < list.size()) {
          __builtin_prefetch(targets + offsets[list[i + kLookahead]]);
        }
#endif
        f(list[i]);
      }
      for (std::size_t i = 0; i < words.size(); ++i) {
        const std::size_t base = (first_word + i) << 6;
        for (std::uint64_t word = words[i]; word != 0; word &= word - 1) {
          const auto bit = static_cast<std::size_t>(std::countr_zero(word));
          f(static_cast<Vertex>(base + bit));
        }
      }
    }
  };

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

  /// Chunk c of `in`, possibly empty: a list subspan located by binary
  /// search, or the chunk's bitmap words (the pooled rounds' lookup).
  [[nodiscard]] Chunk chunk_at(const FrontierView& in, std::size_t span,
                               std::size_t c) const;

  /// f(c, chunk) for every chunk of `in` holding active vertices,
  /// ascending: a sorted list run by run (a 24-vertex ring frontier
  /// touches 1-2 chunks, not n/span), a bitmap skipping all-zero chunks —
  /// so a serial round seeds no stream for an empty chunk.
  template <typename F>
  void for_each_chunk(const FrontierView& in, std::size_t span,
                      const F& f) const {
    if (!in.dense()) {
      const auto list = in.list();
      for (std::size_t i = 0; i < list.size();) {
        const std::size_t c = list[i] / span;
        const auto limit = static_cast<Vertex>(
            std::min<std::uint64_t>((c + 1) * span, g_->num_vertices()));
        const auto end = static_cast<std::size_t>(
            std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(i),
                             list.end(), limit) -
            list.begin());
        f(c, Chunk{list.subspan(i, end - i), {}, 0});
        i = end;
      }
      return;
    }
    const auto words = in.words();
    const std::size_t chunk_words = span / 64;
    for (std::size_t c = 0, w0 = 0; w0 < words.size(); ++c, w0 += chunk_words) {
      const Chunk chunk{
          {}, words.subspan(w0, std::min(chunk_words, words.size() - w0)), w0};
      if (!chunk.empty()) f(c, chunk);
    }
  }

  /// Read-only load-imbalance scan for the trace sink: how many vertex
  /// chunks hold active vertices and how full the fullest is. O(|frontier|)
  /// sparse / O(n/64) dense — run ONLY on traced rounds.
  void occupancy_stats(const FrontierView& in, std::size_t span,
                       std::uint64_t& chunks, std::uint64_t& max_occ) const;

  /// Append the finished round to the global trace sink (call sites gate
  /// on obs::trace_enabled() so untraced rounds pay one relaxed load).
  void emit_trace(const FrontierView& in, std::size_t produced, bool dense,
                  const obs::Stopwatch& watch);

  /// Invariant audit of a finished round's output (the call site gates on
  /// audit::enabled(), the one relaxed load; sampling policy and the checks
  /// live in core/audit.*). Canonical order whenever there is a `list`;
  /// when `dense`, the bitmap `bits` against the list's size, or against
  /// `count` without a list.
  void audit_round(const std::vector<Vertex>* list,
                   std::span<const std::uint64_t> bits, std::size_t count,
                   bool dense);
  void audit_graph_once();

  /// One round of any kind, from the empty-input early return to the
  /// audit and trace: picks the representation, runs run_round into
  /// `out` (a Frontier, or a vector materialized from the scratch bitmap
  /// after a dense round), and books the counters.
  template <bool Dedup, typename Out, typename Emit>
  void round(const FrontierView& in, Out& out, std::uint64_t round_seed,
             const Emit& emit);

  /// The one round driver: every occupied chunk of `in` runs the same
  /// per-chunk body — seed derive_seed(round_seed, c), walk the chunk's
  /// vertices ascending through emit(v, rng, sink), claim each sunk
  /// vertex — on the calling thread or over the pool. Output goes to
  /// `words` (Dense) or `list` (sorted and deduplicated before return;
  /// a serial retain's list is canonical already); returns the output's
  /// size.
  template <bool Dense, bool Dedup, typename Emit>
  std::size_t run_round(const FrontierView& in, std::vector<Vertex>& list,
                        std::vector<std::uint64_t>& words,
                        std::uint64_t round_seed, const Emit& emit);

  const Graph* g_;
  FrontierOptions opts_;
  bool last_dense_ = false;  ///< hysteresis memory
  bool have_mode_ = false;   ///< false until the first non-empty round
  std::vector<std::uint64_t> scratch_bits_;  ///< span-overload dense output
  // Reusable flat per-worker state (sized once, cleared per round).
  std::vector<std::vector<Vertex>> worker_lists_;  ///< sparse claims
  std::vector<Tally> worker_tallies_;
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

template <bool Dense, bool Dedup, typename Emit>
std::size_t FrontierEngine::run_round(const FrontierView& in,
                                      std::vector<Vertex>& list,
                                      std::vector<std::uint64_t>& words,
                                      std::uint64_t round_seed,
                                      const Emit& emit) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  par::ThreadPool* pool = pick_pool(in.size());
  if constexpr (Dense) clear_words(words, pool);  // may reallocate
  std::uint64_t* bits = words.data();

  // The per-chunk body. `shared` (a std::bool_constant) says whether other
  // workers claim concurrently: pooled dense expand rounds then fetch_or
  // the word; serial rounds, and every dense retain (it sets only its own
  // chunk's bits, and chunks are word-aligned), keep plain stores. Sparse
  // rounds append every sunk vertex to the chunk's own claim list and
  // deduplicate once, after the sort below.
  const auto visit = [&](auto shared, std::size_t c, const Chunk& chunk,
                         std::vector<Vertex>& claims, Tally& tally) {
    ChunkRng rng(rng::derive_seed(round_seed, c));
    std::uint64_t emitted = 0;
    std::uint64_t claimed = 0;
    const auto sink = [&](Vertex u) {
      ++emitted;
      if constexpr (Dense) {
        const std::uint64_t bit = 1ULL << (u & 63);
        std::uint64_t old;
        if constexpr (decltype(shared)::value && Dedup) {
          old = std::atomic_ref<std::uint64_t>(bits[u >> 6])
                    .fetch_or(bit, std::memory_order_relaxed);
        } else {
          old = bits[u >> 6];
          bits[u >> 6] = old | bit;
        }
        claimed += (old & bit) == 0;
      } else {
        claims.push_back(u);
      }
    };
    chunk.for_each<Dedup>(*g_, [&](Vertex v) { emit(v, rng, sink); });
    tally += Tally{emitted, claimed, Dedup ? 1u : 0u};
  };

  Tally total;
  last_parallel_ = pool != nullptr && n_chunks > 1;
  if (!last_parallel_) {
    ++serial_rounds_;
    for_each_chunk(in, span, [&](std::size_t c, const Chunk& chunk) {
      visit(std::false_type{}, c, chunk, list, total);
    });
  } else {
    ++parallel_rounds_;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_lists_[w].clear();
      worker_tallies_[w] = {};
    }
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const Chunk chunk = chunk_at(in, span, c);
          if (!chunk.empty()) {
            visit(std::true_type{}, c, chunk, worker_lists_[w],
                  worker_tallies_[w]);
          }
        });
    std::size_t claims = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      total += worker_tallies_[w];
      claims += worker_lists_[w].size();
    }
    list.reserve(list.size() + claims);
    for (std::size_t w = 0; w < workers; ++w) {
      list.insert(list.end(), worker_lists_[w].begin(), worker_lists_[w].end());
    }
  }
  // Canonical ascending order, duplicates removed: what makes the result
  // independent of both the schedule (pooled chunks are taken dynamically,
  // so worker lists interleave) and the representation (the dense path is
  // ascending and duplicate-free by construction). A retain's filtered
  // copy of a canonical input has no duplicates, and a serial one is
  // ascending already.
  if constexpr (!Dense) {
    if (Dedup || last_parallel_) std::sort(list.begin(), list.end());
    if constexpr (Dedup) {
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  last_emitted_ = Dedup ? total.emitted : in.size();
  last_rng_blocks_ = total.rng_blocks;
  return Dense ? static_cast<std::size_t>(total.claimed) : list.size();
}

template <bool Dedup, typename Out, typename Emit>
void FrontierEngine::round(const FrontierView& in, Out& out,
                           std::uint64_t round_seed, const Emit& emit) {
  constexpr bool kFrontier = std::is_same_v<Out, Frontier>;
  out.clear();
  last_emitted_ = 0;
  if (in.size() == 0) return;  // no bitmap clear for extinct processes

  // Advance the chaos round clock (event-log context for fault firings).
  // Gated on the fault registry's relaxed load — free in fault-free runs.
  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer =
      obs::registry().timer(Dedup ? "frontier.step" : "frontier.retain");
  obs::ScopedTimer timed(timer);
#endif
  // One relaxed load when untraced; everything trace-priced (occupancy
  // scan, clock reads) stays behind it. Telemetry reads state only — the
  // produced frontier is bit-identical traced or not.
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  std::vector<Vertex>* list;
  std::vector<std::uint64_t>* bits;
  if constexpr (kFrontier) {
    list = &out.list_;
    bits = &out.bits_;
  } else {
    list = &out;
    bits = &scratch_bits_;
  }
  const bool dense = choose_dense(in.size(), *bits);
  const std::size_t count =
      dense ? run_round<true, Dedup>(in, *list, *bits, round_seed, emit)
            : run_round<false, Dedup>(in, *list, *bits, round_seed, emit);
  if constexpr (kFrontier) {
    out.count_ = count;
    out.dense_ = dense;
    out.list_valid_ = !dense;  // materialized lazily by vertices()
    if (dense) list = nullptr;
  } else if (dense) {
    materialize_bits(*bits, count, out);
  }
  // One relaxed load when unarmed, mirroring fault/trace; the sampled
  // checks read the produced frontier only, never mutate it.
  if (audit::enabled()) {
    audit_round(list, *bits, count, dense);
  }
  if (traced) emit_trace(in, count, dense, watch);
}

}  // namespace cobra::core
