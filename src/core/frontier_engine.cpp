#include "core/frontier_engine.hpp"

#include <new>
#include <stdexcept>

#include "util/fault.hpp"

namespace cobra::core {

FrontierEngine::FrontierEngine(const Graph& g, FrontierOptions opts)
    : g_(&g), opts_(opts), stamp_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("FrontierEngine: empty graph");
  }
}

std::uint32_t FrontierEngine::advance_epoch() {
  if (++epoch_ == 0) {  // 32-bit wrap: stamps from 2^32 sparse rounds ago
    stamp_.assign(stamp_.size(), 0);  // would alias the new epoch — wipe
    epoch_ = 1;
  }
  return epoch_;
}

bool FrontierEngine::want_dense(std::size_t frontier_size) const {
  switch (opts_.mode) {
    case FrontierMode::ForceSparse:
      return false;
    case FrontierMode::ForceDense:
      return true;
    default: {
      // Enter dense above n / alpha; once dense, stay until the frontier
      // falls below half the entry threshold (hysteresis: a frontier
      // hovering at the boundary pays one switch, not one per round).
      const double scaled =
          static_cast<double>(frontier_size) * opts_.dense_alpha;
      const auto n = static_cast<double>(g_->num_vertices());
      return last_dense_ ? scaled * 2.0 >= n : scaled > n;
    }
  }
}

bool FrontierEngine::commit_mode(bool dense) {
  if (have_mode_ && dense != last_dense_) ++switches_;
  have_mode_ = true;
  last_dense_ = dense;
  ++(dense ? dense_rounds_ : sparse_rounds_);
  return dense;
}

bool FrontierEngine::acquire_dense_words(std::vector<std::uint64_t>& bits) {
  if (util::fault::should_fail("frontier.dense_alloc")) return false;
  try {
    bits.reserve(num_words());
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

bool FrontierEngine::choose_dense(std::size_t frontier_size,
                                  std::vector<std::uint64_t>& dense_bits) {
  bool dense = want_dense(frontier_size);
  const char* reason = "";
  // The bitmap's O(n/64) words are the dense path's one allocation; if
  // they can't be had, the sparse path still works in the memory the
  // frontier already owns — identical results, degraded speed. Demote
  // BEFORE committing, so hysteresis and counters see the real mode.
  if (dense && !acquire_dense_words(dense_bits)) {
    dense = false;
    reason = "dense-alloc-fallback";
    ++dense_fallbacks_;
    obs::count("frontier.dense_fallbacks");
  }
  // A reason is only a SWITCH note: the first round's mode is a choice,
  // not a change, so it traces as "" like any other steady round.
  if (reason[0] == '\0' && have_mode_ && dense != last_dense_) {
    switch (opts_.mode) {
      case FrontierMode::ForceSparse:
        reason = "forced-sparse";
        break;
      case FrontierMode::ForceDense:
        reason = "forced-dense";
        break;
      default:
        reason = dense ? "auto-grow" : "auto-shrink";
        break;
    }
  }
  last_switch_reason_ = reason;
  return commit_mode(dense);
}

par::ThreadPool* FrontierEngine::pick_pool(std::size_t frontier_size) const {
  // Work estimate, not raw frontier length: a 5k-vertex frontier at k = 4
  // is as much sampling as a 20k one at k = 1, and it is the sampling that
  // must amortize the pool hand-off.
  const double work = static_cast<double>(frontier_size) *
                      std::max(opts_.branching_hint, 1.0);
  if (work < static_cast<double>(opts_.parallel_threshold)) return nullptr;
  // Resolve the pool lazily: a walk whose frontier never clears the
  // threshold must not spawn the process-wide pool as a side effect.
  par::ThreadPool* pool =
      opts_.pool != nullptr ? opts_.pool : &par::global_pool();
  if (pool->size() <= 1 || pool->on_worker_thread()) return nullptr;
  return pool;
}

void FrontierEngine::clear_words(std::vector<std::uint64_t>& bits,
                                 par::ThreadPool* pool) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("frontier.clear");
  obs::ScopedTimer timed(timer);
#endif
  const std::size_t words = num_words();
  // Parallel clearing only pays once the bitmap outgrows the last-level
  // cache scale (n >= ~2^21); below that the pool dispatch costs more than
  // the memset it replaces.
  constexpr std::size_t kMinParallelClearWords = std::size_t{1} << 15;
  if (pool == nullptr || !opts_.parallel_dense_ops ||
      words < kMinParallelClearWords || bits.size() != words) {
    bits.assign(words, 0);
    return;
  }
  constexpr std::size_t kClearChunkWords = std::size_t{1} << 13;  // 64 KiB
  const std::size_t n_chunks = (words + kClearChunkWords - 1) / kClearChunkWords;
  std::uint64_t* data = bits.data();
  par::parallel_for_chunks(
      *pool, n_chunks, pool->size(), [&](std::size_t, std::size_t c) {
        const std::size_t lo = c * kClearChunkWords;
        const std::size_t hi = std::min(words, lo + kClearChunkWords);
        std::fill(data + lo, data + hi, std::uint64_t{0});
      });
}

void FrontierEngine::materialize_bits(std::span<const std::uint64_t> words,
                                      std::size_t count,
                                      std::vector<Vertex>& out) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("frontier.materialize");
  obs::ScopedTimer timed(timer);
#endif
  out.clear();
  const std::size_t n_words = words.size();
  // The decode is O(n/64 + count): the bitmap scan term does not shrink
  // with a collapsing frontier, so the pool gate uses whichever of the
  // two is larger (still through pick_pool, so a forced-serial threshold
  // keeps the decode serial too).
  constexpr std::size_t kMinParallelDecodeWords = std::size_t{1} << 12;
  par::ThreadPool* pool = opts_.parallel_dense_ops
                              ? pick_pool(std::max(count, n_words))
                              : nullptr;
  // Fault site `frontier.materialize_alloc` (GRACEFUL): the parallel
  // decode's offsets scratch cannot be allocated — degrade to the serial
  // single-pass decode, which needs no side allocation and produces the
  // same ascending vertex list by construction.
  if (pool != nullptr && util::fault::should_fail("frontier.materialize_alloc")) {
    pool = nullptr;
  }
  if (pool == nullptr || n_words < kMinParallelDecodeWords) {
    out.reserve(count);
    detail::decode_bits(words, 0, n_words, out);
    return;
  }
  constexpr std::size_t kDecodeChunkWords = std::size_t{1} << 11;
  const std::size_t n_chunks =
      (n_words + kDecodeChunkWords - 1) / kDecodeChunkWords;
  // Pass 1: per-range popcounts -> exclusive prefix offsets. Each range
  // then decodes straight into its final slot, so the ascending order is
  // positional, not a merge artifact.
  std::vector<std::size_t> offsets(n_chunks + 1, 0);
  par::parallel_for_chunks(
      *pool, n_chunks, pool->size(), [&](std::size_t, std::size_t c) {
        const std::size_t lo = c * kDecodeChunkWords;
        const std::size_t hi = std::min(n_words, lo + kDecodeChunkWords);
        std::size_t bits = 0;
        for (std::size_t w = lo; w < hi; ++w) {
          bits += static_cast<std::size_t>(std::popcount(words[w]));
        }
        offsets[c + 1] = bits;
      });
  for (std::size_t c = 0; c < n_chunks; ++c) offsets[c + 1] += offsets[c];
  assert(offsets[n_chunks] == count);
  out.resize(offsets[n_chunks]);
  Vertex* base = out.data();
  par::parallel_for_chunks(
      *pool, n_chunks, pool->size(), [&](std::size_t, std::size_t c) {
        const std::size_t lo = c * kDecodeChunkWords;
        const std::size_t hi = std::min(n_words, lo + kDecodeChunkWords);
        Vertex* dst = base + offsets[c];
        for (std::size_t w = lo; w < hi; ++w) {
          std::uint64_t word = words[w];
          while (word != 0) {
            *dst++ = static_cast<Vertex>(
                (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
            word &= word - 1;
          }
        }
      });
}

void FrontierEngine::ensure_workers(std::size_t workers) {
  if (worker_lists_.size() < workers) {
    worker_lists_.resize(workers);
    worker_tallies_.resize(workers);
  }
}

FrontierEngine::Chunk FrontierEngine::chunk_at(const FrontierView& in,
                                               std::size_t span,
                                               std::size_t c) const {
  const std::uint64_t lo = static_cast<std::uint64_t>(c) * span;
  const std::uint64_t hi =
      std::min<std::uint64_t>(lo + span, g_->num_vertices());
  if (!in.dense()) {
    const auto list = in.list();
    const auto begin = std::lower_bound(list.begin(), list.end(),
                                        static_cast<Vertex>(lo));
    const auto end =
        std::lower_bound(begin, list.end(), static_cast<Vertex>(hi));
    return {list.subspan(static_cast<std::size_t>(begin - list.begin()),
                         static_cast<std::size_t>(end - begin)),
            {},
            0};
  }
  // Span is a multiple of 64, so chunk boundaries are word boundaries.
  const auto words = in.words();
  const std::size_t w0 = static_cast<std::size_t>(lo >> 6);
  const std::size_t w1 = std::min<std::size_t>(
      static_cast<std::size_t>((hi + 63) >> 6), words.size());
  return {{}, words.subspan(w0, w1 - w0), w0};
}

void FrontierEngine::occupancy_stats(const FrontierView& in, std::size_t span,
                                     std::uint64_t& chunks,
                                     std::uint64_t& max_occ) const {
  chunks = 0;
  max_occ = 0;
  for_each_chunk(in, span, [&](std::size_t, const Chunk& chunk) {
    ++chunks;
    max_occ = std::max<std::uint64_t>(max_occ, chunk.size());
  });
}

void FrontierEngine::emit_trace(const FrontierView& in, std::size_t produced,
                                bool dense, const obs::Stopwatch& watch) {
  if (trace_id_ == 0) trace_id_ = obs::next_trace_id();
  obs::RoundTrace t;
  t.trace_id = trace_id_;
  t.round = sparse_rounds_ + dense_rounds_;  // 1-based: already committed
  t.frontier = in.size();
  t.produced = produced;
  t.mode = dense ? "dense" : "sparse";
  t.path = last_parallel_ ? "parallel" : "serial";
  t.switch_reason = last_switch_reason_;
  occupancy_stats(in, chunk_span(), t.chunks, t.max_chunk);
  t.mean_chunk = t.chunks > 0 ? static_cast<double>(in.size()) /
                                    static_cast<double>(t.chunks)
                              : 0.0;
  t.rng_blocks = last_rng_blocks_;
  t.seconds = watch.seconds();
  obs::trace_round(t);
}

void FrontierEngine::audit_graph_once() {
  if (audit_graph_checked_) return;
  audit_graph_checked_ = true;
  std::string why;
  if (!g_->validate(&why)) audit::report_violation("graph-csr", why);
}

void FrontierEngine::audit_round(const std::vector<Vertex>* list,
                                 std::span<const std::uint64_t> bits,
                                 std::size_t count, bool dense,
                                 bool stamped) {
  if (!audit::sample_round(audit_seq_++)) return;
  audit_graph_once();
  const std::size_t n = g_->num_vertices();
  std::string why;
  if (list != nullptr && !audit::check_canonical_list(*list, n, &why)) {
    audit::report_violation("canonical-order", why);
  }
  // A materialized list came from the bitmap: the two must agree on the
  // count, and the bitmap itself must be healthy.
  if (dense &&
      !audit::check_bitmap(bits, list != nullptr ? list->size() : count, n,
                           &why)) {
    audit::report_violation("bitmap", why);
  }
  if (stamped && !audit::check_stamps(*list, stamp_, epoch_, &why)) {
    audit::report_violation("epoch-stamps", why);
  }
}

void FrontierEngine::dedupe(std::span<const Vertex> in,
                            std::vector<Vertex>& out) {
  out.clear();
  if (in.empty()) return;
  const std::uint32_t epoch = advance_epoch();
  for (const Vertex v : in) {
    if (stamp_[v] != epoch) {
      stamp_[v] = epoch;
      out.push_back(v);
    }
  }
}

void FrontierEngine::dedupe(std::span<const Vertex> in, Frontier& out) {
  out.clear();
  dedupe(in, out.list_);
  // Canonical ascending order — the invariant every expand input relies on.
  // Reset paths mostly pass ascending input already; skip the sort then.
  if (!std::is_sorted(out.list_.begin(), out.list_.end())) {
    std::sort(out.list_.begin(), out.list_.end());
  }
  out.count_ = out.list_.size();
}

}  // namespace cobra::core
