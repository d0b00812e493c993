#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>

#include "parallel/thread_pool.hpp"

/// \file parallel_for.hpp
/// Chunked parallel loops over index ranges, layered on ThreadPool.
/// Three schedules are provided:
///   * parallel_for        — static chunking; best when iterations are uniform
///   * parallel_for_dynamic — atomic work-stealing counter; best when
///     iteration cost varies wildly (e.g. cover-time trials whose length is
///     itself the random variable under study).
///   * parallel_for_chunks — dynamic claiming with stable worker ids; best
///     when workers carry reusable scratch (claim buffers, tallies) across
///     the chunks they claim — the FrontierEngine's range-chunk schedule.
///
/// Exceptions thrown by the body are captured and rethrown (first one wins)
/// on the calling thread, so callers see normal C++ error flow.

namespace cobra::par {

namespace detail {

/// Captures the first exception thrown by any worker.
class ExceptionCollector {
 public:
  void capture() noexcept {
    if (!armed_.exchange(true, std::memory_order_acq_rel)) {
      exception_ = std::current_exception();
    }
  }

  void rethrow_if_any() {
    if (armed_.load(std::memory_order_acquire) && exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::atomic<bool> armed_{false};
  std::exception_ptr exception_;
};

}  // namespace detail

/// Apply body(i) for i in [begin, end) using static chunking over `pool`.
/// body must be invocable as void(std::size_t) and thread-safe across
/// distinct indices.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Body&& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, pool.size() * 4);  // mild oversubscription
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  detail::ExceptionCollector errors;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    pool.submit([lo, hi, &body, &errors] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_any();
}

/// Apply body(i) for i in [begin, end) with dynamic (self-scheduling)
/// distribution: each worker repeatedly claims the next index from an atomic
/// counter. Use when per-iteration cost is highly variable.
template <typename Body>
void parallel_for_dynamic(ThreadPool& pool, std::size_t begin, std::size_t end,
                          Body&& body) {
  if (begin >= end) return;
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  detail::ExceptionCollector errors;
  const std::size_t workers = std::min(pool.size(), end - begin);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([next, end, &body, &errors] {
      try {
        for (;;) {
          const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
          if (i >= end) return;
          body(i);
        }
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_any();
}

/// Apply body(worker, chunk) for chunk in [0, n_chunks), claimed
/// dynamically by `workers` tasks with STABLE worker ids in [0, workers)
/// (clamped to pool.size() and n_chunks). The worker id lets callers keep
/// reusable per-worker scratch without allocation inside the loop, while
/// the chunk id stays the deterministic unit of work (callers key
/// per-chunk RNG streams off it, so results never depend on which worker
/// ran which chunk). With 0 or 1 effective workers the chunks run in-line
/// on the calling thread.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n_chunks,
                         std::size_t workers, Body&& body) {
  if (n_chunks == 0) return;
  workers = std::min({workers, pool.size(), n_chunks});
  if (workers <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) body(std::size_t{0}, c);
    return;
  }
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  detail::ExceptionCollector errors;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([w, next, n_chunks, &body, &errors] {
      try {
        for (;;) {
          const std::size_t c = next->fetch_add(1, std::memory_order_relaxed);
          if (c >= n_chunks) return;
          body(w, c);
        }
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_any();
}

}  // namespace cobra::par
