#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>

#include "parallel/thread_pool.hpp"

/// \file parallel_for.hpp
/// The library's one fork/join primitive, layered on ThreadPool:
/// parallel_for_chunks hands chunk ids out dynamically (an atomic claim
/// counter) to a fixed set of workers with stable ids. Dynamic claiming
/// keeps workers busy when chunk cost varies wildly (cover-time trials,
/// whose length is itself the random variable under study); the stable
/// worker id lets callers keep reusable scratch (claim buffers, tallies)
/// across the chunks one worker claims.
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

/// Apply body(worker, chunk) for chunk in [0, n_chunks), claimed
/// dynamically by `workers` tasks with STABLE worker ids in [0, workers)
/// (clamped to pool.size() and n_chunks). The worker id lets callers keep
/// reusable per-worker scratch without allocation inside the loop, while
/// the chunk id stays the deterministic unit of work (callers key
/// per-chunk RNG streams off it, so results never depend on which worker
/// ran which chunk). The chunks run in-line on the calling thread, as
/// worker 0, when there is at most one effective worker or when the caller
/// is itself one of `pool`'s workers (a nested fork/join would otherwise
/// deadlock in wait_idle, which waits for the caller's own task too).
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n_chunks,
                         std::size_t workers, Body&& body) {
  if (n_chunks == 0) return;
  workers = std::min({workers, pool.size(), n_chunks});
  if (workers <= 1 || pool.on_worker_thread()) {
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
