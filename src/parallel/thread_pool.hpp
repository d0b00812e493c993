#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// A fixed-size worker pool for CPU-bound simulation work. Design goals,
/// in order: correctness under exceptions, deterministic shutdown, and low
/// coordination overhead for coarse-grained tasks (a "task" here is tens of
/// milliseconds of simulation, so a mutex-guarded deque is entirely
/// adequate; no lock-free heroics are warranted).
///
/// The pool is the single shared parallel resource in the library.
/// par::parallel_for_chunks (parallel_for.hpp) is its one fork/join
/// client: the Monte-Carlo driver, the frontier engine and the graph
/// generators all reach the pool through it.

namespace cobra::par {

class ThreadPool {
 public:
  /// Spins up `num_threads` workers (0 means hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers; pending tasks are drained before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Thread-safe. Tasks may themselves submit tasks, but
  /// must not block waiting on tasks that have not yet been scheduled
  /// (classic pool deadlock); use wait_idle from the *submitting* thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. Callable only from
  /// outside the pool's worker threads.
  void wait_idle();

  /// True iff the calling thread is one of THIS pool's workers. Lets nested
  /// parallel constructs (e.g. a frontier step inside a Monte-Carlo trial)
  /// detect that they are already on the pool and fall back to serial
  /// execution instead of deadlocking in wait_idle.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool stopping_ = false;
};

}  // namespace cobra::par
