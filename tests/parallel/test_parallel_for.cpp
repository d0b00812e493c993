#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cobra::par {
namespace {

TEST(ParallelForChunks, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(997);  // prime: no even split
  parallel_for_chunks(pool, visits.size(), pool.size(),
                      [&](std::size_t, std::size_t c) { visits[c].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForChunks, ZeroChunksIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_chunks(pool, 0, pool.size(),
                      [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForChunks, WorkerIdsStayBelowTheEffectiveWorkerCount) {
  ThreadPool pool(4);
  struct Case {
    std::size_t n_chunks;
    std::size_t workers;
  };
  for (const Case k : {Case{1000, 3}, Case{1000, 16}, Case{2, 8}, Case{5, 1}}) {
    const std::size_t bound = std::min({k.workers, pool.size(), k.n_chunks});
    std::mutex mutex;
    std::multiset<std::size_t> ids;
    parallel_for_chunks(pool, k.n_chunks, k.workers,
                        [&](std::size_t w, std::size_t) {
                          const std::lock_guard lock(mutex);
                          ids.insert(w);
                        });
    ASSERT_EQ(ids.size(), k.n_chunks);
    EXPECT_LT(*ids.rbegin(), bound)
        << k.n_chunks << " chunks, " << k.workers << " workers";
  }
}

TEST(ParallelForChunks, RethrowsTheFirstExceptionOnTheCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_chunks(pool, 100, pool.size(),
                                   [](std::size_t, std::size_t c) {
                                     if (c == 37) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> ok{0};
  parallel_for_chunks(pool, 10, pool.size(),
                      [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelForChunks, OneThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_chunks(pool, 100, 8, [&](std::size_t w, std::size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(w, 0u);
    order.push_back(c);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t c = 0; c < order.size(); ++c) EXPECT_EQ(order[c], c);
}

// A fork/join issued from inside one of the pool's own tasks (a generator
// or frontier round inside a Monte-Carlo trial) must run in-line: waiting
// for the pool from a worker would wait for the caller's own task and
// hang. The ctest entry carries a TIMEOUT so a regression fails instead.
TEST(ParallelForChunks, CallFromPoolTaskCompletesInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> calls{0};
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::thread::id task_thread;
  parallel_for_chunks(pool, 2, 2, [&](std::size_t, std::size_t outer) {
    if (outer != 0) return;
    task_thread = std::this_thread::get_id();
    parallel_for_chunks(pool, 64, pool.size(), [&](std::size_t w, std::size_t) {
      EXPECT_EQ(w, 0u);
      const std::lock_guard lock(mutex);
      threads.insert(std::this_thread::get_id());
      calls.fetch_add(1);
    });
  });
  EXPECT_EQ(calls.load(), 64u);
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), task_thread);
}

}  // namespace
}  // namespace cobra::par
