#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "util/fault.hpp"

namespace cobra::par {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, TasksActuallyRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      in_flight.fetch_sub(1);
    });
  }
  pool.wait_idle();
  EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::set<std::thread::id> ids;
  std::mutex m;
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      const std::lock_guard lock(m);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.wait_idle();
  EXPECT_FALSE(ids.contains(std::this_thread::get_id()));
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No wait_idle: destruction must drain.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, SpawnFaultShrinksThePoolButKeepsOneWorker) {
  // pool.thread_spawn (GRACEFUL): a worker start fails, the pool comes up
  // smaller. Worker 0 is exempt from the site, so even every-spawn-fails
  // leaves one worker and submitted tasks still complete.
  util::fault::disarm_all();
  util::fault::arm("pool.thread_spawn");
  ThreadPool pool(4);
  const std::uint64_t fired = util::fault::fired("pool.thread_spawn");
  util::fault::disarm_all();
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(fired, 3u);  // workers 1..3 each lost to the fault
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SpawnFaultLimitLosesOnlySomeWorkers) {
  util::fault::disarm_all();
  // at most 2 spawn failures
  util::fault::arm_spec(
      util::fault::FaultPlan::parse("pool.thread_spawn#2").specs[0]);
  ThreadPool pool(6);
  util::fault::disarm_all();
  EXPECT_EQ(pool.size(), 4u);
}

}  // namespace
}  // namespace cobra::par
