#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bcdb {
namespace {

TEST(ThreadPoolTest, ZeroThreadsBecomesOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndFutureResolves) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  std::future<void> done = pool.Submit([&] { value.store(42); });
  done.get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRunExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::vector<std::atomic<int>> counts(kTasks);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&counts, i] { counts[i].fetch_add(1); }));
  }
  for (std::future<void>& f : futures) f.get();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, StealingBalancesSkewedBatches) {
  // One long task pins a worker; the flood of short tasks round-robined onto
  // its deque must still complete because siblings steal them.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<std::size_t> short_done{0};
  std::future<void> long_task = pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  constexpr std::size_t kShort = 200;
  std::vector<std::future<void>> futures;
  futures.reserve(kShort);
  for (std::size_t i = 0; i < kShort; ++i) {
    futures.push_back(pool.Submit([&] { short_done.fetch_add(1); }));
  }
  // On a single-core host the pinned worker still shares the CPU, but the
  // short tasks must not *deadlock* behind the long one.
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(short_done.load(), kShort);
  release.store(true);
  long_task.get();
}

TEST(ThreadPoolTest, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  std::future<void> f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing task.
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<std::size_t> done{0};
  constexpr std::size_t kTasks = 100;
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
    }
  }  // Destructor joins after draining.
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, EffectiveThreadsConvention) {
  EXPECT_EQ(ThreadPool::EffectiveThreads(0),
            ThreadPool::HardwareConcurrency());
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::EffectiveThreads(7), 7u);
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, RunAndJoinRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(40);
  pool.RunAndJoin(runs.size(), [&](std::size_t i) { runs[i].fetch_add(1); });
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
  pool.RunAndJoin(0, [](std::size_t) { FAIL() << "no task expected"; });
}

TEST(ThreadPoolTest, RunAndJoinJoinsAllBeforeRethrowingFirstError) {
  // Every task finishes before the error surfaces (the tasks reference this
  // frame), and the lowest-index failure is the one rethrown.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  try {
    pool.RunAndJoin(8, [&](std::size_t i) {
      finished.fetch_add(1);
      if (i == 2 || i == 5) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "2");
  }
  EXPECT_EQ(finished.load(), 8);
}

}  // namespace
}  // namespace bcdb
