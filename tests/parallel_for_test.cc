#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bcdb {
namespace {

/// Runs ParallelFor(n, width) and returns how often each index ran.
std::vector<int> RunCounts(std::size_t n, std::size_t width) {
  std::vector<std::atomic<int>> runs(n);
  ParallelFor(n, width, [&](std::size_t i) { runs[i].fetch_add(1); });
  std::vector<int> counts;
  for (const std::atomic<int>& count : runs) counts.push_back(count.load());
  return counts;
}

/// Whether all `n` tasks of ParallelFor(n, width) run at once: each waits
/// (up to a generous timeout) until every task has started.
bool AllTasksMeet(std::size_t n, std::size_t width) {
  std::atomic<std::size_t> arrived{0};
  std::atomic<bool> met{true};
  ParallelFor(n, width, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < n) {
      if (std::chrono::steady_clock::now() > give_up) {
        met.store(false);
        return;
      }
      std::this_thread::yield();
    }
  });
  return met.load();
}

/// Number of distinct threads that ran ParallelFor(n, width)'s tasks.
std::size_t DistinctThreads(std::size_t n, std::size_t width) {
  std::vector<std::thread::id> ids(n);
  ParallelFor(n, width,
              [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  return std::set<std::thread::id>(ids.begin(), ids.end()).size();
}

TEST(ParallelForTest, ManyTasksAllRunExactlyOnce) {
  EXPECT_EQ(RunCounts(2000, 4), std::vector<int>(2000, 1));
}

TEST(ParallelForTest, RunsEveryIndexOnceAtAnyWidth) {
  for (std::size_t width : {1, 2, 3, 4, 8}) {
    EXPECT_EQ(RunCounts(40, width), std::vector<int>(40, 1))
        << "width " << width;
  }
}

TEST(ParallelForTest, ZeroTasksCallNothing) {
  for (std::size_t width : {0, 1, 4}) {
    ParallelFor(0, width, [](std::size_t) { FAIL() << "no task expected"; });
  }
}

TEST(ParallelForTest, WidthAboveTaskCountStartsOneThreadPerTask) {
  EXPECT_EQ(RunCounts(3, 16), std::vector<int>(3, 1));
  EXPECT_TRUE(AllTasksMeet(3, 16));
}

TEST(ParallelForTest, EffectiveThreadsConvention) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(EffectiveThreads(0), hw);
  EXPECT_EQ(EffectiveThreads(1), 1u);
  EXPECT_EQ(EffectiveThreads(7), 7u);
}

TEST(ParallelForTest, WidthZeroMeansHardwareConcurrency) {
  const std::size_t hw = EffectiveThreads(0);
  EXPECT_TRUE(AllTasksMeet(hw, 0));
  EXPECT_LE(DistinctThreads(4 * hw, 0), hw);
}

TEST(ParallelForTest, BlockedTaskDoesNotStallOthers) {
  // Task 0 blocks until every other task has finished (or a generous
  // timeout passes): the other thread must claim them all instead of
  // waiting behind task 0.
  constexpr std::size_t kTasks = 200;
  std::atomic<std::size_t> others_done{0};
  std::atomic<bool> released{false};
  ParallelFor(kTasks, 2, [&](std::size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < give_up) {
      if (others_done.load() == kTasks - 1) {
        released.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(released.load());
  EXPECT_EQ(others_done.load(), kTasks - 1);
}

TEST(ParallelForTest, JoinsAllBeforeRethrowingLowestIndexError) {
  // Every task finishes before the error surfaces (the tasks reference this
  // frame), and the lowest-index failure is the one rethrown even when a
  // higher index throws first.
  std::atomic<int> finished{0};
  try {
    ParallelFor(8, 2, [&](std::size_t i) {
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(20));
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
