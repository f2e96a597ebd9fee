#ifndef BCDB_UTIL_THREAD_POOL_H_
#define BCDB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bcdb {

/// Cooperative cancellation shared between the submitter and in-flight pool
/// tasks: `CancelRanksAbove(r)` cancels observers whose rank is *greater*
/// than `r`, leaving lower ranks running. This is the determinism rule of
/// the parallel DCSat component search: when component `r` finds a
/// violating world, components with larger indices become irrelevant (the
/// lowest violating index wins), but smaller indices must run to completion
/// because the serial algorithm would have reported one of *them* first.
///
/// Tasks poll `ShouldStop(rank)` at convenient preemption points; the token
/// never interrupts anything by force.
class CancellationToken {
 public:
  /// Lowers the rank limit to `rank` (monotone: limits only ever decrease).
  void CancelRanksAbove(std::size_t rank) {
    std::size_t current = rank_limit_.load(std::memory_order_relaxed);
    while (rank < current && !rank_limit_.compare_exchange_weak(
                                 current, rank, std::memory_order_relaxed)) {
    }
  }

  bool ShouldStop(std::size_t rank = 0) const {
    return rank > rank_limit_.load(std::memory_order_relaxed);
  }

  /// Lowest rank passed to CancelRanksAbove so far (SIZE_MAX if none).
  std::size_t rank_limit() const {
    return rank_limit_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> rank_limit_ BCDB_LOCK_FREE(
      "monotone-decreasing watermark maintained by a relaxed CAS loop;"
      " readers tolerate staleness (a late cancel only wastes work)") {
      SIZE_MAX};
};

/// Fixed-size worker pool with per-worker task deques and work stealing.
///
/// Submitted tasks are distributed round-robin across the worker deques; an
/// idle worker first drains its own deque front-to-back, then steals from
/// the *back* of a sibling's deque, so large task batches balance across
/// workers even when component sizes are skewed (the DCSat case: one giant
/// connected component next to hundreds of singletons).
///
/// Tasks must not block on other tasks of the same pool (no nested Submit +
/// wait), which the DCSat/monitor callers respect by running nested checks
/// serially. Destruction drains every queued task, then joins the workers.
class ThreadPool {
 public:
  /// `num_threads` == 0 is treated as 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Enqueues `task`; the future resolves when it finishes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs `task(0)` .. `task(n - 1)` as `n` pool tasks and waits for all of
  /// them. Every task is joined before an error propagates — tasks usually
  /// reference the caller's stack, so rethrowing while siblings still run
  /// would be use-after-scope — and then the first task's exception (in
  /// index order) is rethrown.
  void RunAndJoin(std::size_t n, const std::function<void(std::size_t)>& task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t HardwareConcurrency();

  /// Resolves the DcSatOptions::num_threads convention: 0 → hardware
  /// concurrency, anything else → itself.
  static std::size_t EffectiveThreads(std::size_t requested);

 private:
  /// One worker's deque. All WorkerQueue mutexes share kThreadPoolQueue:
  /// own-queue pop and victim steal each lock exactly one queue at a time,
  /// never two (the hierarchy checker would reject a same-rank nesting).
  struct WorkerQueue {
    Mutex mutex{LockRank::kThreadPoolQueue};
    std::deque<std::packaged_task<void()>> tasks BCDB_GUARDED_BY(mutex);
  };

  void WorkerLoop(std::size_t worker_index);
  bool TryPop(std::size_t worker_index, std::packaged_task<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  Mutex wake_mutex_{LockRank::kThreadPoolWake};
  CondVar wake_cv_;
  std::atomic<std::ptrdiff_t> queued_ BCDB_LOCK_FREE(
      "incremented under wake_mutex_ so sleeping workers never miss a"
      " submission; decremented lock-free after a successful pop (a"
      " transiently negative value only causes a spurious wake)") {0};
  std::atomic<bool> stop_ BCDB_LOCK_FREE(
      "set once under wake_mutex_ at shutdown (pairs with the cv wait);"
      " read relaxed in the worker loop's fast path") {false};
  std::atomic<std::size_t> next_queue_ BCDB_LOCK_FREE(
      "round-robin submission cursor; relaxed fetch_add — distribution"
      " quality, not correctness, is all that rides on it") {0};
};

}  // namespace bcdb

#endif  // BCDB_UTIL_THREAD_POOL_H_
