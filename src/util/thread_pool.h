#ifndef BCDB_UTIL_THREAD_POOL_H_
#define BCDB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bcdb {

/// Fixed-size worker pool with per-worker task deques and work stealing.
///
/// Submitted tasks are distributed round-robin across the worker deques; an
/// idle worker first drains its own deque front-to-back, then steals from
/// the *back* of a sibling's deque, so large task batches balance across
/// workers even when task costs are skewed (the ConstraintMonitor::Poll
/// case: one member's search can cost thousands of times another's).
///
/// Tasks must not block on other tasks of the same pool (no nested Submit +
/// wait); the monitor's tasks run each member's check serially.
/// Destruction drains every queued task, then joins the workers.
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
