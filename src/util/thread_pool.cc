#include "util/thread_pool.h"

#include <exception>

#include "util/mutex.h"

namespace bcdb {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  const std::size_t index =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    MutexLock lock(queues_[index]->mutex);
    queues_[index]->tasks.push_back(std::move(packaged));
  }
  {
    MutexLock lock(wake_mutex_);
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_cv_.NotifyOne();
  return future;
}

void ThreadPool::RunAndJoin(std::size_t n,
                            const std::function<void(std::size_t)>& task) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(Submit([&task, i] { task(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

bool ThreadPool::TryPop(std::size_t worker_index,
                        std::packaged_task<void()>& task) {
  {
    WorkerQueue& own = *queues_[worker_index];
    MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim =
        *queues_[(worker_index + offset) % queues_.size()];
    MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  for (;;) {
    std::packaged_task<void()> task;
    if (TryPop(worker_index, task)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      task();
      continue;
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    {
      MutexLock lock(wake_mutex_);
      wake_cv_.Wait(wake_mutex_, [this] {
        return stop_.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_relaxed) > 0;
      });
      if (stop_.load(std::memory_order_relaxed) &&
          queued_.load(std::memory_order_relaxed) <= 0) {
        return;
      }
    }
  }
}

std::size_t ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ThreadPool::EffectiveThreads(std::size_t requested) {
  return requested == 0 ? HardwareConcurrency() : requested;
}

}  // namespace bcdb
