#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace bcdb {

std::size_t EffectiveThreads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ParallelFor(std::size_t n, std::size_t width,
                 const std::function<void(std::size_t)>& task) {
  const std::size_t threads = std::min(EffectiveThreads(width), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::atomic<std::size_t> next BCDB_LOCK_FREE(
      "hands out task indices; the joins publish the tasks' writes") {0};
  std::vector<std::exception_ptr> errors(n);
  auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // A jthread joins when destroyed, so every exit from here — a failed
  // thread start included — joins the helpers that did start; they drain
  // every index, so they finish.
  std::vector<std::jthread> helpers;
  while (helpers.size() + 1 < threads) helpers.emplace_back(drain);
  drain();
  helpers.clear();  // Joins.
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace bcdb
