#include "util/mutex.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace bcdb {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kMonitor:
      return "kMonitor";
    case LockRank::kDurableStore:
      return "kDurableStore";
    case LockRank::kMutationLog:
      return "kMutationLog";
    case LockRank::kDecompositionMemo:
      return "kDecompositionMemo";
    case LockRank::kValuePool:
      return "kValuePool";
  }
  return "<unknown rank>";
}

namespace lock_debug {
namespace {

#if defined(BCDB_DEBUG_LOCKS)
struct HeldLock {
  const void* mutex;
  LockRank rank;
};

// The calling thread's currently-held bcdb locks, in acquisition order.
// Deliberately a trivially-destructible fixed-size array, NOT a vector: a
// heap-backed thread_local registers a TLS destructor, and on glibc the
// main thread's TLS destructors run *before* atexit handlers — so any
// function-local static that locks a bcdb Mutex in its destructor during
// exit teardown would push onto a freed buffer. POD storage also
// never allocates under a lock acquisition path, which would perturb the
// very interleavings tsan is hunting.
constexpr std::size_t kMaxHeldLocks = 16;
struct HeldStackStorage {
  HeldLock locks[kMaxHeldLocks];
  std::size_t size = 0;
};
static_assert(std::is_trivially_destructible_v<HeldStackStorage>,
              "held stack must not register a TLS destructor (see above)");

HeldStackStorage& HeldStack() {
  thread_local HeldStackStorage stack;
  return stack;
}

void DumpHeldStack() {
  const auto& stack = HeldStack();
  std::fprintf(stderr, "  held locks (oldest first):\n");
  for (std::size_t i = 0; i < stack.size; ++i) {
    const HeldLock& held = stack.locks[i];
    std::fprintf(stderr, "    %p rank %d (%s)\n", held.mutex,
                 static_cast<int>(held.rank), LockRankName(held.rank));
  }
}
#endif  // BCDB_DEBUG_LOCKS

}  // namespace

[[noreturn]] void Die(const char* message) {
  std::fprintf(stderr, "bcdb lock discipline violation: %s\n", message);
#if defined(BCDB_DEBUG_LOCKS)
  DumpHeldStack();
#endif
  std::fprintf(stderr, "  see DESIGN.md section 16 for the lock hierarchy\n");
  std::abort();
}

#if defined(BCDB_DEBUG_LOCKS)

void PreAcquire(const void* mutex, LockRank rank) {
  const auto& stack = HeldStack();
  for (std::size_t i = 0; i < stack.size; ++i) {
    const HeldLock& held = stack.locks[i];
    if (held.mutex == mutex) {
      std::fprintf(stderr,
                   "bcdb lock discipline violation: recursive acquisition of "
                   "%p rank %d (%s)\n",
                   mutex, static_cast<int>(rank), LockRankName(rank));
      DumpHeldStack();
      std::fprintf(stderr,
                   "  see DESIGN.md section 16 for the lock hierarchy\n");
      std::abort();
    }
    if (held.rank >= rank) {
      std::fprintf(stderr,
                   "bcdb lock discipline violation: acquiring %p rank %d (%s) "
                   "while holding %p rank %d (%s); ranks must strictly "
                   "increase along any acquisition chain\n",
                   mutex, static_cast<int>(rank), LockRankName(rank),
                   held.mutex, static_cast<int>(held.rank),
                   LockRankName(held.rank));
      DumpHeldStack();
      std::fprintf(stderr,
                   "  see DESIGN.md section 16 for the lock hierarchy\n");
      std::abort();
    }
  }
}

void OnAcquire(const void* mutex, LockRank rank) {
  auto& stack = HeldStack();
  if (stack.size >= kMaxHeldLocks) {
    Die("held-lock stack overflow: more than 16 locks held by one thread");
  }
  stack.locks[stack.size++] = HeldLock{mutex, rank};
}

void OnRelease(const void* mutex) {
  auto& stack = HeldStack();
  for (std::size_t i = stack.size; i > 0; --i) {
    if (stack.locks[i - 1].mutex == mutex) {
      for (std::size_t j = i - 1; j + 1 < stack.size; ++j) {
        stack.locks[j] = stack.locks[j + 1];
      }
      --stack.size;
      return;
    }
  }
  std::fprintf(stderr,
               "bcdb lock discipline violation: releasing %p which this "
               "thread does not hold\n",
               mutex);
  DumpHeldStack();
  std::fprintf(stderr, "  see DESIGN.md section 16 for the lock hierarchy\n");
  std::abort();
}

bool HeldByCurrentThread(const void* mutex) {
  const auto& stack = HeldStack();
  for (std::size_t i = 0; i < stack.size; ++i) {
    if (stack.locks[i].mutex == mutex) return true;
  }
  return false;
}

std::size_t NumHeldByCurrentThread() { return HeldStack().size; }

#endif  // BCDB_DEBUG_LOCKS

}  // namespace lock_debug
}  // namespace bcdb
