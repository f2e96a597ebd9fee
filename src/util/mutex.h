#ifndef BCDB_UTIL_MUTEX_H_
#define BCDB_UTIL_MUTEX_H_

#include <cstddef>
#include <mutex>

#include "util/thread_annotations.h"

namespace bcdb {

/// The global lock hierarchy (DESIGN.md §16). Every bcdb::Mutex is
/// constructed with its rank, and a thread may only acquire a lock whose
/// rank is *strictly greater* than every rank it already holds — so any
/// cycle of waiting threads would require a rank descent somewhere, which
/// the debug-build checker (BCDB_DEBUG_LOCKS) aborts on at the first
/// wrong-order acquisition, on any schedule, not just the unlucky
/// interleaving that actually deadlocks.
///
/// Ranks are spaced by 10 so a future lock can slot between two layers
/// without renumbering. Two locks of the same rank must never be held
/// together: their relative order is undefined, so two threads could take
/// them in opposite orders.
enum class LockRank : int {
  /// ConstraintMonitor's entry-table lock — the outermost lock of a poll:
  /// held across steady-state refresh (kMutationLog), query compilation
  /// (kValuePool) and the poll's fan-out, whose threads take only the leaf
  /// locks (kDecompositionMemo, kValuePool) on their own stacks.
  kMonitor = 20,
  /// DurableStore's WAL/stats lock. Below kMutationLog: a checkpoint
  /// holding it reads the database's mutation-log clock.
  kDurableStore = 30,
  /// MutationLog's retention window (append/read cursors).
  kMutationLog = 40,
  /// DcSatEngine's decomposition memo: a lookup or an insert of one
  /// finished component partition, calling out to nothing.
  kDecompositionMemo = 55,
  /// ValuePool's intern table. Highest: interning happens at the leaves of
  /// every path (query compilation, tuple construction) under any caller
  /// lock, and itself calls out to nothing.
  kValuePool = 80,
};

const char* LockRankName(LockRank rank);

namespace lock_debug {

#if defined(BCDB_DEBUG_LOCKS)
/// Hierarchy check, run BEFORE the underlying lock call so a violation
/// aborts with a diagnostic instead of deadlocking: aborts if the thread
/// already holds `mutex` (recursive acquisition) or any lock of rank >=
/// `rank`.
void PreAcquire(const void* mutex, LockRank rank);
/// Pushes `mutex` onto the calling thread's held-lock stack (after the
/// underlying lock call succeeded).
void OnAcquire(const void* mutex, LockRank rank);
/// Removes `mutex` from the calling thread's held-lock stack (aborts if it
/// was not held).
void OnRelease(const void* mutex);
/// Whether the calling thread's held-lock stack contains `mutex`.
bool HeldByCurrentThread(const void* mutex);
/// Number of locks the calling thread currently holds (test hook).
std::size_t NumHeldByCurrentThread();
#else
inline void PreAcquire(const void*, LockRank) {}
inline void OnAcquire(const void*, LockRank) {}
inline void OnRelease(const void*) {}
inline bool HeldByCurrentThread(const void*) { return true; }
inline std::size_t NumHeldByCurrentThread() { return 0; }
#endif

/// Abort with `message` (and the held-lock stack, in debug builds) — used
/// by AssertHeld and the hierarchy checker.
[[noreturn]] void Die(const char* message);

}  // namespace lock_debug

/// Annotated exclusive mutex: the only mutex type allowed in bcdb code
/// (tools/bcdb_locklint rejects raw std::mutex members). Construction
/// requires the lock's LockRank — there is no default, so every mutex
/// declares its place in the global hierarchy at the declaration site.
class BCDB_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BCDB_ACQUIRE() {
    // Check first: a recursive or wrong-order acquisition must abort with
    // a diagnostic, not block forever inside mu_.lock().
    lock_debug::PreAcquire(this, rank_);
    mu_.lock();
    lock_debug::OnAcquire(this, rank_);
  }

  void Unlock() BCDB_RELEASE() {
    lock_debug::OnRelease(this);
    mu_.unlock();
  }

  /// Debug-build assertion that the *calling thread* holds this mutex; a
  /// no-op (beyond informing the static analysis) when BCDB_DEBUG_LOCKS is
  /// off. Use at the top of private helpers whose contract is "caller
  /// locks" when the static annotation alone cannot see the call site
  /// (e.g. across a std::function boundary).
  void AssertHeld() const BCDB_ASSERT_CAPABILITY(this) {
#if defined(BCDB_DEBUG_LOCKS)
    if (!lock_debug::HeldByCurrentThread(this)) {
      lock_debug::Die("Mutex::AssertHeld failed: not held by this thread");
    }
#endif
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// RAII exclusive lock over a Mutex.
class BCDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BCDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() BCDB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace bcdb

#endif  // BCDB_UTIL_MUTEX_H_
