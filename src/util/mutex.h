#ifndef BCDB_UTIL_MUTEX_H_
#define BCDB_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "util/thread_annotations.h"

namespace bcdb {

/// The global lock hierarchy (DESIGN.md §16). Every bcdb::Mutex /
/// bcdb::SharedMutex is constructed with its rank, and a thread may only
/// acquire a lock whose rank is *strictly greater* than every rank it
/// already holds — so any cycle of waiting threads would require a rank
/// descent somewhere, which the debug-build checker (BCDB_DEBUG_LOCKS)
/// aborts on at the first wrong-order acquisition, on any schedule, not
/// just the unlucky interleaving that actually deadlocks.
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

  /// Non-blocking acquire. A recursive TryLock simply fails (try_lock
  /// returns false on the owning thread) rather than aborting — the
  /// discipline check runs only once the lock is actually taken.
  bool TryLock() BCDB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_debug::PreAcquire(this, rank_);
    lock_debug::OnAcquire(this, rank_);
    return true;
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
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
};

/// Annotated reader/writer mutex (same hierarchy rules as Mutex).
class BCDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() BCDB_ACQUIRE() {
    lock_debug::PreAcquire(this, rank_);
    mu_.lock();
    lock_debug::OnAcquire(this, rank_);
  }
  void Unlock() BCDB_RELEASE() {
    lock_debug::OnRelease(this);
    mu_.unlock();
  }

  void ReaderLock() BCDB_ACQUIRE_SHARED() {
    lock_debug::PreAcquire(this, rank_);
    mu_.lock_shared();
    lock_debug::OnAcquire(this, rank_);
  }
  void ReaderUnlock() BCDB_RELEASE_SHARED() {
    lock_debug::OnRelease(this);
    mu_.unlock_shared();
  }

  void AssertHeld() const BCDB_ASSERT_CAPABILITY(this) {
#if defined(BCDB_DEBUG_LOCKS)
    if (!lock_debug::HeldByCurrentThread(this)) {
      lock_debug::Die(
          "SharedMutex::AssertHeld failed: not held by this thread");
    }
#endif
  }

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
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

/// RAII exclusive lock over a SharedMutex.
class BCDB_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) BCDB_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~SharedMutexLock() BCDB_RELEASE() { mu_.Unlock(); }

  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class BCDB_SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex& mu) BCDB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.ReaderLock();
  }
  ~SharedReaderLock() BCDB_RELEASE() { mu_.ReaderUnlock(); }

  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to bcdb::Mutex. Wait requires the mutex held
/// (the annotation enforces it); the native handoff inside wait releases
/// and re-acquires the underlying std::mutex without touching the
/// hierarchy bookkeeping — the capability is conceptually held across the
/// wait, and the blocked thread runs no code that could observe otherwise.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) BCDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();  // Ownership stays with the caller's scope.
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace bcdb

#endif  // BCDB_UTIL_MUTEX_H_
