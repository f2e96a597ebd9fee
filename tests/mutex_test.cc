#include "util/mutex.h"

#include <thread>

#include <gtest/gtest.h>

#include "util/thread_annotations.h"

namespace bcdb {
namespace {

TEST(LockRankTest, NamesCoverEveryRank) {
  EXPECT_STREQ(LockRankName(LockRank::kMonitor), "kMonitor");
  EXPECT_STREQ(LockRankName(LockRank::kDurableStore), "kDurableStore");
  EXPECT_STREQ(LockRankName(LockRank::kMutationLog), "kMutationLog");
  EXPECT_STREQ(LockRankName(LockRank::kDecompositionMemo),
               "kDecompositionMemo");
  EXPECT_STREQ(LockRankName(LockRank::kValuePool), "kValuePool");
}

TEST(MutexTest, RankAccessor) {
  Mutex mu(LockRank::kMutationLog);
  EXPECT_EQ(mu.rank(), LockRank::kMutationLog);
}

#if defined(BCDB_DEBUG_LOCKS)

TEST(MutexTest, HeldStackBookkeeping) {
  Mutex low(LockRank::kMonitor);
  Mutex high(LockRank::kValuePool);
  EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 0u);
  EXPECT_FALSE(lock_debug::HeldByCurrentThread(&low));
  {
    MutexLock outer(low);
    EXPECT_TRUE(lock_debug::HeldByCurrentThread(&low));
    EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 1u);
    {
      MutexLock inner(high);  // Ascending ranks: legal nesting.
      EXPECT_TRUE(lock_debug::HeldByCurrentThread(&high));
      EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 2u);
    }
    EXPECT_FALSE(lock_debug::HeldByCurrentThread(&high));
    EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 1u);
  }
  EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 0u);
}

TEST(MutexTest, HeldStackIsPerThread) {
  Mutex mu(LockRank::kMonitor);
  MutexLock lock(mu);
  std::thread other([&mu] {
    EXPECT_FALSE(lock_debug::HeldByCurrentThread(&mu));
    EXPECT_EQ(lock_debug::NumHeldByCurrentThread(), 0u);
  });
  other.join();
}

/// The violating sequences live in free functions opted out of the static
/// analysis — clang would (correctly) reject them at compile time, and the
/// point here is to pin the *runtime* checker's behavior for gcc builds.
void AcquireDescendingRanks() BCDB_NO_THREAD_SAFETY_ANALYSIS {
  Mutex high(LockRank::kValuePool);
  Mutex low(LockRank::kMonitor);
  high.Lock();
  low.Lock();  // Rank descent: must abort before deadlock can form.
}

void AcquireSameRankTwice() BCDB_NO_THREAD_SAFETY_ANALYSIS {
  Mutex a(LockRank::kMutationLog);
  Mutex b(LockRank::kMutationLog);
  a.Lock();
  b.Lock();  // Same rank held together: forbidden (order is undefined).
}

void AcquireRecursively() BCDB_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu(LockRank::kMonitor);
  mu.Lock();
  mu.Lock();
}

void ReleaseWithoutHolding() BCDB_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu(LockRank::kMonitor);
  mu.Unlock();
}

TEST(MutexDeathTest, RankDescentAborts) {
  EXPECT_DEATH(AcquireDescendingRanks(), "ranks must strictly increase");
}

TEST(MutexDeathTest, SameRankNestingAborts) {
  EXPECT_DEATH(AcquireSameRankTwice(), "ranks must strictly increase");
}

TEST(MutexDeathTest, RecursiveAcquisitionAborts) {
  EXPECT_DEATH(AcquireRecursively(), "recursive acquisition");
}

TEST(MutexDeathTest, ReleaseNotHeldAborts) {
  EXPECT_DEATH(ReleaseWithoutHolding(), "does not hold");
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  Mutex mu(LockRank::kMonitor);
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld failed");
}

TEST(MutexTest, AssertHeldPassesWhenHeld) {
  Mutex mu(LockRank::kMonitor);
  MutexLock lock(mu);
  mu.AssertHeld();  // Must not abort.
}

TEST(MutexDeathTest, DiagnosticNamesTheDesignDoc) {
  // The abort message must point at the hierarchy documentation — it is
  // the first thing a developer hits when they violate the order.
  EXPECT_DEATH(AcquireDescendingRanks(), "DESIGN.md section 16");
}

#endif  // BCDB_DEBUG_LOCKS

}  // namespace
}  // namespace bcdb
