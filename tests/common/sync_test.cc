// Tests for the annotated sync layer (DESIGN.md §12): the runtime
// lock-order checker's death diagnostics — a rank inversion must name BOTH
// acquisition sites — plus the positive paths (legal nesting, relockable
// MutexLock, reader/writer locks, CondVar waits) that must never trip it.
#include "joinopt/common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "joinopt/common/lock_ranks.h"

namespace joinopt {
namespace {

#if JOINOPT_SYNC_CHECKS
int HeldCount() { return sync_internal::HeldLockCountForTest(); }
#else
int HeldCount() { return 0; }
#endif

TEST(SyncTest, ChecksAreCompiledIntoThisBuild) {
  // The tier-1 build defines JOINOPT_LOCK_ORDER_CHECK (CMake default ON);
  // if this fails the death tests below silently skip — surface that.
  EXPECT_TRUE(SyncChecksEnabled());
}

TEST(SyncTest, AscendingRankOrderIsLegal) {
  Mutex low(100, "low");
  Mutex high(200, "high");
  low.Lock();
  high.Lock();
  EXPECT_EQ(HeldCount(), 2);
  high.Unlock();
  low.Unlock();
  EXPECT_EQ(HeldCount(), 0);
}

/// Runs the checker's bookkeeping for `outer` then `inner` nested, the
/// way Mutex::Lock reports them, without taking either lock. The tests
/// below take one nesting order for real and feed the reverse order only
/// to the checker: a real acquisition in both orders is a genuine
/// lock-order inversion, which TSan's deadlock detector rightly reports.
void CheckerSeesNesting(const Mutex& outer, const Mutex& inner) {
#if JOINOPT_SYNC_CHECKS
  sync_internal::NoteAcquire(&outer, outer.rank(), outer.name(), __FILE__,
                             __LINE__);
  sync_internal::NoteAcquire(&inner, inner.rank(), inner.name(), __FILE__,
                             __LINE__);
  EXPECT_EQ(HeldCount(), 2);
  sync_internal::NoteRelease(&inner, inner.name());
  sync_internal::NoteRelease(&outer, outer.name());
#else
  (void)outer;
  (void)inner;
#endif
}

TEST(SyncTest, UnrankedMutexesAreExemptFromOrdering) {
  // Default-constructed mutexes (kNoRank) are tracked for AssertHeld but
  // never participate in rank comparisons — either nesting order is fine.
  Mutex a;
  Mutex b;
  {
    MutexLock la(a);
    MutexLock lb(b);
    EXPECT_EQ(HeldCount(), 2);
  }
  CheckerSeesNesting(b, a);
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, RankedAndUnrankedMixFreely) {
  Mutex ranked(lock_rank::kInvokerShard, "ranked");
  Mutex unranked;
  {
    MutexLock lr(ranked);
    MutexLock lu(unranked);
    EXPECT_EQ(HeldCount(), 2);
  }
  CheckerSeesNesting(unranked, ranked);
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, MutexLockUnlockRelock) {
  Mutex mu(100, "relockable");
  MutexLock lock(mu);
  EXPECT_EQ(HeldCount(), 1);
  lock.Unlock();
  EXPECT_EQ(HeldCount(), 0);
  lock.Relock();
  EXPECT_EQ(HeldCount(), 1);
  lock.Unlock();  // destructor must not double-release
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, TryLockContendedAndFree) {
  Mutex mu(100, "trylock");
  mu.Lock();
  std::atomic<int> observed{-1};
  std::thread t([&] {
    // Contended from another thread: must fail without touching the
    // holder's bookkeeping.
    observed.store(mu.TryLock() ? 1 : 0);
  });
  t.join();
  EXPECT_EQ(observed.load(), 0);
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  EXPECT_EQ(HeldCount(), 1);
  mu.Unlock();
}

TEST(SyncTest, TryLockIsExemptFromRankOrdering) {
  // A successful TryLock never blocked, so it cannot close a deadlock
  // cycle: taking a *lower*-ranked mutex via TryLock while holding a
  // higher-ranked one is legal (the opportunistic-probe idiom).
  Mutex low(100, "low");
  Mutex high(200, "high");
  high.Lock();
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(HeldCount(), 2);
  low.Unlock();
  high.Unlock();
}

TEST(SyncTest, PureTryLockCycleNeverAborts) {
  // Both nesting orders, both inner acquisitions via TryLock: a pure
  // try-lock cycle passes — some thread always fails fast and releases,
  // so the "cycle" cannot deadlock.
  Mutex a(100, "cycle-a");
  Mutex b(200, "cycle-b");
  {
    MutexLock la(a);
    ASSERT_TRUE(b.TryLock());  // ascending, trivially fine
    b.Unlock();
  }
  {
    MutexLock lb(b);
    ASSERT_TRUE(a.TryLock());  // descending: only legal because TryLock
    a.Unlock();
  }
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, AssertHeldPassesUnderLock) {
  Mutex mu(100, "asserted");
  MutexLock lock(mu);
  mu.AssertHeld();  // must not abort
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu(100, "shared");
  mu.ReaderLock();
  std::atomic<bool> reader_entered{false};
  std::thread t([&] {
    ReaderMutexLock lock(mu);
    mu.AssertHeld();
    reader_entered.store(true, std::memory_order_release);
  });
  t.join();
  EXPECT_TRUE(reader_entered.load(std::memory_order_acquire));
  mu.ReaderUnlock();
  {
    WriterMutexLock lock(mu);
    mu.AssertHeld();
  }
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, CondVarWaitAndNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
    EXPECT_EQ(HeldCount(), 1);  // the wait reacquired through the wrapper
  }
  producer.join();
  EXPECT_EQ(HeldCount(), 0);
}

TEST(SyncTest, CondVarWaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(cv.WaitFor(mu, 1e-3), std::cv_status::timeout);
  EXPECT_EQ(HeldCount(), 1);
}

TEST(SyncTest, RanksAreScopedPerThread) {
  // A thread may take "high" while another thread holds "low": the order
  // constraint is per-thread, not global.
  Mutex low(100, "low");
  Mutex high(200, "high");
  MutexLock hold_high(high);
  std::thread t([&] {
    MutexLock lock(low);  // fresh thread, empty held stack: legal
  });
  t.join();
}

TEST(SyncLockOrderDeathTest, InvertedRankOrderAbortsNamingBothSites) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(100, "invoker-shard-like");
  Mutex high(200, "queue-like");
  // The diagnostic must carry both the incoming acquisition site and the
  // prior one — each with file:line pointing back into this test.
  EXPECT_DEATH(
      {
        high.Lock();
        low.Lock();
      },
      "lock-order inversion: acquiring \"invoker-shard-like\" \\(rank 100\\) "
      "at .*sync_test\\.cc:[0-9]+ while holding \"queue-like\" \\(rank "
      "200\\) acquired at .*sync_test\\.cc:[0-9]+");
}

TEST(SyncLockOrderDeathTest, EqualRanksNeverNest) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Same-rank mutexes (invoker shards, per-node stores) are declared
  // never-nested in lock_ranks.h; the checker enforces the declaration.
  Mutex a(300, "shard-a");
  Mutex b(300, "shard-b");
  EXPECT_DEATH(
      {
        a.Lock();
        b.Lock();
      },
      "lock-order inversion.*\"shard-b\" \\(rank 300\\).*holding "
      "\"shard-a\" \\(rank 300\\)");
}

TEST(SyncLockOrderDeathTest, BlockingInversionAbortsEvenAfterTryLocks) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The try-lock exemption is per-acquisition, not per-mutex: the same
  // pair of mutexes that legally nested via TryLock still aborts the
  // moment the out-of-rank acquisition is a *blocking* Lock.
  Mutex low(100, "try-then-block-low");
  Mutex high(200, "try-then-block-high");
  EXPECT_DEATH(
      {
        high.Lock();
        if (low.TryLock()) low.Unlock();  // exempt probe, must not abort
        low.Lock();                       // blocking inversion: abort
      },
      "lock-order inversion: acquiring \"try-then-block-low\" "
      "\\(rank 100\\)");
}

TEST(SyncLockOrderDeathTest, RecursiveTryLockAborts) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // try_lock on a mutex this thread already holds is UB for std::mutex;
  // the exemption must not swallow the recursion diagnostic.
  Mutex mu(100, "try-recursed");
  EXPECT_DEATH(
      {
        mu.Lock();
        (void)mu.TryLock();
      },
      "recursive lock: acquiring \"try-recursed\"");
}

TEST(SyncLockOrderDeathTest, RecursiveLockAborts) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(100, "recursed");
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();
      },
      "recursive lock: acquiring \"recursed\"");
}

TEST(SyncLockOrderDeathTest, AssertHeldAbortsWhenNotHeld) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(100, "unheld");
  EXPECT_DEATH(mu.AssertHeld(),
               "AssertHeld failed: mutex not held by this thread: "
               "\"unheld\"");
}

TEST(SyncLockOrderDeathTest, AssertHeldAbortsWhenHeldByAnotherThread) {
  if (!SyncChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Held-ness is per-thread: another thread's hold must not satisfy the
  // calling thread's assertion.
  EXPECT_DEATH(
      {
        Mutex mu(100, "other-thread");
        std::atomic<bool> locked{false};
        std::atomic<bool> done{false};
        std::thread holder([&] {
          mu.Lock();
          locked.store(true, std::memory_order_release);
          while (!done.load(std::memory_order_acquire)) {
          }
          mu.Unlock();
        });
        while (!locked.load(std::memory_order_acquire)) {
        }
        mu.AssertHeld();  // aborts: *this* thread does not hold it
        done.store(true, std::memory_order_release);
        holder.join();
      },
      "AssertHeld failed");
}

}  // namespace
}  // namespace joinopt
