// Runtime behavior of the annotated locking primitives in core/sync.h.
// The *static* guarantees (guarded-field access, REQUIRES, double
// acquire) are exercised by tools/check_thread_safety.sh over
// tests/static/; this suite checks that the wrappers actually lock,
// wake, and release — TSan (CI runs this file under it) would catch a
// wrapper that merely pretended to.

#include "core/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldpm::core {
namespace {

TEST(MutexTest, ProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhenHeldAndSucceedsWhenFree) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  // TryLock from another thread: std::mutex::try_lock on the owning
  // thread is undefined, so probe from elsewhere.
  std::thread probe([&] {
    if (mu.TryLock()) {
      mu.Unlock();
    } else {
      acquired = false;
    }
  });
  probe.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();

  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexLockTest, ReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitReleasesMutexAndWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu (local, so no annotation target)

  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
  });

  // The waiter must eventually release mu inside Wait so we can set the
  // flag; this would deadlock if Wait held the lock.
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  SUCCEED();
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto status = cv.WaitFor(mu, std::chrono::milliseconds(5));
  EXPECT_EQ(status, std::cv_status::timeout);
}

TEST(CondVarTest, NotifyAllWakesAllWaiters) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  constexpr int kWaiters = 4;

  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }

  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(awake, kWaiters);
}

}  // namespace
}  // namespace ldpm::core
