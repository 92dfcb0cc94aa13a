#ifndef LDPM_CORE_SYNC_H_
#define LDPM_CORE_SYNC_H_

// Annotated synchronization primitives.
//
// Every mutex in the codebase is a core::Mutex, every guarded field carries
// LDPM_GUARDED_BY, and every function with a locking contract declares it
// with LDPM_REQUIRES / LDPM_EXCLUDES / LDPM_ACQUIRE / LDPM_RELEASE. Under
// Clang the annotations compile to Thread Safety Analysis attributes and the
// static-analysis CI job builds with -Werror=thread-safety, turning the lock
// invariants that used to live in comments into compile errors. Under other
// compilers every macro expands to nothing and the wrappers are zero-cost
// veneers over the std primitives.
//
// Conventions (see docs/static-analysis.md for the full guide):
//   - Fields:   int depth_ LDPM_GUARDED_BY(mu_);
//   - Methods:  void ReapLocked() LDPM_REQUIRES(mu_);   // caller holds mu_
//               void Stop() LDPM_EXCLUDES(mu_);         // caller must NOT
//   - Scopes:   core::MutexLock lock(mu_);              // RAII, whole scope
//   - Waiting:  while (!pred()) cv_.Wait(mu_);          // explicit loop; the
//     std predicate-lambda form is NOT used because the analysis treats
//     lambdas as separate functions and cannot see the held capability.

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---- Thread Safety Analysis attribute macros -------------------------------

#if defined(__clang__) && !defined(SWIG)
#define LDPM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define LDPM_THREAD_ANNOTATION_(x)  // no-op: GCC/MSVC do not implement TSA
#endif

// A type that acts as a lock/capability ("mutex" names the capability kind
// in diagnostics).
#define LDPM_CAPABILITY(x) LDPM_THREAD_ANNOTATION_(capability(x))

// An RAII type whose constructor acquires and destructor releases.
#define LDPM_SCOPED_CAPABILITY LDPM_THREAD_ANNOTATION_(scoped_lockable)

// Data member readable/writable only while holding the given mutex(es).
#define LDPM_GUARDED_BY(x) LDPM_THREAD_ANNOTATION_(guarded_by(x))

// Pointer member whose *pointee* is guarded (the pointer itself is not).
#define LDPM_PT_GUARDED_BY(x) LDPM_THREAD_ANNOTATION_(pt_guarded_by(x))

// Function requires the capability held on entry (and does not release it).
#define LDPM_REQUIRES(...) \
  LDPM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// Function must be called WITHOUT the capability held (deadlock guard).
#define LDPM_EXCLUDES(...) LDPM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Function acquires / releases the capability.
#define LDPM_ACQUIRE(...) \
  LDPM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define LDPM_RELEASE(...) \
  LDPM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// Function attempts acquisition; first argument is the success return value.
#define LDPM_TRY_ACQUIRE(...) \
  LDPM_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Declared lock-ordering constraints (checked by -Wthread-safety-beta).
#define LDPM_ACQUIRED_BEFORE(...) \
  LDPM_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define LDPM_ACQUIRED_AFTER(...) \
  LDPM_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Runtime-verified assertion that the capability is held (no static proof).
#define LDPM_ASSERT_CAPABILITY(x) \
  LDPM_THREAD_ANNOTATION_(assert_capability(x))

// Escape hatch; every use must carry a comment justifying it.
#define LDPM_NO_THREAD_SAFETY_ANALYSIS \
  LDPM_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace ldpm {
namespace core {

class CondVar;

// std::mutex with the capability annotation the analysis needs. Prefer the
// scoped lockers below; explicit Lock()/Unlock() is for the rare control
// flow a scope cannot express (and keeps the acquire/release visible to the
// analysis where std::unique_lock's adopt/defer dances would not be).
class LDPM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LDPM_ACQUIRE() { mu_.lock(); }
  void Unlock() LDPM_RELEASE() { mu_.unlock(); }
  bool TryLock() LDPM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII locker held for its entire scope.
class LDPM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LDPM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LDPM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over core::Mutex. Wait() requires the mutex held and
// returns with it held again; wake-side code notifies after (or without)
// holding the mutex exactly as with std::condition_variable. Callers write
// the wait loop explicitly —
//     while (!pred()) cv_.Wait(mu_);
// — so the guarded reads in pred() happen in the annotated function itself.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) LDPM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Wait() returns with mu held; keep ownership external.
  }

  // Returns std::cv_status::timeout if the wait timed out; either way the
  // mutex is held again on return. Timed waits loop on a caller-computed
  // deadline so spurious wakeups shrink the remaining budget.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      LDPM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace core
}  // namespace ldpm

#endif  // LDPM_CORE_SYNC_H_
