// Positive control for tools/check_thread_safety.sh: correct locking that
// MUST compile cleanly under -Werror=thread-safety. It pulls in the real
// annotated headers (so the analysis checks every inline function they
// define) plus one local class exercising each core::sync primitive the
// negative fixtures abuse. If this file stops compiling, the gate is
// misconfigured — fix that before trusting any negative result.
//
// Not part of the CMake build (the *_test.cc glob skips it); only the
// checker script compiles it, with clang, via -fsyntax-only.

#include "core/sync.h"
#include "engine/collector.h"
#include "engine/ingest_budget.h"
#include "engine/shard_queue.h"
#include "engine/sharded_aggregator.h"
#include "net/http_server.h"
#include "net/ingest_server.h"
#include "net/query_server.h"
#include "obs/metrics.h"
#include "query/marginal_cache.h"

namespace {

class Correct {
 public:
  void Set(int v) {
    ldpm::core::MutexLock lock(mu_);
    value_ = v;
  }

  int GetWhenPositive() {
    ldpm::core::MutexLock lock(mu_);
    while (value_ <= 0) cv_.Wait(mu_);
    return value_;
  }

  int TryGet(int fallback) {
    if (!mu_.TryLock()) return fallback;
    const int v = value_;
    mu_.Unlock();
    return v;
  }

  int UnlockedRead() LDPM_REQUIRES(mu_) { return value_; }

  int LockAndRead() {
    ldpm::core::MutexLock lock(mu_);
    return UnlockedRead();
  }

 private:
  ldpm::core::Mutex mu_;
  ldpm::core::CondVar cv_;
  int value_ LDPM_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Correct c;
  c.Set(1);
  (void)c.GetWhenPositive();
  (void)c.TryGet(-1);
  (void)c.LockAndRead();
  return 0;
}
