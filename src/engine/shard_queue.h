// Bounded FIFO work queue feeding one shard worker of the sharded
// aggregation engine.
//
// Producers push batches of work and block when the queue is full
// (backpressure instead of unbounded memory growth under overload). The
// single consumer — the shard's worker thread — pops batches in push order.
// Because it is the only consumer, its return to Pop() means it has finished
// everything it popped before; Pop() records that, and WaitDrained() uses
// the record as a barrier: it waits for the items pushed before it was
// called, never for the queue to run empty, so a producer that keeps the
// queue full cannot stall a flush.
//
// One mutex guards all state. A condition variable is notified only when a
// waiter on it is recorded (a drain waiter only once its ticket is reached,
// blocked producers only once the queue is down to half), and, except when
// the consumer is about to sleep, after the mutex is released, so a steady
// stream of pushes and pops costs one lock each and no wakeups.

#ifndef LDPM_ENGINE_SHARD_QUEUE_H_
#define LDPM_ENGINE_SHARD_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "protocols/protocol.h"

namespace ldpm {
namespace engine {

/// One unit of shard work: pre-encoded reports to absorb, a wire batch
/// frame to parse-and-absorb in place, or raw user rows to encode on the
/// worker with the shard's own Rng stream.
struct WorkItem {
  /// Reports to AbsorbBatch() verbatim (aggregator-side ingest).
  std::vector<Report> reports;
  /// A wire batch frame (protocols/wire.h) for AbsorbWireBatch().
  std::vector<uint8_t> wire;
  /// User rows to encode and absorb on the worker (client simulation).
  std::vector<uint64_t> rows;
  /// For `rows`: use the protocol's distribution-exact AbsorbPopulation
  /// fast path instead of the per-user Encode+Absorb loop.
  bool fast_path = false;
};

/// Bounded multi-producer, single-consumer FIFO feeding one shard worker
/// (see the file comment for the contract). Producers call Push; the one
/// consumer loops on Pop; control threads use WaitDrained/Close.
class ShardQueue {
 public:
  /// Creates a queue that holds at most `max_pending` items; producers
  /// block beyond that.
  explicit ShardQueue(size_t max_pending) : max_pending_(max_pending) {}

  /// Enqueues one work item; blocks while the queue is at capacity.
  /// Returns false (dropping the item) if the queue has been closed.
  bool Push(WorkItem item) {
    bool wake_consumer = false;
    {
      core::MutexLock lock(mu_);
      while (!closed_ && items_.size() >= max_pending_) {
        ++full_waiters_;
        not_full_.Wait(mu_);
        --full_waiters_;
      }
      if (closed_) return false;
      items_.push_back(std::move(item));
      ++pushed_;
      wake_consumer = std::exchange(consumer_waiting_, false);
    }
    if (wake_consumer) not_empty_.NotifyOne();
    return true;
  }

  /// Marks the previously popped item done, then dequeues the next item,
  /// blocking while the queue is empty. Returns false once the queue is
  /// closed and fully drained. The consumer finishes each item before
  /// calling Pop again.
  bool Pop(WorkItem& out) {
    bool popped = false;
    bool wake_drained = false;
    bool wake_producers = false;
    {
      core::MutexLock lock(mu_);
      // The one consumer is back, so every item it popped is done.
      done_ = pushed_ - items_.size();
      if (done_ >= drain_at_) {
        drain_at_ = kNoDrainWaiter;
        wake_drained = true;
      }
      while (!closed_ && items_.empty()) {
        // About to sleep, so wake drain waiters now, under the lock.
        if (std::exchange(wake_drained, false)) drained_.NotifyAll();
        consumer_waiting_ = true;
        not_empty_.Wait(mu_);
      }
      if (!items_.empty()) {
        out = std::move(items_.front());
        items_.pop_front();
        popped = true;
        // Wake blocked producers once the queue is down to half, not on
        // every pop: a producer that keeps it full then refills in bursts
        // instead of sleeping and waking once per item.
        wake_producers =
            full_waiters_ > 0 && items_.size() <= max_pending_ / 2;
      }
    }
    if (wake_drained) drained_.NotifyAll();
    if (wake_producers) not_full_.NotifyAll();
    return popped;
  }

  /// Blocks until every item pushed before this call has been popped AND
  /// processed. Items pushed later are not waited for.
  void WaitDrained() {
    core::MutexLock lock(mu_);
    const uint64_t ticket = pushed_;
    while (done_ < ticket) {
      drain_at_ = std::min(drain_at_, ticket);
      drained_.Wait(mu_);
    }
  }

  /// Wakes all waiters; subsequent pushes fail. The consumer drains what is
  /// already queued, then Pop returns false.
  void Close() {
    {
      core::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

 private:
  static constexpr uint64_t kNoDrainWaiter =
      std::numeric_limits<uint64_t>::max();

  const size_t max_pending_;

  core::Mutex mu_;
  core::CondVar not_full_;
  core::CondVar not_empty_;
  core::CondVar drained_;
  std::deque<WorkItem> items_ LDPM_GUARDED_BY(mu_);
  bool closed_ LDPM_GUARDED_BY(mu_) = false;
  /// Items ever pushed, and items the consumer has finished; WaitDrained
  /// takes pushed_ as its ticket and waits for done_ to reach it.
  uint64_t pushed_ LDPM_GUARDED_BY(mu_) = 0;
  uint64_t done_ LDPM_GUARDED_BY(mu_) = 0;
  /// Recorded waiters, so a notify is skipped when nobody waits: blocked
  /// producers, the consumer, and the lowest ticket a drain waiter sleeps
  /// on (Pop resets it when it wakes them, and each re-registers).
  size_t full_waiters_ LDPM_GUARDED_BY(mu_) = 0;
  bool consumer_waiting_ LDPM_GUARDED_BY(mu_) = false;
  uint64_t drain_at_ LDPM_GUARDED_BY(mu_) = kNoDrainWaiter;
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_SHARD_QUEUE_H_
