// Open-loop request schedule: request i is due at a precomputed time,
// whichever worker sends it, and every request is timed from its due time.
// A request that stalls a worker therefore also delays the requests due
// after it, and that wait shows up in their latency (no coordinated
// omission). Times are nanosecond offsets from the schedule start so the
// same worker loop runs against the real clock and against a simulated one.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Due times i * interval_ns below end_ns.
std::vector<int64_t> FixedSchedule(int64_t interval_ns, int64_t end_ns);

/// Poisson arrivals at `rate` per second below end_ns, drawn from `seed`:
/// independent users, and no phase lock between two schedules.
std::vector<int64_t> PoissonSchedule(double rate, int64_t end_ns,
                                     uint64_t seed);

class OpenLoopSchedule {
 public:
  explicit OpenLoopSchedule(std::vector<int64_t> due_ns)
      : due_ns_(std::move(due_ns)) {}

  OpenLoopSchedule(const OpenLoopSchedule&) = delete;
  OpenLoopSchedule& operator=(const OpenLoopSchedule&) = delete;

  /// Claims the next request; false once the schedule is exhausted.
  bool Next(uint64_t* index, int64_t* due_ns) {
    const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= due_ns_.size()) return false;
    *index = i;
    *due_ns = due_ns_[i];
    return true;
  }

 private:
  const std::vector<int64_t> due_ns_;
  std::atomic<uint64_t> next_{0};
};

/// Timing of one open-loop request, all relative to the schedule start.
struct OpenLoopTiming {
  int64_t due_ns = 0;
  int64_t start_ns = 0;  ///< max(due, when a worker got to it)
  int64_t end_ns = 0;

  int64_t latency_ns() const { return end_ns - due_ns; }
  int64_t late_ns() const { return start_ns - due_ns; }
};

/// One open-loop worker: claims requests from `schedule` until it is
/// exhausted, waits for each one's due time and times it from there. The
/// clock is a parameter so the self-tests can drive this very loop with a
/// simulated one: `now()` reads it and `wait_until(due)` blocks until a due
/// time, both in ns from the schedule start; wait_until returns false to
/// stop the worker early. `serve(index)` performs request `index`;
/// `done(index, timing, served)` then receives its timing and what `serve`
/// returned.
template <typename Now, typename WaitUntil, typename Serve, typename Done>
void RunOpenLoopWorker(OpenLoopSchedule& schedule, Now&& now,
                       WaitUntil&& wait_until, Serve&& serve, Done&& done) {
  uint64_t index = 0;
  OpenLoopTiming timing;
  while (schedule.Next(&index, &timing.due_ns)) {
    if (!wait_until(timing.due_ns)) return;
    timing.start_ns = now();
    auto served = serve(index);
    timing.end_ns = now();
    done(index, timing, std::move(served));
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
