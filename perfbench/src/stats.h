// Sample summaries for the pipeline benchmark: medians and the tail rule.
//
// Tail rule: a `_tail` metric is the highest percentile, capped at p99,
// that still has at least kTailBeyond samples above it. With n sorted
// samples that is the nearest-rank p99 index, pulled down to n - 11 when
// fewer than 1000 samples exist, and never below the median. The
// percentile actually used is reported beside the value so a reader can
// tell a p99 from a p90.
//
// Timed series are summarized in groups of consecutive samples (time
// order): the tail is the median over groups of each group's tail, so a
// burst of host stalls (a preempted VM, a noisy neighbour) moves the groups
// it lands in, not the metric, while a stall that recurs in every group
// still shows. Groups of kTailGroup samples put each group's tail at the
// 190th of 200 values (p95): on a shared 4-vCPU VM a p99 of microsecond
// requests moved 3x between identical runs, a grouped p95 about 10%.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailBeyond = 10;
inline constexpr size_t kTailGroup = 200;

/// Nearest-rank quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Sorted index the tail rule selects for n samples (n >= 1).
size_t TailIndex(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// Percentile the tail rule picked, in (0, 100]: (index + 1) / n * 100.
  double tail_percentile = 0.0;
  /// SummarizeGroups only: each group's tail, in time order.
  std::vector<double> group_tails;
};

Summary Summarize(std::vector<double> samples);

/// Samples with the time each was taken.
struct Series {
  std::vector<double> values;
  std::vector<int64_t> at_ns;

  void Add(int64_t at, double value) {
    at_ns.push_back(at);
    values.push_back(value);
  }
  void Merge(const Series& other);
  size_t size() const { return values.size(); }
};

/// p50 over all samples; tail (and its percentile) as the median of the
/// tails of consecutive groups of `group` samples in time order. A last
/// partial group counts when it holds at least 2 * kTailBeyond + 1
/// samples; with no qualifying group the tail is that of all samples.
Summary SummarizeGroups(const Series& series, size_t group = kTailGroup);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
