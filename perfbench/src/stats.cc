#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

size_t NearestRankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

size_t TailIndex(size_t n) {
  const size_t median = NearestRankIndex(n, 0.5);
  if (n <= kTailBeyond) return median;
  return std::max(median,
                  std::min(NearestRankIndex(n, 0.99), n - kTailBeyond - 1));
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[NearestRankIndex(s.n, 0.5)];
  const size_t tail = TailIndex(s.n);
  s.tail = samples[tail];
  s.tail_percentile =
      100.0 * static_cast<double>(tail + 1) / static_cast<double>(s.n);
  return s;
}

void Series::Merge(const Series& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
  at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
}

Summary SummarizeGroups(const Series& series, size_t group) {
  Summary all = Summarize(series.values);
  if (series.values.empty() || group == 0) return all;
  std::vector<size_t> order(series.values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return series.at_ns[a] < series.at_ns[b];
  });
  std::vector<double> percentiles;
  for (size_t begin = 0; begin < order.size(); begin += group) {
    const size_t end = std::min(order.size(), begin + group);
    if (end - begin < 2 * kTailBeyond + 1) continue;
    std::vector<double> values;
    for (size_t i = begin; i < end; ++i) {
      values.push_back(series.values[order[i]]);
    }
    const Summary g = Summarize(std::move(values));
    all.group_tails.push_back(g.tail);
    percentiles.push_back(g.tail_percentile);
  }
  if (all.group_tails.empty()) return all;
  all.tail = Median(all.group_tails);
  all.tail_percentile = Median(percentiles);
  return all;
}

}  // namespace perfbench
