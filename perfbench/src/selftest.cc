// Self-tests for the benchmark's own arithmetic: the tail-percentile rule,
// open-loop lateness accounting, span self time, and seed determinism of
// the input pools. Exits nonzero on the first failed expectation group.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "open_loop.h"
#include "pool.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;  // n, n-1, ..., 1 (unsorted on purpose)
}

void TailRule() {
  using perfbench::Summarize;
  // 2000 samples: p99 has 20 beyond it, so the cap applies.
  auto s = Summarize(Ramp(2000));
  Expect(s.tail == 1980 && std::fabs(s.tail_percentile - 99.0) < 1e-9,
         "2000 samples -> p99 (value 1980)");
  // 1000 samples: nearest-rank p99 is the 990th value, 10 beyond it.
  s = Summarize(Ramp(1000));
  Expect(s.tail == 990, "1000 samples -> 990th value");
  // 200 samples: p99 would leave 2 beyond; the rule keeps 10 beyond.
  s = Summarize(Ramp(200));
  Expect(s.tail == 190 && std::fabs(s.tail_percentile - 95.0) < 1e-9,
         "200 samples -> 190th value, p95");
  // Exactly 10 samples beyond, never fewer.
  for (size_t n : {21u, 25u, 101u, 999u, 1001u}) {
    s = Summarize(Ramp(n));
    const double beyond = static_cast<double>(n) - s.tail;
    Expect(beyond >= 10, "at least 10 beyond the tail, n=" + std::to_string(n));
  }
  // Too few samples: the tail never drops below the median.
  s = Summarize(Ramp(8));
  Expect(s.tail == s.p50 && s.p50 == 4, "8 samples -> tail is the median");
  Expect(Summarize({}).n == 0, "empty input");
  Expect(perfbench::Median({3, 1, 2}) == 2, "median of 3");

  // Grouped tails: three groups of 100 samples in time order; the middle
  // one also holds a burst of slow samples. The burst moves one group, not
  // the median over groups.
  perfbench::Series series;
  for (int g = 0; g < 3; ++g) {
    const int burst = g == 1 ? 30 : 0;
    for (int i = 1; i <= 100 - burst; ++i) series.Add(g * 1000 + i, i);
    for (int i = 0; i < burst; ++i) series.Add(g * 1000 + 500 + i, 1e6);
  }
  s = perfbench::SummarizeGroups(series, 100);
  Expect(s.tail == 90 && s.n == 300 && s.group_tails.size() == 3,
         "grouped tail ignores one bad group");
  Expect(s.group_tails[1] == 1e6, "the bad group sees its burst");
  Expect(perfbench::SummarizeGroups(series, 300).tail == 1e6,
         "one group holding everything sees the burst");
  // A short last group (< 21 samples) is left out.
  perfbench::Series short_tail = series;
  for (int i = 0; i < 20; ++i) short_tail.Add(9000 + i, 5e6);
  Expect(perfbench::SummarizeGroups(short_tail, 100).group_tails.size() == 3,
         "a last group under 21 samples does not count");
}

/// Drives the generator's worker loop against a simulated clock: request i
/// takes service_ns[i] once started.
std::vector<perfbench::OpenLoopTiming> SimulateWorker(
    std::vector<int64_t> due_ns, const std::vector<int64_t>& service_ns) {
  perfbench::OpenLoopSchedule schedule(std::move(due_ns));
  int64_t clock = 0;
  std::vector<perfbench::OpenLoopTiming> timings;
  perfbench::RunOpenLoopWorker(
      schedule, [&] { return clock; },
      [&](int64_t due) {
        clock = std::max(clock, due);
        return true;
      },
      [&](uint64_t index) {
        clock += service_ns[index];
        return index;
      },
      [&](uint64_t index, const perfbench::OpenLoopTiming& t, uint64_t served) {
        Expect(served == index && index == timings.size(),
               "requests are served in schedule order");
        timings.push_back(t);
      });
  return timings;
}

void OpenLoopLateness() {
  // One worker, a request every 10 ns; request 1 stalls for 50 ns.
  const auto t = SimulateWorker(perfbench::FixedSchedule(10, 90),
                                {1, 50, 1, 1, 1, 1, 1, 1, 1});
  Expect(t.size() == 9, "all 9 requests dispatched");
  Expect(t[0].late_ns() == 0 && t[0].latency_ns() == 1, "an on-time request");
  Expect(t[1].start_ns == 10 && t[1].latency_ns() == 50,
         "the stalled request itself");
  // Request 2 was due at 20 but could start only at 60.
  Expect(t[2].late_ns() == 40 && t[2].latency_ns() == 41,
         "the request after a stall is late and its latency counts the wait");
  Expect(t[3].start_ns == 61 && t[3].late_ns() == 31, "backlog drains");
  Expect(t[6].late_ns() == 4 && t[6].latency_ns() == 5,
         "each later request is less late");
  Expect(t[7].late_ns() == 0 && t[7].latency_ns() == 1,
         "back on schedule after the backlog");
  // Due times follow the schedule, not completions.
  Expect(t[5].due_ns == 50, "due time is index * interval");

  // Poisson schedules: reproducible per seed, increasing, near the rate.
  const auto a = perfbench::PoissonSchedule(1000.0, 1'000'000'000, 5);
  const auto b = perfbench::PoissonSchedule(1000.0, 1'000'000'000, 5);
  const auto c = perfbench::PoissonSchedule(1000.0, 1'000'000'000, 6);
  Expect(a == b && a != c, "Poisson schedule is a function of its seed");
  Expect(std::is_sorted(a.begin(), a.end()) && a.back() < 1'000'000'000,
         "Poisson due times increase and stay in the window");
  Expect(a.size() > 900 && a.size() < 1100, "Poisson count near rate * time");
}

void SpanSelfTime() {
  using perfbench::Layer;
  using perfbench::SpanRecord;
  // root [0,100) gen; children net [10,40) and engine [30,70) overlap;
  // grandchild query [35,45) under engine; obs [90,120) sticks out.
  std::vector<SpanRecord> spans = {
      {"root", Layer::kGen, 0, 100, 1, 0, 7, 0},
      {"a", Layer::kNet, 10, 40, 2, 1, 7, 0},
      {"b", Layer::kEngine, 30, 70, 3, 1, 7, 0},
      {"c", Layer::kQuery, 35, 45, 4, 3, 7, 0},
      {"d", Layer::kObs, 90, 120, 5, 1, 7, 0},
  };
  const auto self = perfbench::SelfTimeByLayer(spans);
  auto at = [&](Layer l) { return self[static_cast<size_t>(l)]; };
  // Root covered by union [10,70) + [90,100) = 70 -> self 30.
  Expect(at(Layer::kGen) == 30, "root self = duration - union of children");
  Expect(at(Layer::kNet) == 30, "leaf self = duration");
  Expect(at(Layer::kEngine) == 30, "engine self excludes its child");
  Expect(at(Layer::kQuery) == 10, "grandchild");
  Expect(at(Layer::kObs) == 30, "a child's own duration is not clipped");
  Expect(perfbench::RootWallNs(spans) == 100, "wall sums root spans");

  // Live recording nests per thread and inherits the request id.
  perfbench::tracer::SetEnabled(true);
  {
    perfbench::Span outer(Layer::kGen, "outer", 42);
    perfbench::Span inner(Layer::kNet, "inner");
  }
  perfbench::tracer::SetEnabled(false);
  { perfbench::Span off(Layer::kNet, "off"); }
  const auto live = perfbench::tracer::Collect();
  Expect(live.size() == 2, "disabled spans are not recorded");
  if (live.size() == 2) {
    const SpanRecord& inner = live[0];
    const SpanRecord& outer = live[1];
    Expect(inner.parent == outer.id && outer.parent == 0,
           "parent is the span open on the same thread");
    Expect(inner.request == 42 && outer.request == 42,
           "request id is inherited");
    Expect(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns,
           "child nests inside parent");
  }
}

void PoolDeterminism() {
  perfbench::PoolSpec spec;
  spec.collections = {
      {"ht", ldpm::ProtocolKind::kInpHT, {}, perfbench::RowSource::kTaxi,
       0.5},
      {"rr", ldpm::ProtocolKind::kInpRR, {}, perfbench::RowSource::kMovielens,
       0.5},
  };
  spec.collections[0].config.d = 8;
  spec.collections[1].config.d = 6;
  spec.uploads = 3;
  spec.reports_per_upload = 300;
  spec.reports_per_block = 32;
  spec.max_blocks_per_frame = 3;
  auto a = perfbench::BuildPool(spec, 7, 1);
  auto b = perfbench::BuildPool(spec, 7, 3);
  auto c = perfbench::BuildPool(spec, 8, 1);
  Expect(a.ok() && b.ok() && c.ok(), "pools build");
  if (!a.ok() || !b.ok() || !c.ok()) return;
  bool same = a->uploads.size() == b->uploads.size() && a->rows == b->rows;
  for (size_t i = 0; same && i < a->uploads.size(); ++i) {
    same = a->uploads[i].bytes == b->uploads[i].bytes;
  }
  Expect(same, "same seed, different thread count -> identical pool");
  bool differs = false;
  for (size_t i = 0; i < a->uploads.size(); ++i) {
    differs = differs || a->uploads[i].bytes != c->uploads[i].bytes;
  }
  Expect(differs, "different seed -> different uploads");
  Expect(a->rows == c->rows, "the population is canonical across seeds");
  // 0.5 * 300 / 32 rounds to 5 blocks per collection and upload.
  Expect(a->encoded_reports == 960 && a->uploads[0].reports[0] == 160 &&
             a->uploads[0].blocks[0].size() == 5,
         "report accounting");
  size_t bytes_a = 0, bytes_c = 0;
  for (size_t i = 0; i < a->uploads.size(); ++i) {
    bytes_a += a->uploads[i].bytes.size();
    bytes_c += c->uploads[i].bytes.size();
  }
  Expect(bytes_a > 0 && bytes_c > 0, "uploads are non-empty");
  // Every block of the population is sent exactly once.
  std::vector<size_t> seen;
  for (const auto& u : c->uploads) {
    seen.insert(seen.end(), u.blocks[1].begin(), u.blocks[1].end());
  }
  std::sort(seen.begin(), seen.end());
  bool once = seen.size() == 15;
  for (size_t i = 0; once && i < seen.size(); ++i) once = seen[i] == i;
  Expect(once, "each population block is sent once");
}

}  // namespace

int main() {
  TailRule();
  OpenLoopLateness();
  SpanSelfTime();
  PoolDeterminism();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
