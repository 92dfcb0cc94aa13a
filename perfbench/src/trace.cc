#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> open;  // stack of open span ids
  uint64_t request = 0;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

// Buffers are owned by the global list, so spans of threads that already
// exited stay collectable.
ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    owned->thread = static_cast<uint32_t>(Buffers().size());
    Buffers().push_back(std::move(owned));
    return Buffers().back().get();
  }();
  return *buffer;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "gen";
    case Layer::kProtocols: return "protocols";
    case Layer::kEngine: return "engine";
    case Layer::kNet: return "net";
    case Layer::kQuery: return "query";
    case Layer::kAnalysis: return "analysis";
    case Layer::kObs: return "obs";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec t{};
  (void)clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

namespace tracer {

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool WriteCsv(const std::vector<SpanRecord>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,layer,start_ns,end_ns,id,parent,request,thread\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%s,%s,%lld,%lld,%llu,%llu,%llu,%u\n", s.name,
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace tracer

Span::Span(Layer layer, const char* name, uint64_t request) {
  if (!tracer::enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  active_ = true;
  saved_request_ = buffer.request;
  if (request != 0) buffer.request = request;
  record_.name = name;
  record_.layer = layer;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  record_.request = buffer.request;
  record_.thread = buffer.thread;
  buffer.open.push_back(record_.id);
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.request = saved_request_;
  buffer.spans.push_back(record_);
}

std::array<double, kLayerCount> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::array<double, kLayerCount> self{};
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals;
      for (const SpanRecord* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : intervals) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    self[static_cast<size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

double RootWallNs(const std::vector<SpanRecord>& spans) {
  double wall = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) wall += static_cast<double>(s.end_ns - s.start_ns);
  }
  return wall;
}

std::vector<double> SpanDurations(const std::vector<SpanRecord>& spans,
                                  const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

}  // namespace perfbench
