// In-memory spans recorded by the benchmark around its calls into each
// ldpm layer. Spans nest per thread (the parent is the span open on the
// same thread when a span starts), carry the id of the upload or request
// they belong to, and are kept in per-thread buffers until the run ends,
// when they are collected, summarized and written out. Recording is off
// unless the run was started with --trace 1, and can be toggled while the
// run goes on so traced and untraced slices of one run can be compared.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The repo's modules, plus the benchmark's own generator code.
enum class Layer : uint8_t {
  kGen,
  kProtocols,
  kEngine,
  kNet,
  kQuery,
  kAnalysis,
  kObs,
};
inline constexpr size_t kLayerCount = 7;

const char* LayerName(Layer layer);

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kGen;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< upload/request id, inherited from the parent
  uint32_t thread = 0;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// CPU nanoseconds used so far by every thread of this process
/// (CLOCK_PROCESS_CPUTIME_ID). Time the hypervisor steals from a vCPU is
/// not charged to the thread that was running on it.
int64_t ProcessCpuNs();

namespace tracer {

void SetEnabled(bool enabled);
bool enabled();

/// Every span recorded so far, from every thread. Call when the threads
/// that record have been joined (or are idle).
std::vector<SpanRecord> Collect();

/// Writes spans as CSV (name,layer,start_ns,end_ns,id,parent,request,thread).
bool WriteCsv(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace tracer

/// RAII span. Inert when tracing was disabled at construction. A nonzero
/// `request` starts a new request id for this span and its children.
class Span {
 public:
  Span(Layer layer, const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_request_ = 0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval covered by its children (union of the child intervals clipped
/// to the parent), summed by layer. Nanoseconds.
std::array<double, kLayerCount> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans);

/// Sum of root-span durations: the wall time the benchmark's threads spent
/// inside measured operations.
double RootWallNs(const std::vector<SpanRecord>& spans);

/// Durations (ns) of the spans named `name`.
std::vector<double> SpanDurations(const std::vector<SpanRecord>& spans,
                                  const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
