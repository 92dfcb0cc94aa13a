// The three pipeline workloads and their correctness gates.
//
//   ingest_mux     closed loop: 2 FrameClient connections upload multi-MB
//                  interleaved streams into InpHT (taxi, d=8), MargPS and
//                  InpEM (MovieLens, d=8) collections of 2 shards each,
//                  while a ticker checkpoints the collector once a second.
//   ingest_bitmap  the same shape into one InpRR collection at d=12
//                  (512-byte reports); absorb-bound; no checkpoints.
//   serve_mixed    open loop over a taxi population restored from a
//                  checkpoint: /v1/marginal (+ some /v1/model) GETs at a
//                  fixed rate, small device-shaped uploads at a lower
//                  rate, and a /metrics scrape each second.
//
// Every run checks its outputs: exact report counts, networked state
// equal to a direct IngestFrames pass over the same uploads, served cells
// bitwise-equal to Query + MakeConsistent, and accuracy within a stated
// multiple of PredictedError.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch files (checkpoints, spans, records)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  double tail_percentile = 0.0;  ///< set on `_tail` metrics
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// Human-readable lines (the per-layer table) printed before the result.
  std::vector<std::string> report;

  void Fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
};

bool IsWorkload(const std::string& name);

Outcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
