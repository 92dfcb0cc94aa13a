// InpRR: parallel randomized response on the full one-hot input
// (Section 4.2, Theorem 4.3).
//
// Each user expands their value into the 2^d one-hot vector and perturbs
// every cell with (eps/2)-RR (or the Wang-optimized probabilities). The
// aggregator unbiases the per-cell counts into an estimate of the full
// distribution and answers any marginal by aggregation.
//
// Communication: 2^d bits per user. Error: O~(2^{(d+k)/2} / (eps sqrt(N))).
//
// The aggregator keeps one double count per cell. Wire ingest, the hot
// path, never expands a report into positions: it adds the raw bitmaps
// into per-cell byte counters with carry-save bit planes, 15 reports per
// group, using the widest kernel the CPU supports (AVX-512BW, AVX2 or
// scalar, picked once per process; protocols/inp_rr_kernels.h), and folds
// the byte counters into the doubles before any can overflow. Counts are
// integers, so every path leaves bitwise the state per-report Absorb would.

#ifndef LDPM_PROTOCOLS_INP_RR_H_
#define LDPM_PROTOCOLS_INP_RR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "protocols/protocol.h"

namespace ldpm {

namespace inp_rr {
struct Kernel;  // protocols/inp_rr_kernels.h
}  // namespace inp_rr

class InpRrProtocol final : public MarginalProtocol {
 public:
  /// Creates the protocol. Requires d <= kMaxDenseDimensions since the
  /// aggregator materializes the full 2^d count vector.
  static StatusOr<std::unique_ptr<InpRrProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpRR"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;

  /// Validates every position, then adds 1.0 per position to the double
  /// counts. AbsorbBatch is the base class's loop over this.
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: each record payload is the raw 2^d-bit report
  /// bitmap. Groups of up to 15 records are carry-save added straight from
  /// the record bytes into per-cell byte counters by the widest bitmap
  /// kernel this CPU supports (protocols/inp_rr_kernels.h); the byte
  /// counters fold into the double counts every 17 groups and at the end
  /// of the batch. Bitwise-identical to per-report Absorb, including the
  /// absorbed prefix before a record of the wrong size.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  /// Distribution-exact fast path: samples the aggregate per-cell report
  /// counts directly via binomials, avoiding the O(N 2^d) per-user loop.
  Status AbsorbPopulation(const std::vector<uint64_t>& rows, Rng& rng) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;
  void Reset() override;
  Status MergeFrom(const MarginalProtocol& other) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(uint64_t{1} << config_.d);
  }

  /// The underlying unary-encoding mechanism (for tests).
  const UnaryEncoding& mechanism() const { return unary_; }

  /// Name of the bitmap kernel AbsorbWireBatch runs, picked once per
  /// process from the CPU's features ("avx512bw", "avx2" or "scalar").
  std::string_view absorb_kernel() const;

 protected:
  void SaveState(AggregatorSnapshot& snapshot) const override;
  Status LoadState(const AggregatorSnapshot& snapshot) override;

 private:
  InpRrProtocol(const ProtocolConfig& config, UnaryEncoding unary,
                const inp_rr::Kernel& kernel)
      : MarginalProtocol(config), unary_(unary), kernel_(kernel) {
    counts_.assign(uint64_t{1} << config_.d, 0.0);
  }

  /// Adds the byte counters into the double accumulators and re-zeros
  /// them, with the kernel's fold. Integer counts are exact in doubles, so
  /// the fold is bitwise-identical to having added 1.0 per reported
  /// position.
  void FoldByteCounts();

  UnaryEncoding unary_;
  const inp_rr::Kernel& kernel_;
  std::vector<double> counts_;  // reported-one counts per cell

  // Wire-ingest scratch, allocated on first batch and reused: pending
  // per-cell counts, never above 255 between folds.
  std::vector<uint8_t> byte_counts_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_RR_H_
