// InpEM: budget-split randomized response over attributes with
// expectation-maximization decoding (Section 4.4; the approach of Fanti,
// Pihur & Erlingsson adapted from RAPPOR's "unknown dictionary" setting).
//
// Client: each of the d attribute bits is perturbed independently with
// (eps/d)-RR (budget splitting), so the whole d-bit response is eps-LDP by
// sequential composition. Communication: d bits.
//
// Aggregator: the histogram of distinct d-bit responses is a sufficient
// statistic for every decode, so the aggregator keeps one count per
// observed response rather than a log of reports: a dense 2^d array for
// d <= kDenseMaxDimensions, a sorted (value, count) table above that.
// Memory is O(distinct responses), independent of the number of reports.
// To decode a target marginal beta, the counts are projected onto beta's
// attributes, giving observed counts n_y over the 2^k response
// combinations. Starting from the uniform guess, EM alternates
//
//   E: q(z|y) ∝ mu(z) * Q(y|z)     (Q = the known per-bit RR channel)
//   M: mu(z) <- sum_y (n_y / N) q(z|y)
//
// until the change in the guess falls below the threshold Omega (paper:
// 1e-5; we measure the change as the maximum per-cell move). The paper
// observes a characteristic *failure mode*: for small eps the first
// iteration already moves less than Omega, so EM terminates immediately and
// returns the uniform prior (Table 3 counts these failures).
//
// This is a heuristic without worst-case accuracy guarantees; it is
// included as the comparison baseline for Figures 6 and Table 3.

#ifndef LDPM_PROTOCOLS_INP_EM_H_
#define LDPM_PROTOCOLS_INP_EM_H_

#include <memory>
#include <vector>

#include "mechanisms/randomized_response.h"
#include "protocols/protocol.h"

namespace ldpm {

/// Outcome of one EM decode, with convergence diagnostics.
struct EmDecodeResult {
  MarginalTable estimate;
  /// Number of EM iterations performed.
  int iterations = 0;
  /// True when EM converged on the very first iteration and therefore
  /// returned the uniform prior — the paper's failure criterion.
  bool failed_to_leave_prior = false;
  /// Final L1 change between successive guesses.
  double final_change = 0.0;
};

class InpEmProtocol final : public MarginalProtocol {
 public:
  /// Widest domain kept as a dense count array (2^16 counts, 512 KiB);
  /// wider domains use the sorted (value, count) table.
  static constexpr int kDenseMaxDimensions = 16;

  /// First entry of a counts-layout snapshot (see SaveState). Every
  /// logged response is < 2^d <= 2^kMaxDimensions < this tag, so a
  /// legacy log-layout snapshot can never start with it.
  static constexpr uint64_t kCountsLayoutTag = ~uint64_t{0};

  static StatusOr<std::unique_ptr<InpEmProtocol>> Create(
      const ProtocolConfig& config);

  std::string_view name() const override { return "InpEM"; }

  Report Encode(uint64_t user_value, Rng& rng) const override;
  Status Absorb(const Report& report) override;

  /// Zero-copy wire ingest: each record is the packed d-bit response,
  /// counted without materializing Report objects.
  Status AbsorbWireBatch(const uint8_t* data, size_t size) override;

  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const override;
  void Reset() override;
  Status MergeFrom(const MarginalProtocol& other) override;

  double TheoreticalBitsPerUser() const override {
    return static_cast<double>(config_.d);
  }

  /// EM decode with full diagnostics (iteration count, failure flag).
  StatusOr<EmDecodeResult> Decode(uint64_t beta) const;

  /// The per-bit RR mechanism, running at eps/d (for tests).
  const RandomizedResponse& per_bit_mechanism() const { return per_bit_rr_; }

 protected:
  void SaveState(AggregatorSnapshot& snapshot) const override;
  Status LoadState(const AggregatorSnapshot& snapshot) override;

 private:
  /// One row of the sparse count table.
  struct ValueCount {
    uint64_t value;
    uint64_t count;
  };

  /// The sparse path folds its buffer of new responses into the table
  /// once the buffer holds max(table rows, kMinFoldRows) responses.
  static constexpr size_t kMinFoldRows = 4096;

  InpEmProtocol(const ProtocolConfig& config, RandomizedResponse per_bit_rr);

  bool dense() const { return config_.d <= kDenseMaxDimensions; }

  /// Sorts `values` into one row per distinct value.
  static std::vector<ValueCount> RunLengths(std::vector<uint64_t> values);

  /// Merges two tables (each strictly increasing by value), adding the
  /// counts of values present in both.
  static std::vector<ValueCount> MergeTables(const std::vector<ValueCount>& a,
                                             const std::vector<ValueCount>& b);

  /// Sparse path: the table with the unfolded responses merged in.
  std::vector<ValueCount> FoldedTable() const;

  /// Sparse path: buffers one response, folding when the buffer is full.
  void AppendSparse(uint64_t value);

  RandomizedResponse per_bit_rr_;
  /// d <= kDenseMaxDimensions: dense_[v] = reports with response v.
  std::vector<uint64_t> dense_;
  /// d > kDenseMaxDimensions: counts per distinct response, strictly
  /// increasing by value, every count > 0 ...
  std::vector<ValueCount> table_;
  /// ... plus the responses absorbed since the last fold (count 1 each,
  /// unsorted). Bounded by max(table_.size(), kMinFoldRows), so memory
  /// stays O(distinct responses).
  std::vector<uint64_t> unfolded_;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_EM_H_
