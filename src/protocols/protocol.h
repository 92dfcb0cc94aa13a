// The shared client/aggregator interface implemented by every marginal-
// release protocol of the paper (Section 4).
//
// A MarginalProtocol bundles the two halves of an LDP deployment:
//
//  * the *client* half — Encode(): runs on the user's device, consumes the
//    user's private d-bit attribute vector plus local randomness, and emits
//    exactly one Report. Encode is const and stateless: a report reveals
//    only what the mechanism's eps-LDP channel allows.
//  * the *aggregator* half — Absorb()/EstimateMarginal(): accumulates
//    reports and answers k-way marginal queries over the collected data.
//
// AbsorbPopulation() is a distribution-exact fast path used by benches: the
// default implementation just loops Encode+Absorb per user; protocols whose
// per-user cost is super-constant (InpRR, whose reports are 2^d bits)
// override it with equivalent aggregate sampling.

#ifndef LDPM_PROTOCOLS_PROTOCOL_H_
#define LDPM_PROTOCOLS_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/contingency_table.h"
#include "core/random.h"
#include "core/status.h"
#include "mechanisms/unary_encoding.h"

namespace ldpm {

/// How aggregate estimates are normalized for protocols where each user
/// samples which piece of information to report.
enum class EstimatorKind {
  /// Divide by the number of users that actually reported each piece
  /// (Algorithm 2 of the paper). Conditionally unbiased, lower variance.
  kRatio,
  /// Divide by the expected number of reporters N * p_s (Horvitz-Thompson;
  /// the estimator the paper's proofs analyze). Unconditionally unbiased.
  kHorvitzThompson,
};

/// One user's LDP report. Field usage varies by protocol; unused fields are
/// left zero/empty. `bits` is the exact wire size of the message per the
/// paper's Table 2 accounting.
struct Report {
  /// Marginal selector beta (Marg* protocols) or coefficient index alpha
  /// (InpHT).
  uint64_t selector = 0;
  /// Reported cell/value index (PS-style protocols), packed reported bit
  /// vector (InpEM), or coefficient index alpha (MargHT).
  uint64_t value = 0;
  /// Secondary payload (e.g. the second hash coefficient of InpOLH).
  uint64_t aux = 0;
  /// Perturbed Hadamard coefficient in {-1, +1} (HT protocols); 0 otherwise.
  int sign = 0;
  /// Positions reported as 1 (PRR-style protocols).
  std::vector<uint64_t> ones;
  /// Wire size of this report in bits.
  double bits = 0.0;
};

/// Configuration shared by all protocols.
struct ProtocolConfig {
  /// Number of binary attributes.
  int d = 0;
  /// Target marginal order: the aggregator must be able to answer every
  /// k'-way marginal with k' <= k (Definition 3.4).
  int k = 2;
  /// The LDP privacy parameter.
  double epsilon = 1.0;
  /// Normalization of sampled-piece estimates (see EstimatorKind).
  EstimatorKind estimator = EstimatorKind::kRatio;
  /// Probability parameterization for PRR-based protocols.
  UnaryVariant unary_variant = UnaryVariant::kOptimized;
  /// MargHT only: if true, users may sample the constant zero coefficient
  /// (the paper-literal 2^k-way sampling); if false (default) only the
  /// 2^k - 1 informative coefficients are sampled.
  bool sample_zero_coefficient = false;
  /// If true, EstimateMarginal post-processes estimates onto the
  /// probability simplex (clamp negatives, renormalize).
  bool project_to_simplex = false;
  /// InpEM only: EM convergence threshold Omega (paper: 1e-5).
  double em_convergence_threshold = 1e-5;
  /// InpEM only: iteration cap as a safety net.
  int em_max_iterations = 200000;
  /// InpES only: cardinalities r_1..r_d of categorical attributes (each
  /// >= 2). Empty means "d binary attributes"; when non-empty it must agree
  /// with d (or d may be left 0 to be derived). The binary protocols ignore
  /// this field — run them over a CategoricalDomain binary encoding instead
  /// (core/encoding.h, Corollary 6.1).
  std::vector<uint32_t> cardinalities;
};

/// A flattened, protocol-agnostic image of an aggregator's accumulated
/// state. Produced by MarginalProtocol::Snapshot() and consumed by
/// Restore(); the engine uses snapshots to re-shard aggregator state
/// without replaying reports.
///
/// Every protocol's aggregator state is a set of additive accumulators
/// (counts, sign sums, InpEM's per-response counts) or, for the InpOLH
/// baseline, an append-only report log; both flatten into the two arrays
/// below. The per-protocol layout is documented at each
/// SaveState() implementation and validated on load.
struct AggregatorSnapshot {
  /// Protocol display name ("InpHT", ...); guards mismatched restores.
  std::string protocol;
  /// The state-shaping configuration of the source aggregator. Estimator,
  /// unary variant, and zero-coefficient sampling don't change array sizes
  /// but do change how the accumulators are interpreted, so a restore into
  /// a mismatched instance must fail rather than silently bias estimates.
  int d = 0;
  int k = 2;
  double epsilon = 0.0;
  EstimatorKind estimator = EstimatorKind::kRatio;
  UnaryVariant unary_variant = UnaryVariant::kOptimized;
  bool sample_zero_coefficient = false;
  /// Bookkeeping counters.
  uint64_t reports_absorbed = 0;
  double total_report_bits = 0.0;
  /// Protocol-specific real-valued accumulators (counts, sign sums).
  std::vector<double> reals;
  /// Protocol-specific integer accumulators (report counts, InpOLH's
  /// report log).
  std::vector<uint64_t> counts;
};

/// Abstract base for all marginal-release protocols.
class MarginalProtocol {
 public:
  virtual ~MarginalProtocol() = default;

  /// Short protocol name matching the paper ("InpHT", "MargPS", ...).
  virtual std::string_view name() const = 0;

  /// The configuration the protocol was created with.
  const ProtocolConfig& config() const { return config_; }

  // ---- Client half -------------------------------------------------------

  /// Encodes one user's private value (a point of {0,1}^d packed into the
  /// low d bits) into a single LDP report.
  virtual Report Encode(uint64_t user_value, Rng& rng) const = 0;

  // ---- Aggregator half ---------------------------------------------------

  /// Accumulates one report. Malformed reports (selector/value outside the
  /// protocol's domain) are rejected with a Status and leave state intact.
  virtual Status Absorb(const Report& report) = 0;

  /// Accumulates `count` reports by calling Absorb on each in order: on a
  /// malformed report the reports before it stay absorbed and its error is
  /// returned (the rest of the batch is not absorbed). The batched fast
  /// paths are the AbsorbWireBatch overrides.
  Status AbsorbBatch(const Report* reports, size_t count);

  /// Wire-level batched ingest: absorbs every record of a wire batch frame
  /// (see protocols/wire.h: records are u32-length-prefixed SerializeReport
  /// payloads, concatenated). The default parses each record into a Report
  /// and absorbs it; overrides parse the fixed per-protocol layouts in
  /// place without materializing Report objects. Same prefix semantics as
  /// AbsorbBatch: records before a malformed one stay absorbed.
  virtual Status AbsorbWireBatch(const uint8_t* data, size_t size);

  /// Feeds an entire population through the protocol. Equivalent in
  /// distribution to calling Encode+Absorb once per row; overridden by
  /// protocols with expensive per-user reports.
  virtual Status AbsorbPopulation(const std::vector<uint64_t>& rows, Rng& rng);

  /// Estimates the marginal for selector beta from the absorbed reports.
  /// Protocols that materialize only k-way information reject |beta| > k.
  virtual StatusOr<MarginalTable> EstimateMarginal(uint64_t beta) const = 0;

  /// Clears all aggregator state (reports absorbed so far).
  virtual void Reset() = 0;

  /// Folds another aggregator's accumulated state into this one, as if this
  /// instance had absorbed every report the other absorbed. The other
  /// aggregator must be the same protocol with a state-compatible
  /// configuration; on error this aggregator is left unchanged. This is the
  /// mergeability property the sharded engine builds on: all aggregator
  /// state is additive accumulators (or InpOLH's append-only report log).
  virtual Status MergeFrom(const MarginalProtocol& other) = 0;

  /// Captures the full aggregator state as a protocol-agnostic snapshot.
  AggregatorSnapshot Snapshot() const;

  /// Replaces this aggregator's state with a snapshot previously taken from
  /// a protocol-and-config-compatible instance. On error the current state
  /// is left unchanged.
  Status Restore(const AggregatorSnapshot& snapshot);

  /// Number of reports absorbed.
  uint64_t reports_absorbed() const { return reports_absorbed_; }

  /// Total measured communication of absorbed reports, in bits.
  double total_report_bits() const { return total_report_bits_; }

  /// Closed-form per-user communication in bits (Table 2 of the paper).
  virtual double TheoreticalBitsPerUser() const = 0;

 protected:
  explicit MarginalProtocol(const ProtocolConfig& config) : config_(config) {}

  /// Validates fields common to all protocols.
  static Status ValidateCommon(const ProtocolConfig& config);

  /// Appends this protocol's accumulators to `snapshot.reals` /
  /// `snapshot.counts` (layout documented per protocol).
  virtual void SaveState(AggregatorSnapshot& snapshot) const = 0;

  /// Replaces this protocol's accumulators from a snapshot whose layout and
  /// sizes must match SaveState's. Bookkeeping is handled by Restore().
  virtual Status LoadState(const AggregatorSnapshot& snapshot) = 0;

  /// Shared MergeFrom preamble: the other aggregator must report the same
  /// protocol name and carry a state-compatible configuration.
  Status CheckMergeCompatible(const MarginalProtocol& other) const;

  /// Folds the other aggregator's bookkeeping counters into this one's.
  void MergeBookkeeping(const MarginalProtocol& other) {
    reports_absorbed_ += other.reports_absorbed_;
    total_report_bits_ += other.total_report_bits_;
  }

  /// Bookkeeping helper for Absorb implementations.
  void NoteAbsorbed(const Report& report) {
    ++reports_absorbed_;
    total_report_bits_ += report.bits;
  }

  /// Batch bookkeeping: equivalent to `count` NoteAbsorbed calls of
  /// `bits_per_report` each. Bitwise-identical to the per-report adds as
  /// long as the bit counts are integers and totals stay below 2^53, which
  /// holds for every protocol (Table 2 costs are exact bit counts).
  void NoteAbsorbedBatch(uint64_t count, double bits_per_report) {
    reports_absorbed_ += count;
    total_report_bits_ += static_cast<double>(count) * bits_per_report;
  }

  /// Clears the bookkeeping counters; called by Reset() implementations.
  void ResetBookkeeping() {
    reports_absorbed_ = 0;
    total_report_bits_ = 0.0;
  }

  /// Applies the configured post-processing to a finished estimate.
  MarginalTable PostProcess(MarginalTable m) const {
    if (config_.project_to_simplex) m.ProjectToSimplex();
    return m;
  }

  /// The immutable configuration this protocol was created with.
  ProtocolConfig config_;

 private:
  uint64_t reports_absorbed_ = 0;
  double total_report_bits_ = 0.0;
};

}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_PROTOCOL_H_
