#include "protocols/inp_ht.h"

#include <string>

#include "core/bits.h"
#include "protocols/wire.h"

namespace ldpm {

InpHtProtocol::InpHtProtocol(const ProtocolConfig& config,
                             RandomizedResponse rr,
                             std::vector<uint64_t> alphas)
    : MarginalProtocol(config), rr_(rr), alphas_(std::move(alphas)) {
  rank_offsets_.assign(static_cast<size_t>(config.k) + 1, 0);
  for (int r = 2; r <= config.k; ++r) {
    rank_offsets_[r] = rank_offsets_[r - 1] + BinomialLookup(config.d, r - 1);
  }
  sign_sums_.assign(alphas_.size(), 0.0);
  counts_.assign(alphas_.size(), 0);
}

size_t InpHtProtocol::AlphaIndexOf(uint64_t alpha) const {
  const int pc = Popcount(alpha);
  if (pc < 1 || pc > config_.k) return kNoIndex;
  if (alpha >= (uint64_t{1} << config_.d)) return kNoIndex;
  return rank_offsets_[pc] + CombinationRank(alpha);
}

StatusOr<std::unique_ptr<InpHtProtocol>> InpHtProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  const uint64_t t_size = LowOrderCoefficientCount(config.d, config.k);
  // Keep the coefficient table addressable; |T| = O(d^k) so this only
  // triggers for extreme (d, k) combinations.
  if (t_size > (uint64_t{1} << 28)) {
    return Status::InvalidArgument(
        "InpHT: coefficient set too large (|T| = " + std::to_string(t_size) +
        ")");
  }
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon);
  if (!rr.ok()) return rr.status();
  return std::unique_ptr<InpHtProtocol>(
      new InpHtProtocol(config, *rr, LowOrderMasks(config.d, config.k)));
}

Report InpHtProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  const size_t pick = rng.UniformInt(alphas_.size());
  const uint64_t alpha = alphas_[pick];
  const int sign = HadamardSignInt(user_value, alpha);
  report.selector = alpha;
  report.sign = rr_.PerturbSign(sign, rng);
  report.bits = static_cast<double>(config_.d) + 1.0;
  return report;
}

Status InpHtProtocol::Absorb(const Report& report) {
  const size_t idx = AlphaIndexOf(report.selector);
  if (idx == kNoIndex) {
    return Status::InvalidArgument(
        "InpHT::Absorb: coefficient index not in the sampled set T");
  }
  if (report.sign != -1 && report.sign != 1) {
    return Status::InvalidArgument("InpHT::Absorb: sign must be -1 or +1");
  }
  sign_sums_[idx] += static_cast<double>(report.sign);
  counts_[idx] += 1;
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpHtProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 1 + 7) / 8;
  const uint64_t selector_mask = (uint64_t{1} << d) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpHT::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const uint64_t alpha = word & selector_mask;
    const size_t idx = AlphaIndexOf(alpha);
    if (idx == kNoIndex) {
      error = Status::InvalidArgument(
          "InpHT::Absorb: coefficient index not in the sampled set T");
      break;
    }
    sign_sums_[idx] += ((word >> d) & 1) ? 1.0 : -1.0;
    counts_[idx] += 1;
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, static_cast<double>(d) + 1.0);
  return error;
}

StatusOr<FourierCoefficients> InpHtProtocol::EstimateCoefficients() const {
  const uint64_t n = reports_absorbed();
  if (n == 0) {
    return Status::FailedPrecondition("InpHT: no reports absorbed");
  }
  FourierCoefficients fc(config_.d);
  const double expected_per_coeff =
      static_cast<double>(n) / static_cast<double>(alphas_.size());
  for (size_t i = 0; i < alphas_.size(); ++i) {
    double raw_mean = 0.0;
    if (config_.estimator == EstimatorKind::kRatio) {
      raw_mean = counts_[i] > 0
                     ? sign_sums_[i] / static_cast<double>(counts_[i])
                     : 0.0;
    } else {
      raw_mean = sign_sums_[i] / expected_per_coeff;
    }
    fc.Set(alphas_[i], rr_.UnbiasSignMean(raw_mean));
  }
  return fc;
}

StatusOr<MarginalTable> InpHtProtocol::EstimateMarginal(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpHT: beta outside domain");
  }
  if (Popcount(beta) > config_.k) {
    return Status::InvalidArgument(
        "InpHT: query order exceeds configured k = " +
        std::to_string(config_.k));
  }
  auto fc = EstimateCoefficients();
  if (!fc.ok()) return fc.status();
  auto m = fc->ReconstructMarginal(beta);
  if (!m.ok()) return m.status();
  return PostProcess(*std::move(m));
}

void InpHtProtocol::Reset() {
  sign_sums_.assign(sign_sums_.size(), 0.0);
  counts_.assign(counts_.size(), 0);
  ResetBookkeeping();
}

Status InpHtProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpHtProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpHT::MergeFrom: type mismatch");
  }
  for (size_t i = 0; i < sign_sums_.size(); ++i) {
    sign_sums_[i] += peer->sign_sums_[i];
    counts_[i] += peer->counts_[i];
  }
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: reals = per-coefficient sign sums (|T| entries);
// counts = per-coefficient report counts (|T| entries).
void InpHtProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.reals = sign_sums_;
  snapshot.counts = counts_;
}

Status InpHtProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  if (snapshot.reals.size() != sign_sums_.size() ||
      snapshot.counts.size() != counts_.size()) {
    return Status::InvalidArgument("InpHT::Restore: malformed snapshot");
  }
  sign_sums_ = snapshot.reals;
  counts_ = snapshot.counts;
  return Status::OK();
}

}  // namespace ldpm
