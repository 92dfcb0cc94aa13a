#include "protocols/marg_ht.h"

#include <string>

#include "core/bits.h"
#include "protocols/wire.h"

namespace ldpm {

MargHtProtocol::MargHtProtocol(const ProtocolConfig& config,
                               RandomizedResponse rr)
    : MargProtocolBase(config), rr_(rr) {
  const uint64_t cells = uint64_t{1} << config_.k;
  sign_sums_.assign(selectors().size(), std::vector<double>(cells, 0.0));
  coeff_counts_.assign(selectors().size(), std::vector<uint64_t>(cells, 0));
}

StatusOr<std::unique_ptr<MargHtProtocol>> MargHtProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateMarg(config));
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon);
  if (!rr.ok()) return rr.status();
  return std::unique_ptr<MargHtProtocol>(new MargHtProtocol(config, *rr));
}

Report MargHtProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  const size_t idx = SampleSelectorIndex(rng);
  const uint64_t beta = selectors()[idx];
  // Sample a compact coefficient index r; alpha = DepositBits(r, beta).
  // Without the zero coefficient, r is uniform over [1, 2^k).
  uint64_t r;
  if (config_.sample_zero_coefficient) {
    r = rng.UniformInt(uint64_t{1} << config_.k);
  } else {
    r = 1 + rng.UniformInt((uint64_t{1} << config_.k) - 1);
  }
  const uint64_t alpha = DepositBits(r, beta);
  const int sign = HadamardSignInt(user_value, alpha);
  report.selector = beta;
  report.value = r;
  report.sign = rr_.PerturbSign(sign, rng);
  report.bits = TheoreticalBitsPerUser();
  return report;
}

Status MargHtProtocol::Absorb(const Report& report) {
  auto idx = SelectorIndexOf(report.selector);
  if (!idx.ok()) {
    return Status::InvalidArgument("MargHT::Absorb: unknown selector");
  }
  if (report.value >= (uint64_t{1} << config_.k) ||
      (report.value == 0 && !config_.sample_zero_coefficient)) {
    return Status::InvalidArgument(
        "MargHT::Absorb: coefficient index outside the sampled set");
  }
  if (report.sign != -1 && report.sign != 1) {
    return Status::InvalidArgument("MargHT::Absorb: sign must be -1 or +1");
  }
  sign_sums_[*idx][report.value] += static_cast<double>(report.sign);
  coeff_counts_[*idx][report.value] += 1;
  NoteSelectorReport(*idx);
  NoteAbsorbed(report);
  return Status::OK();
}

Status MargHtProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const int k = config_.k;
  const uint64_t total_bits = static_cast<uint64_t>(d) + k + 1;
  if (total_bits > 64) {
    return MarginalProtocol::AbsorbWireBatch(data, size);
  }
  const size_t payload_bytes = (total_bits + 7) / 8;
  const uint64_t selector_mask = (uint64_t{1} << d) - 1;
  const uint64_t value_mask = (uint64_t{1} << k) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "MargHT::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    const uint64_t word = LoadWireWord(record, record_size);
    const size_t idx = SelectorIndexFast(word & selector_mask);
    if (idx == kNoSelector) {
      error = Status::InvalidArgument("MargHT::Absorb: unknown selector");
      break;
    }
    const uint64_t r = (word >> d) & value_mask;
    if (r == 0 && !config_.sample_zero_coefficient) {
      error = Status::InvalidArgument(
          "MargHT::Absorb: coefficient index outside the sampled set");
      break;
    }
    sign_sums_[idx][r] += ((word >> (d + k)) & 1) ? 1.0 : -1.0;
    coeff_counts_[idx][r] += 1;
    NoteSelectorReport(idx);
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, TheoreticalBitsPerUser());
  return error;
}

StatusOr<MarginalTable> MargHtProtocol::EstimateExactKWay(size_t idx) const {
  const uint64_t cells = uint64_t{1} << config_.k;
  // Estimate the 2^k - 1 informative coefficients of this marginal; f_0 = 1.
  std::vector<double> f(cells, 0.0);
  f[0] = 1.0;
  const double expected_per_coeff =
      static_cast<double>(reports_absorbed()) /
      (static_cast<double>(selectors().size()) *
       static_cast<double>(CoefficientChoices()));
  for (uint64_t r = 1; r < cells; ++r) {
    double raw_mean = 0.0;
    if (config_.estimator == EstimatorKind::kRatio) {
      const uint64_t cnt = coeff_counts_[idx][r];
      raw_mean = cnt > 0 ? sign_sums_[idx][r] / static_cast<double>(cnt) : 0.0;
    } else {
      raw_mean = expected_per_coeff > 0.0
                     ? sign_sums_[idx][r] / expected_per_coeff
                     : 0.0;
    }
    f[r] = rr_.UnbiasSignMean(raw_mean);
  }

  // Reconstruct the 2^k cells: C[c] = 2^{-k} sum_r f_r (-1)^{<r, c>}, where
  // compact indices inherit the inner product from the deposited masks.
  MarginalTable m(config_.d, selectors()[idx]);
  const double scale = 1.0 / static_cast<double>(cells);
  for (uint64_t c = 0; c < cells; ++c) {
    double v = 0.0;
    for (uint64_t r = 0; r < cells; ++r) {
      v += f[r] * HadamardSign(r, c);
    }
    m.at_compact(c) = v * scale;
  }
  return m;
}

void MargHtProtocol::Reset() {
  for (auto& s : sign_sums_) s.assign(s.size(), 0.0);
  for (auto& c : coeff_counts_) c.assign(c.size(), 0);
  ResetSelectorCounts();
  ResetBookkeeping();
}

Status MargHtProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const MargHtProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("MargHT::MergeFrom: type mismatch");
  }
  for (size_t s = 0; s < sign_sums_.size(); ++s) {
    for (size_t r = 0; r < sign_sums_[s].size(); ++r) {
      sign_sums_[s][r] += peer->sign_sums_[s][r];
      coeff_counts_[s][r] += peer->coeff_counts_[s][r];
    }
  }
  MergeSelectorCounts(*peer);
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: reals = sign_sums_ flattened selector-major (C(d,k) * 2^k);
// counts = per-selector report counts (C(d,k)) followed by coeff_counts_
// flattened selector-major (C(d,k) * 2^k).
void MargHtProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  SaveSelectorCounts(snapshot);
  for (const auto& per_selector : sign_sums_) {
    snapshot.reals.insert(snapshot.reals.end(), per_selector.begin(),
                          per_selector.end());
  }
  for (const auto& per_selector : coeff_counts_) {
    snapshot.counts.insert(snapshot.counts.end(), per_selector.begin(),
                           per_selector.end());
  }
}

Status MargHtProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  const uint64_t cells = uint64_t{1} << config_.k;
  const size_t num_selectors = sign_sums_.size();
  if (snapshot.reals.size() != num_selectors * cells ||
      snapshot.counts.size() != num_selectors + num_selectors * cells) {
    return Status::InvalidArgument("MargHT::Restore: malformed snapshot");
  }
  LDPM_RETURN_IF_ERROR(LoadSelectorCounts(snapshot));
  for (size_t s = 0; s < num_selectors; ++s) {
    std::copy(snapshot.reals.begin() + s * cells,
              snapshot.reals.begin() + (s + 1) * cells,
              sign_sums_[s].begin());
    const auto counts_begin =
        snapshot.counts.begin() + num_selectors + s * cells;
    std::copy(counts_begin, counts_begin + cells, coeff_counts_[s].begin());
  }
  return Status::OK();
}

}  // namespace ldpm
