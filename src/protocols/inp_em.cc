#include "protocols/inp_em.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/bits.h"
#include "protocols/wire.h"

namespace ldpm {

StatusOr<std::unique_ptr<InpEmProtocol>> InpEmProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (!(config.em_convergence_threshold > 0.0)) {
    return Status::InvalidArgument(
        "InpEM: convergence threshold must be > 0");
  }
  if (config.em_max_iterations < 1) {
    return Status::InvalidArgument("InpEM: iteration cap must be >= 1");
  }
  auto rr = RandomizedResponse::FromEpsilon(config.epsilon /
                                            static_cast<double>(config.d));
  if (!rr.ok()) return rr.status();
  return std::unique_ptr<InpEmProtocol>(new InpEmProtocol(config, *rr));
}

Report InpEmProtocol::Encode(uint64_t user_value, Rng& rng) const {
  Report report;
  uint64_t out = 0;
  for (int b = 0; b < config_.d; ++b) {
    const int bit = static_cast<int>((user_value >> b) & 1);
    if (per_bit_rr_.PerturbBit(bit, rng)) out |= uint64_t{1} << b;
  }
  report.value = out;
  report.bits = static_cast<double>(config_.d);
  return report;
}

Status InpEmProtocol::Absorb(const Report& report) {
  if (config_.d < 64 && report.value >= (uint64_t{1} << config_.d)) {
    return Status::InvalidArgument("InpEM::Absorb: response outside domain");
  }
  reports_.push_back(report.value);
  NoteAbsorbed(report);
  return Status::OK();
}

// Grows the report log for `additional` entries while preserving the
// vector's geometric growth (a bare reserve(size + n) per batch would pin
// capacity to the exact size and turn repeated batches quadratic).
void InpEmProtocol::ReserveLog(size_t additional) {
  const size_t needed = reports_.size() + additional;
  if (needed <= reports_.capacity()) return;
  reports_.reserve(std::max(needed, reports_.capacity() * 2));
}

Status InpEmProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 7) / 8;
  // Every record is framed as 4 length bytes + the payload.
  ReserveLog(size / (4 + payload_bytes));
  const uint64_t value_mask = (uint64_t{1} << d) - 1;
  WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  uint64_t absorbed = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpEM::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    reports_.push_back(LoadWireWord(record, record_size) & value_mask);
    ++absorbed;
  }
  if (error.ok()) error = reader.status();
  NoteAbsorbedBatch(absorbed, static_cast<double>(d));
  return error;
}

StatusOr<EmDecodeResult> InpEmProtocol::Decode(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpEM: beta outside domain");
  }
  const int k = Popcount(beta);
  if (k < 1 || k > 20) {
    return Status::InvalidArgument("InpEM: marginal order must be in [1, 20]");
  }
  if (reports_.empty()) {
    return Status::FailedPrecondition("InpEM: no reports absorbed");
  }

  const uint64_t cells = uint64_t{1} << k;

  // Observed counts over the 2^k response combinations for beta's bits.
  std::vector<double> observed(cells, 0.0);
  for (uint64_t r : reports_) observed[ExtractBits(r, beta)] += 1.0;
  const double n = static_cast<double>(reports_.size());
  for (double& o : observed) o /= n;

  // Channel likelihoods Q(y|z) depend only on the Hamming distance between
  // observed y and latent z across the k projected bits.
  const double p = per_bit_rr_.keep_probability();
  std::vector<double> q_by_distance(k + 1);
  for (int h = 0; h <= k; ++h) {
    q_by_distance[h] = std::pow(1.0 - p, h) * std::pow(p, k - h);
  }

  EmDecodeResult result{MarginalTable::Uniform(config_.d, beta)};
  std::vector<double> mu(result.estimate.values());
  std::vector<double> next(cells, 0.0);

  for (int iter = 1; iter <= config_.em_max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    // E + M fused: next(z) = sum_y obs(y) * mu(z) Q(y|z) / sum_z' mu(z')Q(y|z')
    for (uint64_t y = 0; y < cells; ++y) {
      if (observed[y] == 0.0) continue;
      double denom = 0.0;
      for (uint64_t z = 0; z < cells; ++z) {
        denom += mu[z] * q_by_distance[Popcount(y ^ z)];
      }
      if (denom <= 0.0) continue;
      const double w = observed[y] / denom;
      for (uint64_t z = 0; z < cells; ++z) {
        next[z] += w * mu[z] * q_by_distance[Popcount(y ^ z)];
      }
    }

    // "Change in the current guess" is measured as the max per-cell move
    // (L-infinity); see the header note on the failure criterion.
    double change = 0.0;
    for (uint64_t z = 0; z < cells; ++z) {
      change = std::max(change, std::fabs(next[z] - mu[z]));
    }
    mu = next;
    result.iterations = iter;
    result.final_change = change;
    if (change < config_.em_convergence_threshold) {
      result.failed_to_leave_prior = (iter == 1);
      break;
    }
  }

  result.estimate.values() = mu;
  return result;
}

StatusOr<MarginalTable> InpEmProtocol::EstimateMarginal(uint64_t beta) const {
  auto decoded = Decode(beta);
  if (!decoded.ok()) return decoded.status();
  return PostProcess(std::move(decoded->estimate));
}

void InpEmProtocol::Reset() {
  reports_.clear();
  ResetBookkeeping();
}

Status InpEmProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpEmProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpEM::MergeFrom: type mismatch");
  }
  // The report log is append-only; decoding histograms the log, so the
  // concatenation order is immaterial.
  reports_.insert(reports_.end(), peer->reports_.begin(),
                  peer->reports_.end());
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: counts = the packed perturbed d-bit responses, in arrival order.
void InpEmProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.counts = reports_;
}

Status InpEmProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  if (!snapshot.reals.empty() ||
      snapshot.counts.size() != snapshot.reports_absorbed) {
    return Status::InvalidArgument("InpEM::Restore: malformed snapshot");
  }
  const uint64_t domain_bound =
      config_.d < 64 ? (uint64_t{1} << config_.d) : ~uint64_t{0};
  for (uint64_t r : snapshot.counts) {
    if (config_.d < 64 && r >= domain_bound) {
      return Status::InvalidArgument(
          "InpEM::Restore: logged response outside domain");
    }
  }
  reports_ = snapshot.counts;
  return Status::OK();
}

}  // namespace ldpm
