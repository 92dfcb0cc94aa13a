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

InpEmProtocol::InpEmProtocol(const ProtocolConfig& config,
                             RandomizedResponse per_bit_rr)
    : MarginalProtocol(config), per_bit_rr_(per_bit_rr) {
  if (dense()) dense_.assign(size_t{1} << config.d, 0);
}

Status InpEmProtocol::Absorb(const Report& report) {
  if (config_.d < 64 && report.value >= (uint64_t{1} << config_.d)) {
    return Status::InvalidArgument("InpEM::Absorb: response outside domain");
  }
  if (dense()) {
    ++dense_[report.value];
  } else {
    AppendSparse(report.value);
  }
  NoteAbsorbed(report);
  return Status::OK();
}

Status InpEmProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const int d = config_.d;
  const size_t payload_bytes = (static_cast<size_t>(d) + 7) / 8;
  const uint64_t value_mask = (uint64_t{1} << d) - 1;
  // One record loop per storage kind, so the per-record path does not
  // re-test which one this aggregator uses.
  const auto absorb_records = [&](auto&& count_response) {
    WireBatchReader reader(data, size);
    const uint8_t* record = nullptr;
    size_t record_size = 0;
    uint64_t absorbed = 0;
    Status error = Status::OK();
    while (reader.Next(record, record_size)) {
      if (record_size != payload_bytes) {
        error = Status::InvalidArgument(
            "InpEM::AbsorbWireBatch: record is " +
            std::to_string(record_size) + " bytes, expected " +
            std::to_string(payload_bytes));
        break;
      }
      count_response(LoadWireWord(record, record_size) & value_mask);
      ++absorbed;
    }
    if (error.ok()) error = reader.status();
    NoteAbsorbedBatch(absorbed, static_cast<double>(d));
    return error;
  };
  if (dense()) {
    uint64_t* const counts = dense_.data();
    return absorb_records([counts](uint64_t response) { ++counts[response]; });
  }
  return absorb_records(
      [this](uint64_t response) { AppendSparse(response); });
}

std::vector<InpEmProtocol::ValueCount> InpEmProtocol::RunLengths(
    std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  std::vector<ValueCount> rows;
  for (uint64_t v : values) {
    if (!rows.empty() && rows.back().value == v) {
      ++rows.back().count;
    } else {
      rows.push_back({v, 1});
    }
  }
  return rows;
}

std::vector<InpEmProtocol::ValueCount> InpEmProtocol::MergeTables(
    const std::vector<ValueCount>& a, const std::vector<ValueCount>& b) {
  std::vector<ValueCount> merged;
  merged.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].value < b[j].value) {
      merged.push_back(a[i++]);
    } else if (b[j].value < a[i].value) {
      merged.push_back(b[j++]);
    } else {
      merged.push_back({a[i].value, a[i].count + b[j].count});
      ++i;
      ++j;
    }
  }
  merged.insert(merged.end(), a.begin() + i, a.end());
  merged.insert(merged.end(), b.begin() + j, b.end());
  return merged;
}

std::vector<InpEmProtocol::ValueCount> InpEmProtocol::FoldedTable() const {
  if (unfolded_.empty()) return table_;
  return MergeTables(table_, RunLengths(unfolded_));
}

// Folding once the buffer reaches the table's size keeps the amortized
// fold cost per response at O(log n), and the buffer's memory within the
// table's (or the kMinFoldRows floor's).
void InpEmProtocol::AppendSparse(uint64_t value) {
  unfolded_.push_back(value);
  if (unfolded_.size() >= std::max(table_.size(), kMinFoldRows)) {
    table_ = FoldedTable();
    unfolded_.clear();
  }
}

StatusOr<EmDecodeResult> InpEmProtocol::Decode(uint64_t beta) const {
  if (config_.d < 64 && beta >= (uint64_t{1} << config_.d)) {
    return Status::OutOfRange("InpEM: beta outside domain");
  }
  const int k = Popcount(beta);
  if (k < 1 || k > 20) {
    return Status::InvalidArgument("InpEM: marginal order must be in [1, 20]");
  }
  if (reports_absorbed() == 0) {
    return Status::FailedPrecondition("InpEM: no reports absorbed");
  }

  const uint64_t cells = uint64_t{1} << k;

  // Observed counts over the 2^k response combinations for beta's bits.
  // Every partial sum is an integer below 2^53, so the totals are exact
  // and independent of the order the counts are visited in.
  std::vector<double> observed(cells, 0.0);
  uint64_t total = 0;
  const auto observe = [&](uint64_t response, uint64_t count) {
    observed[ExtractBits(response, beta)] += static_cast<double>(count);
    total += count;
  };
  if (dense()) {
    for (uint64_t v = 0; v < dense_.size(); ++v) {
      if (dense_[v] != 0) observe(v, dense_[v]);
    }
  } else {
    for (const ValueCount& row : table_) observe(row.value, row.count);
    for (uint64_t v : unfolded_) observe(v, 1);
  }
  const double n = static_cast<double>(total);
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
  std::fill(dense_.begin(), dense_.end(), 0);
  table_.clear();
  unfolded_.clear();
  ResetBookkeeping();
}

Status InpEmProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpEmProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpEM::MergeFrom: type mismatch");
  }
  if (dense()) {
    for (size_t v = 0; v < dense_.size(); ++v) dense_[v] += peer->dense_[v];
  } else {
    table_ = MergeTables(FoldedTable(), peer->FoldedTable());
    unfolded_.clear();
  }
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout (every d): reals = []; counts = [kCountsLayoutTag, v0, c0, v1, c1,
// ...], one (response, count) pair per distinct response, responses
// strictly increasing, every count > 0, counts summing to
// reports_absorbed.
void InpEmProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.counts.push_back(kCountsLayoutTag);
  if (dense()) {
    for (uint64_t v = 0; v < dense_.size(); ++v) {
      if (dense_[v] == 0) continue;
      snapshot.counts.push_back(v);
      snapshot.counts.push_back(dense_[v]);
    }
    return;
  }
  const std::vector<ValueCount> rows = FoldedTable();
  snapshot.counts.reserve(1 + 2 * rows.size());
  for (const ValueCount& row : rows) {
    snapshot.counts.push_back(row.value);
    snapshot.counts.push_back(row.count);
  }
}

// Also accepts the legacy log layout written by builds that kept every
// report (counts = one response per report, in arrival order), so v1 and
// v2 checkpoint files from those builds restore to identical marginals.
Status InpEmProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  if (!snapshot.reals.empty()) {
    return Status::InvalidArgument(
        "InpEM::Restore: snapshot carries " +
        std::to_string(snapshot.reals.size()) + " reals, expected none");
  }
  const std::vector<uint64_t>& counts = snapshot.counts;
  const uint64_t domain_bound = uint64_t{1} << config_.d;
  std::vector<ValueCount> rows;
  if (!counts.empty() && counts[0] == kCountsLayoutTag) {
    if (counts.size() % 2 == 0) {
      return Status::InvalidArgument(
          "InpEM::Restore: counts layout has even length " +
          std::to_string(counts.size()) +
          " (expected the tag plus (response, count) pairs)");
    }
    rows.reserve(counts.size() / 2);
    const auto bad_entry = [](const std::string& what, size_t i) {
      return Status::InvalidArgument("InpEM::Restore: " + what +
                                     " at counts entry " + std::to_string(i));
    };
    uint64_t total = 0;
    for (size_t i = 1; i < counts.size(); i += 2) {
      const uint64_t value = counts[i];
      const uint64_t count = counts[i + 1];
      if (value >= domain_bound) {
        return bad_entry("response outside domain", i);
      }
      if (!rows.empty() && value <= rows.back().value) {
        return bad_entry("responses not strictly increasing", i);
      }
      if (count == 0) return bad_entry("zero count", i + 1);
      if (count > snapshot.reports_absorbed - total) {
        return bad_entry("counts exceed reports_absorbed (" +
                             std::to_string(snapshot.reports_absorbed) + ")",
                         i + 1);
      }
      total += count;
      rows.push_back({value, count});
    }
    if (total != snapshot.reports_absorbed) {
      return Status::InvalidArgument(
          "InpEM::Restore: counts sum to " + std::to_string(total) +
          ", reports_absorbed is " +
          std::to_string(snapshot.reports_absorbed));
    }
  } else {
    if (counts.size() != snapshot.reports_absorbed) {
      return Status::InvalidArgument(
          "InpEM::Restore: malformed snapshot (log layout with " +
          std::to_string(counts.size()) + " entries for " +
          std::to_string(snapshot.reports_absorbed) + " reports)");
    }
    for (uint64_t r : counts) {
      if (r >= domain_bound) {
        return Status::InvalidArgument(
            "InpEM::Restore: logged response outside domain");
      }
    }
    rows = RunLengths(counts);
  }

  if (dense()) {
    std::fill(dense_.begin(), dense_.end(), 0);
    for (const ValueCount& row : rows) dense_[row.value] = row.count;
  } else {
    table_ = std::move(rows);
  }
  unfolded_.clear();
  return Status::OK();
}

}  // namespace ldpm
