#include "protocols/inp_rr.h"

#include <string>

#include "core/marginal.h"
#include "protocols/inp_rr_kernels.h"
#include "protocols/wire.h"

namespace ldpm {

namespace {

/// Byte counters hold at most 255 per cell between folds: 17 carry-save
/// groups of inp_rr::kMaxGroup (15) reports.
constexpr uint64_t kGroupsPerFold = 255 / inp_rr::kMaxGroup;

}  // namespace

StatusOr<std::unique_ptr<InpRrProtocol>> InpRrProtocol::Create(
    const ProtocolConfig& config) {
  LDPM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.d > kMaxDenseDimensions) {
    return Status::InvalidArgument(
        "InpRR: d = " + std::to_string(config.d) +
        " exceeds the dense-table limit (the protocol is O(2^d) per user)");
  }
  auto unary = UnaryEncoding::Create(config.epsilon, config.unary_variant);
  if (!unary.ok()) return unary.status();
  return std::unique_ptr<InpRrProtocol>(
      new InpRrProtocol(config, *unary, inp_rr::SelectKernel()));
}

Report InpRrProtocol::Encode(uint64_t user_value, Rng& rng) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  LDPM_DCHECK(user_value < domain);
  Report report;
  report.ones = unary_.PerturbOneHot(domain, user_value, rng);
  report.bits = static_cast<double>(domain);
  return report;
}

Status InpRrProtocol::Absorb(const Report& report) {
  const uint64_t domain = uint64_t{1} << config_.d;
  for (uint64_t pos : report.ones) {
    if (pos >= domain) {
      return Status::InvalidArgument("InpRR::Absorb: position outside domain");
    }
  }
  for (uint64_t pos : report.ones) counts_[pos] += 1.0;
  NoteAbsorbed(report);
  return Status::OK();
}

std::string_view InpRrProtocol::absorb_kernel() const { return kernel_.name; }

void InpRrProtocol::FoldByteCounts() {
  kernel_.fold(byte_counts_.data(), counts_.data(), byte_counts_.size());
}

Status InpRrProtocol::AbsorbWireBatch(const uint8_t* data, size_t size) {
  const uint64_t domain = uint64_t{1} << config_.d;
  const size_t payload_bytes = (domain + 7) / 8;
  byte_counts_.resize(domain);
  WireBatchReader reader(data, size);
  const uint8_t* group[inp_rr::kMaxGroup];
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  size_t m = 0;
  uint64_t absorbed = 0;
  uint64_t groups_since_fold = 0;
  Status error = Status::OK();
  while (reader.Next(record, record_size)) {
    if (record_size != payload_bytes) {
      error = Status::InvalidArgument(
          "InpRR::AbsorbWireBatch: record is " + std::to_string(record_size) +
          " bytes, expected " + std::to_string(payload_bytes));
      break;
    }
    group[m++] = record;
    if (m == inp_rr::kMaxGroup) {
      inp_rr::AddGroup(kernel_, group, m, config_.d, byte_counts_.data());
      absorbed += m;
      m = 0;
      if (++groups_since_fold == kGroupsPerFold) {
        FoldByteCounts();
        groups_since_fold = 0;
      }
    }
  }
  if (error.ok()) error = reader.status();
  if (m > 0) {
    inp_rr::AddGroup(kernel_, group, m, config_.d, byte_counts_.data());
    absorbed += m;
  }
  FoldByteCounts();
  NoteAbsorbedBatch(absorbed, static_cast<double>(domain));
  return error;
}

Status InpRrProtocol::AbsorbPopulation(const std::vector<uint64_t>& rows,
                                       Rng& rng) {
  const uint64_t domain = uint64_t{1} << config_.d;
  // True histogram of the population.
  std::vector<uint64_t> histogram(domain, 0);
  for (uint64_t row : rows) {
    if (row >= domain) {
      return Status::InvalidArgument("InpRR: row outside domain");
    }
    ++histogram[row];
  }
  const uint64_t n = rows.size();
  // Each cell's aggregate reported-one count is the sum of N independent
  // coins: Binomial(n_j, p1) from users whose true cell is j plus
  // Binomial(N - n_j, p0) from everyone else. Cells are independent given
  // the inputs, so sampling per cell matches the per-user path in
  // distribution exactly.
  for (uint64_t cell = 0; cell < domain; ++cell) {
    counts_[cell] += static_cast<double>(rng.Binomial(histogram[cell], unary_.p1())) +
                     static_cast<double>(rng.Binomial(n - histogram[cell], unary_.p0()));
  }
  Report accounting;
  accounting.bits = static_cast<double>(domain);
  for (uint64_t i = 0; i < n; ++i) NoteAbsorbed(accounting);
  return Status::OK();
}

StatusOr<MarginalTable> InpRrProtocol::EstimateMarginal(uint64_t beta) const {
  const uint64_t domain = uint64_t{1} << config_.d;
  if (beta >= domain) {
    return Status::OutOfRange("InpRR: beta outside domain");
  }
  const uint64_t n = reports_absorbed();
  if (n == 0) {
    return Status::FailedPrecondition("InpRR: no reports absorbed");
  }
  // Unbias each cell and aggregate straight into the marginal.
  MarginalTable m(config_.d, beta);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (uint64_t cell = 0; cell < domain; ++cell) {
    const double t_hat =
        unary_.UnbiasCount(counts_[cell], static_cast<double>(n)) * inv_n;
    m.at_compact(ExtractBits(cell, beta)) += t_hat;
  }
  return PostProcess(std::move(m));
}

void InpRrProtocol::Reset() {
  counts_.assign(counts_.size(), 0.0);
  ResetBookkeeping();
}

Status InpRrProtocol::MergeFrom(const MarginalProtocol& other) {
  LDPM_RETURN_IF_ERROR(CheckMergeCompatible(other));
  const auto* peer = dynamic_cast<const InpRrProtocol*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument("InpRR::MergeFrom: type mismatch");
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += peer->counts_[i];
  MergeBookkeeping(*peer);
  return Status::OK();
}

// Layout: reals = per-cell reported-one counts (2^d entries).
void InpRrProtocol::SaveState(AggregatorSnapshot& snapshot) const {
  snapshot.reals = counts_;
}

Status InpRrProtocol::LoadState(const AggregatorSnapshot& snapshot) {
  if (snapshot.reals.size() != counts_.size() || !snapshot.counts.empty()) {
    return Status::InvalidArgument("InpRR::Restore: malformed snapshot");
  }
  counts_ = snapshot.reals;
  return Status::OK();
}

}  // namespace ldpm
