// Fuzz harness: wire-batch walking and per-record report decoding
// (protocols/wire.h).
//
// The first two bytes pick a protocol kind and a bounded dimension d (d
// is trusted registration data in production — collections are created by
// operators, not by the byte stream — so the harness bounds it the same
// way; an unbounded d would just make the harness enumerate 2^d cells).
// The rest of the input is walked as a wire batch; every record that
// deserializes must re-serialize canonically (serialize(parse(b)) parses
// back to the same bytes — the decode/encode fixed point).
//
// For InpRR the batch also goes through AbsorbWireBatch, whose bitmap
// kernels read the record bytes directly with 32- and 64-byte vector
// loads: the result must be bitwise the per-record Absorb of the
// deserialized prefix — the same snapshot and the same OK or error.

#include <cstdint>
#include <vector>

#include "fuzz/fuzz_input.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

namespace {

/// AbsorbWireBatch against per-record DeserializeReport + Absorb, which
/// stops at the first record that does not parse or absorb.
void CheckWireAbsorbMatchesSequential(ldpm::ProtocolKind kind,
                                      const ldpm::ProtocolConfig& config,
                                      const uint8_t* data, size_t size) {
  auto batched = ldpm::CreateProtocol(kind, config);
  auto sequential = ldpm::CreateProtocol(kind, config);
  LDPM_FUZZ_ASSERT(batched.ok() && sequential.ok(), "protocol create failed");
  const bool batch_ok = (*batched)->AbsorbWireBatch(data, size).ok();

  bool sequential_ok = true;
  ldpm::WireBatchReader reader(data, size);
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  while (sequential_ok && reader.Next(record, record_size)) {
    auto report = ldpm::DeserializeReport(kind, config, record, record_size);
    sequential_ok = report.ok() && (*sequential)->Absorb(*report).ok();
  }
  sequential_ok = sequential_ok && reader.status().ok();
  LDPM_FUZZ_ASSERT(batch_ok == sequential_ok,
                   "wire absorb and per-record absorb disagree on OK");

  const ldpm::AggregatorSnapshot got = (*batched)->Snapshot();
  const ldpm::AggregatorSnapshot want = (*sequential)->Snapshot();
  LDPM_FUZZ_ASSERT(got.reports_absorbed == want.reports_absorbed &&
                       got.total_report_bits == want.total_report_bits &&
                       got.reals == want.reals && got.counts == want.counts,
                   "wire absorb state differs from per-record absorb");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;
  ldpm::fuzz::FuzzInput input(data, size);

  const auto& kinds = ldpm::RegisteredProtocolKinds();
  const ldpm::ProtocolKind kind =
      kinds[input.TakeByte() % kinds.size()];
  ldpm::ProtocolConfig config;
  config.d = input.TakeInRange(1, 12);
  config.k = 2;
  config.epsilon = 1.0;

  ldpm::WireBatchReader reader(input.remaining_data(),
                               input.remaining_size());
  const uint8_t* record = nullptr;
  size_t record_size = 0;
  while (reader.Next(record, record_size)) {
    LDPM_FUZZ_ASSERT(record >= input.remaining_data() &&
                         record + record_size <=
                             input.remaining_data() + input.remaining_size(),
                     "record view out of bounds");
    auto report = ldpm::DeserializeReport(kind, config, record, record_size);
    if (!report.ok()) continue;
    auto bytes = ldpm::SerializeReport(kind, config, *report);
    LDPM_FUZZ_ASSERT(bytes.ok(), "accepted report refused to serialize");
    auto again = ldpm::DeserializeReport(kind, config, *bytes);
    LDPM_FUZZ_ASSERT(again.ok(), "serialized report refused to parse");
    auto bytes_again = ldpm::SerializeReport(kind, config, *again);
    LDPM_FUZZ_ASSERT(bytes_again.ok() && *bytes_again == *bytes,
                     "serialize/parse is not a fixed point");
  }
  // reader.status() may be OK (clean end) or a framing error; both are
  // fine — the walk just must terminate in bounds, which ASan enforces.
  if (kind == ldpm::ProtocolKind::kInpRR) {
    CheckWireAbsorbMatchesSequential(kind, config, input.remaining_data(),
                                     input.remaining_size());
  }
  return 0;
}
