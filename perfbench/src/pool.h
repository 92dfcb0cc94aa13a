// Pre-encoded input pools. Client-side LDP encoding is far slower than
// ingest for some protocols (an InpRR d=12 report is 4096 randomized
// bits), so each workload encodes one bounded pool of uploads before any
// timing starts and replays it.
//
// A pool has two parts:
//   * the population: every collection's rows and their encoded reports.
//     It is canonical (the same for every seed), encoded in fixed blocks
//     of reports, each block with its own Rng, so the thread count never
//     changes the bytes. Accuracy is measured against the true marginals
//     of these rows, so tv_error compares code, not sampling draws (its
//     spread across draws is larger than any regression bound).
//   * the traffic shape, drawn from the seed: the order of the blocks, how
//     many blocks each frame carries, and how the collections' frames are
//     interleaved inside each upload.

#ifndef PERFBENCH_POOL_H_
#define PERFBENCH_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "protocols/factory.h"

namespace perfbench {

enum class RowSource { kTaxi, kMovielens };

struct CollectionSpec {
  std::string id;
  ldpm::ProtocolKind kind = ldpm::ProtocolKind::kInpHT;
  ldpm::ProtocolConfig config;
  RowSource source = RowSource::kTaxi;
  /// Share of each upload's reports that go to this collection.
  double share = 1.0;
};

struct PoolSpec {
  std::vector<CollectionSpec> collections;
  size_t uploads = 1;
  size_t reports_per_upload = 1;
  /// Reports per encoding block: the unit of canonical encoding and of
  /// framing (a collection frame carries whole blocks).
  size_t reports_per_block = 256;
  /// Each frame carries between 1 and this many blocks (seeded).
  size_t max_blocks_per_frame = 1;
  /// Distinguishes independent canonical populations of one workload.
  uint64_t population = 0;
};

struct Upload {
  std::vector<uint8_t> bytes;  ///< a stream of collection frames
  std::vector<uint64_t> reports;  ///< per collection
  uint64_t total_reports = 0;
  /// Per collection: the population blocks this upload carries, in send
  /// order (block b holds rows [b * reports_per_block, ...)).
  std::vector<std::vector<size_t>> blocks;
};

struct Pool {
  PoolSpec spec;
  std::vector<Upload> uploads;
  /// Per collection: the population's rows (every row is sent once per
  /// replay of the pool, in some seeded order).
  std::vector<std::vector<uint64_t>> rows;
  uint64_t encoded_reports = 0;
  /// Wall time of the Encode + SerializeReportBatch phase.
  double encode_seconds = 0.0;
};

/// Mixes (seed, a, b) into a well-spread 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b);

/// Builds the pool with up to `threads` encoder threads. Per-upload report
/// counts are share * reports_per_upload rounded to whole blocks.
ldpm::StatusOr<Pool> BuildPool(const PoolSpec& spec, uint64_t seed,
                               int threads);

}  // namespace perfbench

#endif  // PERFBENCH_POOL_H_
