#include "pool.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "data/movielens.h"
#include "data/taxi.h"
#include "protocols/wire.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Seed of the canonical population (rows and their LDP noise).
constexpr uint64_t kPopulationSeed = 0x1D9A2018;

ldpm::StatusOr<std::vector<uint64_t>> GenerateRows(const CollectionSpec& c,
                                                   size_t n, uint64_t seed) {
  auto data = c.source == RowSource::kTaxi
                  ? ldpm::GenerateTaxiDataset(n, seed)
                  : ldpm::GenerateMovielensDataset(n, c.config.d, seed);
  if (!data.ok()) return data.status();
  if (data->dimensions() != c.config.d) {
    return ldpm::Status::InvalidArgument("pool: collection " + c.id +
                                         " has d different from its data");
  }
  return data->rows();
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

ldpm::StatusOr<Pool> BuildPool(const PoolSpec& spec, uint64_t seed,
                               int threads) {
  const size_t ncoll = spec.collections.size();
  const size_t block = spec.reports_per_block;
  if (ncoll == 0 || spec.uploads == 0 || block == 0 ||
      spec.max_blocks_per_frame == 0) {
    return ldpm::Status::InvalidArgument("pool: empty spec");
  }
  threads = std::max(threads, 1);
  const uint64_t population_seed =
      MixSeed(kPopulationSeed, spec.population, 0);
  Pool pool;
  pool.spec = spec;
  pool.rows.resize(ncoll);

  // The canonical population: whole blocks per upload and collection.
  std::vector<size_t> blocks_per_upload(ncoll);
  struct BlockRef {
    size_t collection;
    size_t index;
  };
  std::vector<BlockRef> all_blocks;
  std::vector<size_t> first_block(ncoll);
  for (size_t c = 0; c < ncoll; ++c) {
    const double reports = spec.collections[c].share *
                           static_cast<double>(spec.reports_per_upload);
    blocks_per_upload[c] = static_cast<size_t>(
        std::llround(reports / static_cast<double>(block)));
    const size_t nblocks = blocks_per_upload[c] * spec.uploads;
    auto rows = GenerateRows(spec.collections[c], nblocks * block,
                             MixSeed(population_seed, c, 0xDA7A));
    if (!rows.ok()) return rows.status();
    pool.rows[c] = *std::move(rows);
    first_block[c] = all_blocks.size();
    for (size_t b = 0; b < nblocks; ++b) all_blocks.push_back({c, b});
  }

  // Encode every block; blocks are independent, so any thread count gives
  // the same bytes.
  std::vector<std::vector<uint8_t>> encoded(all_blocks.size());
  std::vector<ldpm::Status> errors(static_cast<size_t>(threads));
  const int64_t t0 = NowNs();
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<std::unique_ptr<ldpm::MarginalProtocol>> encoders;
        for (const CollectionSpec& c : spec.collections) {
          auto p = ldpm::CreateProtocol(c.kind, c.config);
          if (!p.ok()) {
            errors[t] = p.status();
            return;
          }
          encoders.push_back(*std::move(p));
        }
        Span root(Layer::kGen, "gen.pool");
        std::vector<ldpm::Report> reports;
        for (size_t i = t; i < all_blocks.size();
             i += static_cast<size_t>(threads)) {
          const BlockRef& ref = all_blocks[i];
          const CollectionSpec& c = spec.collections[ref.collection];
          Span span(Layer::kProtocols, "protocols.encode");
          ldpm::Rng rng(
              MixSeed(population_seed, ref.collection + 1, ref.index));
          reports.clear();
          const uint64_t* rows = pool.rows[ref.collection].data() +
                                 ref.index * block;
          for (size_t r = 0; r < block; ++r) {
            reports.push_back(encoders[ref.collection]->Encode(rows[r], rng));
          }
          auto bytes = ldpm::SerializeReportBatch(c.kind, c.config, reports);
          if (!bytes.ok()) {
            errors[t] = bytes.status();
            return;
          }
          encoded[i] = *std::move(bytes);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  pool.encode_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  for (const ldpm::Status& e : errors) {
    if (!e.ok()) return e;
  }

  // The seeded traffic shape. Wire batches are concatenations of
  // length-prefixed records, so whole blocks concatenate into a frame.
  ldpm::Rng rng(MixSeed(seed, 0x7AFF1C, 0));
  std::vector<std::vector<size_t>> order(ncoll);
  for (size_t c = 0; c < ncoll; ++c) {
    order[c].resize(blocks_per_upload[c] * spec.uploads);
    for (size_t b = 0; b < order[c].size(); ++b) order[c][b] = b;
    for (size_t b = order[c].size(); b > 1; --b) {
      std::swap(order[c][b - 1], order[c][rng.UniformInt(b)]);
    }
  }
  std::vector<size_t> next(ncoll, 0);
  pool.uploads.resize(spec.uploads);
  std::vector<uint8_t> payload;
  for (Upload& u : pool.uploads) {
    u.reports.assign(ncoll, 0);
    u.blocks.resize(ncoll);
    std::vector<size_t> left = blocks_per_upload;
    std::vector<size_t> open;
    for (;;) {
      open.clear();
      for (size_t c = 0; c < ncoll; ++c) {
        if (left[c] > 0) open.push_back(c);
      }
      if (open.empty()) break;
      const size_t c = open[rng.UniformInt(open.size())];
      const size_t n = std::min<size_t>(
          left[c], 1 + rng.UniformInt(spec.max_blocks_per_frame));
      payload.clear();
      for (size_t i = 0; i < n; ++i) {
        const size_t b = order[c][next[c]++];
        const auto& bytes = encoded[first_block[c] + b];
        payload.insert(payload.end(), bytes.begin(), bytes.end());
        u.blocks[c].push_back(b);
      }
      LDPM_RETURN_IF_ERROR(ldpm::AppendCollectionFrame(
          spec.collections[c].id, payload, u.bytes));
      left[c] -= n;
      u.reports[c] += n * block;
      u.total_reports += n * block;
      pool.encoded_reports += n * block;
    }
  }
  return pool;
}

}  // namespace perfbench
