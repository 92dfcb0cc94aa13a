// Demo: one engine::Collector hosting several protocol streams — routed
// ingest of an interleaved collection-frame stream, merged per-collection
// querying, a categorical (InpES) collection, and a durable multi-
// collection checkpoint/crash/restart walkthrough (docs/architecture.md
// sketches the dataflow).
//
//   ./engine_demo [num_shards [num_users]]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/file_io.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "protocols/factory.h"
#include "protocols/wire.h"

int main(int argc, char** argv) {
  using namespace ldpm;

  const int num_shards = argc > 1 ? std::atoi(argv[1]) : 4;
  const size_t num_users = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                    : size_t{1} << 20;

  // Three concurrent report streams, as a production collector would see:
  // two binary products on different protocols/epsilons, plus a
  // categorical InpES stream over mixed-cardinality attributes.
  ProtocolConfig clicks_config;
  clicks_config.d = 10;
  clicks_config.k = 2;
  clicks_config.epsilon = 1.0;

  ProtocolConfig crashes_config;
  crashes_config.d = 8;
  crashes_config.k = 2;
  crashes_config.epsilon = 0.5;

  ProtocolConfig device_config;
  device_config.cardinalities = {3, 4, 2};  // model, region, beta-channel
  device_config.k = 2;
  device_config.epsilon = 1.0;

  engine::CollectorOptions options;
  options.engine_defaults.num_shards = num_shards;
  options.max_pending_batches_total = 256;  // shared backpressure budget
  auto collector = engine::Collector::Create(options);
  if (!collector.ok()) {
    std::fprintf(stderr, "%s\n", collector.status().ToString().c_str());
    return 1;
  }
  auto clicks =
      (*collector)->Register("clicks", ProtocolKind::kInpHT, clicks_config);
  auto crashes =
      (*collector)->Register("crashes", ProtocolKind::kMargPS, crashes_config);
  auto devices =
      (*collector)->Register("devices", ProtocolKind::kInpES, device_config);
  if (!clicks.ok() || !crashes.ok() || !devices.ok()) {
    const Status& bad = !clicks.ok() ? clicks.status()
                        : !crashes.ok() ? crashes.status()
                                        : devices.status();
    std::fprintf(stderr, "%s\n", bad.ToString().c_str());
    return 1;
  }
  std::printf("collector: %zu collections, %d shard workers\n",
              (*collector)->collection_count(),
              (*collector)->worker_threads_in_use());

  // Simulate the clients: encode each stream's users and interleave the
  // resulting wire batches as collection frames on ONE byte stream — the
  // shape a multiplexing socket or spool file would deliver.
  Rng rng(7);
  std::vector<uint64_t> click_rows;
  click_rows.reserve(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    uint64_t row = 0;
    for (int j = 0; j < clicks_config.d; ++j) {
      if (rng.Bernoulli(0.2 + 0.5 * j / clicks_config.d)) {
        row |= uint64_t{1} << j;
      }
    }
    click_rows.push_back(row);
  }
  struct Stream {
    const char* id;
    ProtocolKind kind;
    const ProtocolConfig* config;
    size_t users;
  };
  const Stream streams[] = {
      {"clicks", ProtocolKind::kInpHT, &clicks_config, num_users},
      {"crashes", ProtocolKind::kMargPS, &crashes_config, num_users / 2},
      {"devices", ProtocolKind::kInpES, &device_config, num_users / 2},
  };
  const size_t frame_reports = 4096;
  std::vector<uint8_t> mux;
  for (const Stream& stream : streams) {
    auto encoder = CreateProtocol(stream.kind, *stream.config);
    if (!encoder.ok()) return 1;
    size_t emitted = 0;
    while (emitted < stream.users) {
      const size_t n = std::min(frame_reports, stream.users - emitted);
      std::vector<Report> reports;
      reports.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t row = stream.kind == ProtocolKind::kInpHT
                                 ? click_rows[emitted + i]
                                 : rng() & ((uint64_t{1} << 8) - 1);
        reports.push_back((*encoder)->Encode(row, rng));
      }
      auto frame = SerializeReportBatch(stream.kind, *stream.config, reports);
      if (!frame.ok() ||
          !AppendCollectionFrame(stream.id, *frame, mux).ok()) {
        std::fprintf(stderr, "framing failed\n");
        return 1;
      }
      emitted += n;
    }
  }
  std::printf("mux stream: %.1f MB of interleaved collection frames\n",
              static_cast<double>(mux.size()) / (1024.0 * 1024.0));

  // One call routes every frame to its collection's zero-copy wire path.
  if (auto s = (*collector)->IngestFrames(mux); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (auto s = (*collector)->Flush(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  for (const Stream& stream : streams) {
    auto handle = (*collector)->Handle(stream.id);
    if (!handle.ok()) return 1;
    auto absorbed = handle->ReportsAbsorbed();
    if (!absorbed.ok()) return 1;
    std::printf("  %-8s absorbed %llu reports\n", stream.id,
                static_cast<unsigned long long>(*absorbed));
  }

  // Per-collection queries from merged shard state.
  const uint64_t beta = 0b11;
  auto truth = MarginalFromRows(click_rows, clicks_config.d, beta);
  auto estimate = (*collector)->Query("clicks", beta);
  if (!truth.ok() || !estimate.ok()) {
    std::fprintf(stderr, "estimation failed\n");
    return 1;
  }
  std::printf("clicks marginal {0,1}: TV(truth, estimate) = %.5f\n",
              truth->TotalVariationDistance(*estimate));
  auto device_marginal = (*collector)->QueryCategorical("devices", {0, 1});
  if (!device_marginal.ok()) {
    std::fprintf(stderr, "%s\n", device_marginal.status().ToString().c_str());
    return 1;
  }
  std::printf("devices categorical marginal {model, region}: %zu cells\n",
              device_marginal->probabilities.size());

  // Unknown collections are rejected with the exact frame offset.
  std::vector<uint8_t> rogue;
  if (!AppendCollectionFrame("telemetry-v9", std::vector<uint8_t>(), rogue)
           .ok()) {
    return 1;
  }
  const Status unknown = (*collector)->IngestFrames(rogue);
  if (unknown.ok()) {
    std::fprintf(stderr, "BUG: unknown collection id was accepted\n");
    return 1;
  }
  std::printf("unknown-id frame rejected: %s\n", unknown.ToString().c_str());

  // Crash-restart walkthrough: checkpoint ALL collections into one v2
  // container, tear the collector down (the "crash"), then restore a fresh
  // collector — with a different shard count — from the file alone.
  const std::string ckpt_path = "engine_demo.ckpt";
  if (auto s = (*collector)->CheckpointTo(ckpt_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto ckpt_bytes = ReadBinaryFile(ckpt_path);
  if (!ckpt_bytes.ok()) return 1;
  std::printf("checkpoint: wrote %s (%zu bytes, %zu collections)\n",
              ckpt_path.c_str(), ckpt_bytes->size(),
              (*collector)->collection_count());
  const std::vector<double> before = estimate->values();
  (*collector).reset();  // simulated crash: every in-memory aggregator is gone

  engine::CollectorOptions restart_options;
  restart_options.engine_defaults.num_shards =
      num_shards > 1 ? num_shards / 2 : 2;
  auto restarted = engine::Collector::Create(restart_options);
  if (!restarted.ok()) return 1;
  if (!(*restarted)->Register("clicks", ProtocolKind::kInpHT, clicks_config).ok() ||
      !(*restarted)->Register("crashes", ProtocolKind::kMargPS, crashes_config).ok() ||
      !(*restarted)->Register("devices", ProtocolKind::kInpES, device_config).ok()) {
    return 1;
  }
  if (auto s = (*restarted)->RestoreFrom(ckpt_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto revived = (*restarted)->Query("clicks", beta);
  if (!revived.ok()) return 1;
  double diff = 0.0;
  for (uint64_t c = 0; c < revived->size(); ++c) {
    diff += std::abs(before[c] - revived->at_compact(c));
  }
  std::printf(
      "crash-restart %d -> %d shards via %s: L1(before, after) = %g\n",
      num_shards, restart_options.engine_defaults.num_shards,
      ckpt_path.c_str(), diff);
  if (diff != 0.0) {
    std::fprintf(stderr, "BUG: checkpoint restore was not bitwise exact\n");
    return 1;
  }

  // Corruption is detected, not silently restored: flip one byte mid-file
  // and watch the restore refuse it.
  (*ckpt_bytes)[ckpt_bytes->size() / 2] ^= 0x01;
  const std::string corrupt_path = "engine_demo_corrupt.ckpt";
  if (auto s = WriteBinaryFileAtomic(corrupt_path, *ckpt_bytes); !s.ok()) {
    return 1;
  }
  const Status corrupt = (*restarted)->RestoreFrom(corrupt_path);
  if (corrupt.ok()) {
    std::fprintf(stderr, "BUG: corrupted checkpoint was accepted\n");
    return 1;
  }
  std::printf("bit-flipped checkpoint rejected: %s\n",
              corrupt.ToString().c_str());
  // The rejecting restore quarantined the corrupt file as *.corrupt, so
  // that is the name left to clean up.
  std::remove(ckpt_path.c_str());
  std::remove((corrupt_path + ".corrupt").c_str());
  return 0;
}
