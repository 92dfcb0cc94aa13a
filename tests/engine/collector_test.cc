// Collector facade tests: registry semantics, resource budgets, routed
// multi-collection frame ingest (including the acceptance invariant that a
// Collector hosting mixed kinds is bitwise-identical to standalone
// ShardedAggregators fed the same per-collection streams), and the
// version-2 multi-collection checkpoint container (round trips, v1 compat,
// every-truncation sweep, shutdown checkpoints).

#include "engine/collector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/file_io.h"
#include "engine/checkpoint.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::CollectionHandle;
using engine::Collector;
using engine::CollectorOptions;
using engine::EngineOptions;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::unique_ptr<Collector> MustCreate(const CollectorOptions& options = {}) {
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  return *std::move(collector);
}

TEST(Collector, RegistryBasics) {
  auto collector = MustCreate();
  auto clicks =
      collector->Register("clicks", ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(clicks.ok()) << clicks.status().ToString();
  EXPECT_EQ(clicks->id(), "clicks");
  EXPECT_EQ(clicks->kind(), ProtocolKind::kInpHT);
  EXPECT_EQ(clicks->config().d, 6);

  // Duplicate ids, empty ids, and bad configs never half-register.
  EXPECT_EQ(collector->Register("clicks", ProtocolKind::kMargPS,
                                MakeConfig(4, 2))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(collector->Register("", ProtocolKind::kInpHT,
                                   MakeConfig(6, 2))
                   .ok());
  EXPECT_FALSE(collector->Register("bad", ProtocolKind::kInpHT,
                                   MakeConfig(4, 9))
                   .ok());
  EXPECT_EQ(collector->collection_count(), 1u);

  ASSERT_TRUE(
      collector->Register("crashes", ProtocolKind::kMargPS, MakeConfig(5, 2))
          .ok());
  EXPECT_EQ(collector->CollectionIds(),
            (std::vector<std::string>{"clicks", "crashes"}));

  EXPECT_TRUE(collector->Unregister("clicks").ok());
  EXPECT_EQ(collector->Unregister("clicks").code(), StatusCode::kNotFound);
  EXPECT_EQ(collector->Handle("clicks").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(collector->collection_count(), 1u);

  // Outstanding handles outlive Unregister.
  Rng rng(4);
  ASSERT_TRUE(clicks
                  ->IngestBatch({(*CreateProtocol(ProtocolKind::kInpHT,
                                                  MakeConfig(6, 2)))
                                     ->Encode(5, rng)})
                  .ok());
  EXPECT_TRUE(clicks->Flush().ok());
}

TEST(Collector, WorkerThreadBudgetIsEnforcedAndReturned) {
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.max_worker_threads = 5;
  auto collector = MustCreate(options);
  ASSERT_TRUE(
      collector->Register("a", ProtocolKind::kInpHT, MakeConfig(6, 2)).ok());
  ASSERT_TRUE(
      collector->Register("b", ProtocolKind::kMargPS, MakeConfig(6, 2)).ok());
  EXPECT_EQ(collector->worker_threads_in_use(), 4);

  EngineOptions wide;
  wide.num_shards = 2;
  EXPECT_EQ(collector->Register("c", ProtocolKind::kInpPS, MakeConfig(6, 2),
                                wide)
                .status()
                .code(),
            StatusCode::kResourceExhausted);

  EngineOptions narrow;
  narrow.num_shards = 1;
  EXPECT_TRUE(collector->Register("c", ProtocolKind::kInpPS, MakeConfig(6, 2),
                                  narrow)
                  .ok());
  EXPECT_EQ(collector->worker_threads_in_use(), 5);

  ASSERT_TRUE(collector->Unregister("a").ok());
  EXPECT_EQ(collector->worker_threads_in_use(), 3);
  EXPECT_TRUE(collector->Register("d", ProtocolKind::kInpHT, MakeConfig(6, 2))
                  .ok());
}

TEST(Collector, SharedBackpressureBudgetIsReleasedByWorkers) {
  // A tiny shared budget across two collections: all batches must still be
  // absorbed (slots recycle), proving release happens on the worker side.
  CollectorOptions options;
  options.max_pending_batches_total = 2;
  options.engine_defaults.num_shards = 2;
  auto collector = MustCreate(options);
  auto a = collector->Register("a", ProtocolKind::kInpHT, MakeConfig(6, 2));
  auto b = collector->Register("b", ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto encoder_a = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  auto encoder_b = CreateProtocol(ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(encoder_a.ok());
  ASSERT_TRUE(encoder_b.ok());
  const std::vector<Report> stream_a = EncodeReportStream(**encoder_a, 800, 3);
  const std::vector<Report> stream_b = EncodeReportStream(**encoder_b, 800, 4);
  for (size_t begin = 0; begin < 800; begin += 50) {
    ASSERT_TRUE(a->IngestBatch(std::vector<Report>(
                                   stream_a.begin() + begin,
                                   stream_a.begin() + begin + 50))
                    .ok());
    ASSERT_TRUE(b->IngestBatch(std::vector<Report>(
                                   stream_b.begin() + begin,
                                   stream_b.begin() + begin + 50))
                    .ok());
  }
  ASSERT_TRUE(collector->Flush().ok());
  auto absorbed_a = a->ReportsAbsorbed();
  auto absorbed_b = b->ReportsAbsorbed();
  ASSERT_TRUE(absorbed_a.ok());
  ASSERT_TRUE(absorbed_b.ok());
  EXPECT_EQ(*absorbed_a, 800u);
  EXPECT_EQ(*absorbed_b, 800u);
}

/// Builds the per-collection wire frames and the interleaved mux stream
/// for the acceptance test: three mixed-kind collections (InpRR + InpES
/// among them), frame-interleaved round-robin.
struct MuxFixture {
  struct Stream {
    std::string id;
    ProtocolKind kind;
    ProtocolConfig config;
    std::vector<std::vector<uint8_t>> frames;
  };
  std::vector<Stream> streams;
  std::vector<uint8_t> mux;

  static MuxFixture Build() {
    MuxFixture f;
    f.streams = {
        {"bitmap", ProtocolKind::kInpRR, MakeConfig(5, 2), {}},
        {"hadamard", ProtocolKind::kMargPS, MakeConfig(7, 2), {}},
        {"efron-stein", ProtocolKind::kInpES, MakeConfig(6, 2), {}},
    };
    Rng rng(99);
    for (auto& stream : f.streams) {
      auto encoder = CreateProtocol(stream.kind, stream.config);
      EXPECT_TRUE(encoder.ok());
      const size_t reports_per_frame = 150;
      for (int frame_index = 0; frame_index < 6; ++frame_index) {
        std::vector<Report> reports;
        const uint64_t mask = (uint64_t{1} << stream.config.d) - 1;
        for (size_t i = 0; i < reports_per_frame; ++i) {
          reports.push_back((*encoder)->Encode(rng() & mask, rng));
        }
        auto frame =
            SerializeReportBatch(stream.kind, stream.config, reports);
        EXPECT_TRUE(frame.ok());
        stream.frames.push_back(*std::move(frame));
      }
    }
    // Interleave: frame 0 of every stream, then frame 1, ...
    for (int frame_index = 0; frame_index < 6; ++frame_index) {
      for (const auto& stream : f.streams) {
        EXPECT_TRUE(AppendCollectionFrame(
                        stream.id, stream.frames[frame_index], f.mux)
                        .ok());
      }
    }
    return f;
  }
};

// THE acceptance invariant: a single Collector hosting three mixed-kind
// collections (incl. InpRR + InpES) fed one interleaved collection-frame
// stream answers every collection's marginals bitwise-identically to a
// standalone ShardedAggregator fed only that collection's frames.
TEST(Collector, InterleavedFramesMatchStandaloneAggregatorsBitwise) {
  const MuxFixture fixture = MuxFixture::Build();

  CollectorOptions options;
  options.engine_defaults.num_shards = 3;
  options.max_pending_batches_total = 64;
  auto collector = MustCreate(options);
  for (const auto& stream : fixture.streams) {
    ASSERT_TRUE(
        collector->Register(stream.id, stream.kind, stream.config).ok());
  }
  ASSERT_TRUE(collector->IngestFrames(fixture.mux).ok());
  ASSERT_TRUE(collector->Flush().ok());

  for (const auto& stream : fixture.streams) {
    // Standalone reference engine, deliberately at a different shard count
    // (merged state is shard-count invariant).
    EngineOptions standalone_options;
    standalone_options.num_shards = 2;
    auto standalone = engine::ShardedAggregator::Create(
        stream.kind, stream.config, standalone_options);
    ASSERT_TRUE(standalone.ok());
    for (const auto& frame : stream.frames) {
      ASSERT_TRUE((*standalone)->IngestWireBatch(frame).ok());
    }
    auto reference = (*standalone)->Merged();
    ASSERT_TRUE(reference.ok());

    auto handle = collector->Handle(stream.id);
    ASSERT_TRUE(handle.ok());
    auto hosted = handle->aggregator().Merged();
    ASSERT_TRUE(hosted.ok());
    EXPECT_EQ((*hosted)->reports_absorbed(), 900u);
    ExpectBitwiseEqualEstimates(**reference, **hosted);
  }
}

TEST(Collector, UnknownFrameIdsAreRejectedWithByteOffsets) {
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("known", ProtocolKind::kInpHT, MakeConfig(6, 2)).ok());

  std::vector<uint8_t> stream;
  ASSERT_TRUE(
      AppendCollectionFrame("known", std::vector<uint8_t>(), stream).ok());
  const size_t rogue_at = stream.size();
  ASSERT_TRUE(
      AppendCollectionFrame("rogue", std::vector<uint8_t>(), stream).ok());
  const Status status = collector->IngestFrames(stream);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown collection id \"rogue\""),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("at byte " + std::to_string(rogue_at)),
            std::string::npos)
      << status.ToString();

  // A truncated stream surfaces the frame reader's byte-precise error.
  std::vector<uint8_t> truncated(stream.begin(), stream.begin() + rogue_at + 3);
  EXPECT_FALSE(collector->IngestFrames(truncated).ok());
}

TEST(Collector, MismatchedPayloadSurfacesAtFlush) {
  // A frame routed to the right id but carrying another protocol's records
  // is an asynchronous absorb error: visible at Flush, prefix intact.
  auto collector = MustCreate();
  auto handle =
      collector->Register("clicks", ProtocolKind::kInpPS, MakeConfig(6, 2));
  ASSERT_TRUE(handle.ok());
  auto wrong_encoder = CreateProtocol(ProtocolKind::kInpRR, MakeConfig(6, 2));
  ASSERT_TRUE(wrong_encoder.ok());
  auto wrong_frame =
      SerializeReportBatch(ProtocolKind::kInpRR, MakeConfig(6, 2),
                           EncodeReportStream(**wrong_encoder, 5, 8));
  ASSERT_TRUE(wrong_frame.ok());
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame("clicks", *wrong_frame, stream).ok());
  ASSERT_TRUE(collector->IngestFrames(stream).ok());  // routing succeeds
  EXPECT_FALSE(collector->Flush().ok());              // absorption failed
}

TEST(Collector, CheckpointV2RoundTripsAllCollections) {
  const std::string path = TempPath("ldpm_collector_v2.ckpt");
  const MuxFixture fixture = MuxFixture::Build();
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  auto collector = MustCreate(options);
  for (const auto& stream : fixture.streams) {
    ASSERT_TRUE(
        collector->Register(stream.id, stream.kind, stream.config).ok());
  }
  ASSERT_TRUE(collector->IngestFrames(fixture.mux).ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());

  // Restore into a fresh collector with different shard counts.
  CollectorOptions restart_options;
  restart_options.engine_defaults.num_shards = 4;
  auto restarted = MustCreate(restart_options);
  for (const auto& stream : fixture.streams) {
    ASSERT_TRUE(
        restarted->Register(stream.id, stream.kind, stream.config).ok());
  }
  ASSERT_TRUE(restarted->RestoreFrom(path).ok());
  for (const auto& stream : fixture.streams) {
    auto original = collector->Handle(stream.id);
    auto revived = restarted->Handle(stream.id);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(revived.ok());
    auto m1 = original->aggregator().Merged();
    auto m2 = revived->aggregator().Merged();
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    EXPECT_EQ((*m2)->reports_absorbed(), 900u);
    ExpectBitwiseEqualEstimates(**m1, **m2);
  }

  // A checkpoint naming an unregistered collection refuses wholesale.
  auto partial = MustCreate(restart_options);
  ASSERT_TRUE(partial
                  ->Register(fixture.streams[0].id, fixture.streams[0].kind,
                             fixture.streams[0].config)
                  .ok());
  EXPECT_FALSE(partial->RestoreFrom(path).ok());

  std::filesystem::remove(path);
}

TEST(Collector, V1SingleCollectionFilesStillRestore) {
  const std::string path = TempPath("ldpm_collector_v1.ckpt");
  const ProtocolConfig config = MakeConfig(6, 2);

  // Write a v1 file the way older builds did: one engine's shard
  // snapshots in the single-collection container.
  EngineOptions engine_options;
  engine_options.num_shards = 3;
  auto engine =
      engine::ShardedAggregator::Create(ProtocolKind::kInpHT, config,
                                        engine_options);
  ASSERT_TRUE(engine.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(
      (*engine)->IngestBatch(EncodeReportStream(**encoder, 2000, 21)).ok());
  auto snapshots = (*engine)->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  auto v1_image = engine::EncodeCheckpoint(*snapshots);
  ASSERT_TRUE(v1_image.ok());
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *v1_image).ok());
  // The file is genuinely version 1.
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[8], engine::kCheckpointFormatVersionV1);

  // It restores into a single-collection collector...
  auto collector = MustCreate();
  auto handle = collector->Register("legacy", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(collector->RestoreFrom(path).ok());
  auto restored = handle->aggregator().Merged();
  auto reference = (*engine)->Merged();
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(reference.ok());
  ExpectBitwiseEqualEstimates(**reference, **restored);

  // ...but is ambiguous once several collections are registered.
  ASSERT_TRUE(
      collector->Register("second", ProtocolKind::kMargPS, MakeConfig(5, 2))
          .ok());
  EXPECT_FALSE(collector->RestoreFrom(path).ok());
  std::filesystem::remove(path);
}

TEST(Collector, V2EveryTruncationIsRejected) {
  // Mirror of engine_checkpoint_test's sweep for the v2 container: every
  // strict prefix of a two-collection image must fail to decode.
  std::vector<engine::CollectionCheckpoint> collections(2);
  collections[0].id = "alpha";
  collections[1].id = "beta";
  auto protocol = CreateProtocol(ProtocolKind::kMargPS, MakeConfig(5, 2));
  ASSERT_TRUE(protocol.ok());
  for (const Report& r : EncodeReportStream(**protocol, 100, 31)) {
    ASSERT_TRUE((*protocol)->Absorb(r).ok());
  }
  collections[0].snapshots = {(*protocol)->Snapshot()};
  collections[1].snapshots = {(*protocol)->Snapshot(), (*protocol)->Snapshot()};
  auto image = engine::EncodeCollectorCheckpoint(collections);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ((*image)[8], engine::kCheckpointFormatVersion);

  auto decoded = engine::DecodeCollectorCheckpoint(image->data(), image->size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].id, "alpha");
  EXPECT_EQ((*decoded)[1].snapshots.size(), 2u);

  for (size_t cut = 0; cut < image->size(); ++cut) {
    EXPECT_FALSE(
        engine::DecodeCollectorCheckpoint(image->data(), cut).ok())
        << "cut=" << cut;
  }
  // Trailing garbage is corruption too.
  std::vector<uint8_t> padded = *image;
  padded.push_back(0);
  EXPECT_FALSE(
      engine::DecodeCollectorCheckpoint(padded.data(), padded.size()).ok());

  // Every single-bit flip is caught by one of the CRCs (or framing).
  std::vector<uint8_t> flipped = *image;
  for (size_t byte = 0; byte < flipped.size(); ++byte) {
    flipped[byte] ^= 0x01;
    EXPECT_FALSE(
        engine::DecodeCollectorCheckpoint(flipped.data(), flipped.size()).ok())
        << "byte=" << byte;
    flipped[byte] ^= 0x01;
  }
}

TEST(Collector, ShutdownCheckpointWritesFinalState) {
  const std::string path = TempPath("ldpm_collector_shutdown.ckpt");
  std::filesystem::remove(path);
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 1200, 77);

  {
    CollectorOptions options;
    options.checkpoint_path = path;
    options.checkpoint_on_shutdown = true;
    auto collector = MustCreate(options);
    auto handle = collector->Register("only", ProtocolKind::kInpHT, config);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(handle->IngestBatch(reports).ok());
    // Drain reports the write's status; the destructor would also write.
    ASSERT_TRUE(collector->Drain().ok());
  }  // destructor: second (idempotent) final checkpoint

  auto reloaded = MustCreate();
  auto handle = reloaded->Register("only", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, reports.size());
  std::filesystem::remove(path);
}

TEST(Collector, DestructorShutdownCheckpointIncludesQueuedTail) {
  // Regression: the destructor must run the FULL Drain() path — flush the
  // queued batches of every collection BEFORE the snapshot cut — not a
  // bare CheckpointTo. Queue work on two collections and destroy the
  // collector with no explicit Drain(): the restored state must hold
  // every report.
  const std::string path = TempPath("ldpm_collector_dtor_tail.ckpt");
  std::filesystem::remove(path);
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder_a = CreateProtocol(ProtocolKind::kInpHT, config);
  auto encoder_b = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder_a.ok());
  ASSERT_TRUE(encoder_b.ok());
  const std::vector<Report> batch_a = EncodeReportStream(**encoder_a, 500, 21);
  const std::vector<Report> tail_a = EncodeReportStream(**encoder_a, 37, 22);
  const std::vector<Report> batch_b = EncodeReportStream(**encoder_b, 400, 23);

  {
    CollectorOptions options;
    options.engine_defaults.num_shards = 2;
    options.checkpoint_path = path;
    options.checkpoint_on_shutdown = true;
    auto collector = MustCreate(options);
    auto a = collector->Register("a", ProtocolKind::kInpHT, config);
    auto b = collector->Register("b", ProtocolKind::kMargPS, config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(a->IngestBatch(batch_a).ok());
    ASSERT_TRUE(b->IngestBatch(batch_b).ok());
    // The last small batch — the classic shutdown tail.
    ASSERT_TRUE(a->IngestBatch(tail_a).ok());
    // No Drain(), no Flush(): the destructor alone must not lose them.
  }

  auto reloaded = MustCreate();
  auto a = reloaded->Register("a", ProtocolKind::kInpHT, config);
  auto b = reloaded->Register("b", ProtocolKind::kMargPS, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  auto absorbed_a = a->ReportsAbsorbed();
  auto absorbed_b = b->ReportsAbsorbed();
  ASSERT_TRUE(absorbed_a.ok());
  ASSERT_TRUE(absorbed_b.ok());
  EXPECT_EQ(*absorbed_a, batch_a.size() + tail_a.size());
  EXPECT_EQ(*absorbed_b, batch_b.size());
  std::filesystem::remove(path);
}

TEST(Collector, UnregisterReleasesEngineOutsideTheRegistryLock) {
  // Unregister of a collection with a deep work backlog joins that
  // engine's shard workers (draining everything queued) — which must NOT
  // happen under the registry lock, or every concurrent Find/Query stalls
  // for the whole drain. Queue slow per-row encode work on "slow", then
  // measure Handle("fast") latency while Unregister("slow") runs.
  auto collector = MustCreate();
  EngineOptions one_shard;
  one_shard.num_shards = 1;
  auto slow = collector->Register("slow", ProtocolKind::kInpRR,
                                  MakeConfig(10, 2), one_shard);
  auto fast = collector->Register("fast", ProtocolKind::kInpHT,
                                  MakeConfig(6, 2), one_shard);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  // ~50k rows of per-row InpRR encoding (1024 Bernoullis each) on one
  // shard: a drain measured in hundreds of milliseconds on typical
  // hardware, enqueued in small batches so it is underway, not pending.
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<uint64_t> rows(1000, 0x2A5);
    ASSERT_TRUE(slow->IngestPopulation(rows, /*fast_path=*/false).ok());
  }

  const auto unregister_start = std::chrono::steady_clock::now();
  std::atomic<bool> started{false};
  std::thread unregisterer([&] {
    started.store(true);
    EXPECT_TRUE(collector->Unregister("slow").ok());
  });
  while (!started.load()) std::this_thread::yield();
  // Registry reads must keep flowing while the drain runs. Measure the
  // Handle call FIRST each round: under the broken locking it is the call
  // that blocks for the whole drain, and the loop must capture that.
  std::chrono::nanoseconds max_find_latency{0};
  for (;;) {
    const auto find_start = std::chrono::steady_clock::now();
    auto handle = collector->Handle("fast");
    const auto find_latency = std::chrono::steady_clock::now() - find_start;
    ASSERT_TRUE(handle.ok());
    max_find_latency = std::max(max_find_latency, find_latency);
    if (collector->collection_count() == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  unregisterer.join();
  const auto unregister_elapsed =
      std::chrono::steady_clock::now() - unregister_start;

  // Self-scaling bound: registry reads are microseconds; the drain is the
  // long pole. Allow generous slack for scheduling noise — the broken
  // code (engine torn down under mu_) makes max_find_latency track the
  // WHOLE drain, failing this by an order of magnitude. Note the drain
  // overlaps Unregister's return here: the registry entry disappears
  // first, then the engine is released outside the lock — so time the
  // unregisterer thread's full lifetime, which includes the join.
  const auto bound = std::max(
      std::chrono::nanoseconds(std::chrono::milliseconds(100)),
      std::chrono::nanoseconds(unregister_elapsed) / 4);
  EXPECT_LT(max_find_latency, bound)
      << "Handle() stalled "
      << std::chrono::duration<double>(max_find_latency).count()
      << "s during an Unregister that took "
      << std::chrono::duration<double>(unregister_elapsed).count() << "s";
}

TEST(Collector, IngestFramesReportsBytesConsumedAndFramesRouted) {
  // The partial-stream contract the network front-end resyncs on: on any
  // mid-stream error, bytes_consumed is the exact offset of the offending
  // frame, frames before it stay ingested, and the counters say how much
  // work was actually handed to engines.
  auto collector = MustCreate();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto handle = collector->Register("known", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  auto batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                    EncodeReportStream(**encoder, 40, 5));
  ASSERT_TRUE(batch.ok());

  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame("known", *batch, stream).ok());
  ASSERT_TRUE(
      AppendCollectionFrame("known", std::vector<uint8_t>(), stream).ok());
  const size_t rogue_at = stream.size();
  ASSERT_TRUE(AppendCollectionFrame("rogue", *batch, stream).ok());
  ASSERT_TRUE(AppendCollectionFrame("known", *batch, stream).ok());

  engine::Collector::IngestFramesResult result;
  const Status status = collector->IngestFrames(stream, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(result.bytes_consumed, rogue_at);
  EXPECT_EQ(result.frames_routed, 2u);     // the data frame + the empty one
  EXPECT_EQ(result.batches_enqueued, 1u);  // empty payloads enqueue nothing
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 40u);  // the prefix stayed ingested

  // Resync exactly where the result points: skip the rogue frame and feed
  // the remainder — the stream completes.
  ldpm::CollectionFrameReader skip(stream.data() + result.bytes_consumed,
                                   stream.size() - result.bytes_consumed);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  ASSERT_TRUE(skip.Next(id, payload, payload_size));
  EXPECT_EQ(id, "rogue");
  const size_t resume_at = result.bytes_consumed + skip.frame_end_offset();
  engine::Collector::IngestFramesResult tail_result;
  ASSERT_TRUE(collector
                  ->IngestFrames(stream.data() + resume_at,
                                 stream.size() - resume_at, &tail_result)
                  .ok());
  EXPECT_EQ(tail_result.bytes_consumed, stream.size() - resume_at);
  EXPECT_EQ(tail_result.frames_routed, 1u);
  absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 80u);

  // A truncated trailing frame: everything whole consumed, the counters
  // stop at the cut.
  std::vector<uint8_t> truncated(stream.begin() + resume_at, stream.end());
  const size_t whole = truncated.size();
  truncated.insert(truncated.end(), {0x05, 0x00, 'k'});  // partial header
  engine::Collector::IngestFramesResult cut_result;
  EXPECT_FALSE(
      collector->IngestFrames(truncated.data(), truncated.size(), &cut_result)
          .ok());
  EXPECT_EQ(cut_result.bytes_consumed, whole);
  EXPECT_EQ(cut_result.frames_routed, 1u);
}

TEST(Collector, CheckpointOnShutdownWritesInDrainAndDestructor) {
  const std::string path = TempPath("ldpm_collector_drain_then_tail.ckpt");
  std::filesystem::remove(path);
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());

  // The flag requires a path.
  CollectorOptions bad;
  bad.checkpoint_on_shutdown = true;
  EXPECT_FALSE(Collector::Create(bad).ok());

  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.checkpoint_path = path;
  options.checkpoint_on_shutdown = true;
  {
    auto collector = MustCreate(options);
    auto handle = collector->Register("m", ProtocolKind::kMargPS, config);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(
        handle->IngestBatch(EncodeReportStream(**encoder, 700, 13)).ok());
    ASSERT_TRUE(collector->Drain().ok());
    EXPECT_TRUE(std::filesystem::exists(path));
    // Ingest past the drain: the destructor must still capture the tail.
    ASSERT_TRUE(
        handle->IngestBatch(EncodeReportStream(**encoder, 300, 14)).ok());
  }
  auto revived = MustCreate();
  auto handle = revived->Register("m", ProtocolKind::kMargPS, config);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(revived->RestoreFrom(path).ok());
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 1000u);
  std::filesystem::remove(path);
}

TEST(Collector, QueryAndQueryCategorical) {
  auto collector = MustCreate();
  ProtocolConfig device_config;
  device_config.cardinalities = {3, 4, 2};
  device_config.k = 2;
  device_config.epsilon = 1.0;
  auto devices =
      collector->Register("devices", ProtocolKind::kInpES, device_config);
  auto clicks =
      collector->Register("clicks", ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(devices.ok());
  ASSERT_TRUE(clicks.ok());

  Rng rng(6);
  auto device_encoder = CreateProtocol(ProtocolKind::kInpES, device_config);
  auto click_encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(device_encoder.ok());
  ASSERT_TRUE(click_encoder.ok());
  std::vector<Report> device_reports, click_reports;
  for (int i = 0; i < 5000; ++i) {
    device_reports.push_back((*device_encoder)->Encode(rng() % 24, rng));
    click_reports.push_back((*click_encoder)->Encode(rng() % 64, rng));
  }
  ASSERT_TRUE(devices->IngestBatch(std::move(device_reports)).ok());
  ASSERT_TRUE(clicks->IngestBatch(std::move(click_reports)).ok());
  auto table = collector->Query("clicks", 0b11);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->size(), 4u);

  auto categorical = collector->QueryCategorical("devices", {0, 1});
  ASSERT_TRUE(categorical.ok()) << categorical.status().ToString();
  EXPECT_EQ(categorical->probabilities.size(), 12u);

  // Categorical queries against a non-InpES collection are refused.
  EXPECT_FALSE(collector->QueryCategorical("clicks", {0, 1}).ok());
  // Unknown collections are NotFound.
  EXPECT_EQ(collector->Query("nope", 1).status().code(),
            StatusCode::kNotFound);
}

TEST(Collector, CheckpointsWrittenReadsTheWriteCounter) {
  const std::string path = TempPath("collector_ckpt_count.bin");
  std::filesystem::remove(path);
  auto collector = MustCreate();
  EXPECT_EQ(collector->checkpoints_written(), 0u);
  EXPECT_TRUE(collector->LastCheckpointError().ok());

  auto clicks =
      collector->Register("clicks", ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(clicks.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  Rng rng(3);
  ASSERT_TRUE(
      clicks->IngestBatch(EncodeReportStream(**encoder, 100, 11)).ok());

  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  EXPECT_EQ(collector->checkpoints_written(), 1u);
  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  EXPECT_EQ(collector->checkpoints_written(), 2u);
  EXPECT_TRUE(collector->LastCheckpointError().ok());
  // The count is the registry's write counter, not a second tally.
  EXPECT_EQ(collector->metrics()->CounterValue(
                "ldpm_collector_checkpoint_writes_total"),
            2u);

  std::filesystem::remove(path);
}

TEST(Collector, LastCheckpointErrorStickyUntilNextSuccessfulWrite) {
  auto collector = MustCreate();
  auto clicks =
      collector->Register("clicks", ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(clicks.ok());
  // An unwritable destination: the parent directory does not exist.
  const std::string bad_path =
      TempPath("collector_no_such_dir") + "/nested/ckpt.bin";
  EXPECT_FALSE(collector->CheckpointTo(bad_path).ok());
  EXPECT_FALSE(collector->LastCheckpointError().ok());
  EXPECT_EQ(collector->checkpoints_written(), 0u);
  // A later successful write means the durable state is current again —
  // the sticky error clears (it used to outlive the condition it
  // reported).
  const std::string good_path = TempPath("collector_ckpt_after_error.bin");
  ASSERT_TRUE(collector->CheckpointTo(good_path).ok());
  EXPECT_EQ(collector->checkpoints_written(), 1u);
  EXPECT_TRUE(collector->LastCheckpointError().ok());
  std::filesystem::remove(good_path);
}

TEST(Collector, RestoreFallsBackPastCorruptNewestGeneration) {
  const std::string dir = TempPath("collector_gen_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  CollectorOptions options;
  options.checkpoint_generations = 2;
  auto collector = MustCreate(options);
  auto clicks =
      collector->Register("clicks", ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(clicks.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(
      clicks->IngestBatch(EncodeReportStream(**encoder, 100, 21)).ok());
  ASSERT_TRUE(clicks->Flush().ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  ASSERT_TRUE(
      clicks->IngestBatch(EncodeReportStream(**encoder, 50, 23)).ok());
  ASSERT_TRUE(clicks->Flush().ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());

  // Corrupt the newest generation; the 100-report cut survives at path.1.
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x08;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  auto reloaded = MustCreate(options);
  auto reloaded_clicks = reloaded->Register("clicks", ProtocolKind::kMargPS,
                                            MakeConfig(6, 2));
  ASSERT_TRUE(reloaded_clicks.ok());
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  auto merged = reloaded_clicks->aggregator().Merged();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->reports_absorbed(), 100u);
  // The walk quarantined the corrupt newest generation and counted it.
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_EQ(reloaded->metrics()->CounterValue(
                "ldpm_collector_checkpoint_quarantined_total"),
            1u);
  std::filesystem::remove_all(dir);
}

TEST(Collector, MetricsRegistryExposesPipelineCounters) {
  auto collector = MustCreate();
  ASSERT_NE(collector->metrics(), nullptr);
  auto clicks =
      collector->Register("clicks", ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(clicks.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  std::vector<uint8_t> stream;
  auto frame = SerializeReportBatch(ProtocolKind::kMargPS, MakeConfig(6, 2),
                                    EncodeReportStream(**encoder, 60, 5));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(AppendCollectionFrame("clicks", *frame, stream).ok());
  ASSERT_TRUE(collector->IngestFrames(stream).ok());
  ASSERT_TRUE(collector->Flush().ok());

  obs::MetricsRegistry* registry = collector->metrics();
  EXPECT_EQ(registry->GaugeValue("ldpm_collector_collections"), 1);
  EXPECT_EQ(registry->CounterValue(
                "ldpm_collector_frames_routed_total{collection=\"clicks\"}"),
            1u);
  EXPECT_EQ(registry->CounterValue(
                "ldpm_collector_frame_bytes_total{collection=\"clicks\"}"),
            stream.size());
  EXPECT_EQ(registry->CounterValue(
                "ldpm_engine_reports_absorbed_total{collection=\"clicks\"}"),
            60u);
  // An unknown-collection frame bumps the rejection counter.
  std::vector<uint8_t> bad;
  ASSERT_TRUE(AppendCollectionFrame("nope", *frame, bad).ok());
  EXPECT_FALSE(collector->IngestFrames(bad).ok());
  EXPECT_EQ(registry->CounterValue("ldpm_collector_unknown_collection_total"),
            1u);
  // A caller-supplied registry is used instead of an owned one.
  obs::MetricsRegistry external;
  CollectorOptions options;
  options.metrics = &external;
  auto shared = MustCreate(options);
  EXPECT_EQ(shared->metrics(), &external);
  ASSERT_TRUE(shared->Register("c", ProtocolKind::kInpRR, MakeConfig(5, 2))
                  .ok());
  EXPECT_EQ(external.GaugeValue("ldpm_collector_collections"), 1);
}

}  // namespace
}  // namespace ldpm
