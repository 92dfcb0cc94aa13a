// Checkpoint subsystem tests: snapshot payload round trips per protocol,
// whole-file round trips through the Collector (the only checkpoint file
// writer; same and different shard counts), rejection of truncated /
// bit-flipped / wrong-version files, generation fallback, and the sticky
// error of a caller-driven checkpoint.

#include "engine/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/failpoint.h"
#include "core/file_io.h"
#include "engine/collector.h"
#include "engine/sharded_aggregator.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"

namespace ldpm {
namespace {

using engine::CollectionHandle;
using engine::Collector;
using engine::CollectorOptions;
using engine::DecodeCheckpoint;
using engine::EncodeCheckpoint;
using engine::EngineOptions;
using engine::ShardedAggregator;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<uint8_t> MustEncode(const std::vector<AggregatorSnapshot>& s) {
  auto image = EncodeCheckpoint(s);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return *std::move(image);
}

/// An engine with absorbed reports, plus the identical single aggregator.
struct LoadedEngine {
  std::unique_ptr<ShardedAggregator> engine;
  std::unique_ptr<MarginalProtocol> reference;
};

LoadedEngine MakeLoadedEngine(ProtocolKind kind, int num_shards,
                              size_t num_reports, uint64_t seed) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = num_shards;
  auto eng = ShardedAggregator::Create(kind, config, options);
  EXPECT_TRUE(eng.ok()) << eng.status().ToString();
  auto reference = CreateProtocol(kind, config);
  EXPECT_TRUE(reference.ok());
  const std::vector<Report> reports =
      EncodeReportStream(**reference, num_reports, seed);
  for (const Report& r : reports) {
    EXPECT_TRUE((*reference)->Absorb(r).ok());
  }
  EXPECT_TRUE((*eng)->IngestBatch(reports).ok());
  EXPECT_TRUE((*eng)->Flush().ok());
  return {*std::move(eng), *std::move(reference)};
}

/// A collector hosting one collection "c" of `kind` at `num_shards`.
struct OneCollection {
  std::unique_ptr<Collector> collector;
  CollectionHandle handle;
};

OneCollection MakeCollector(ProtocolKind kind, int num_shards,
                            CollectorOptions options = {}) {
  options.engine_defaults.num_shards = num_shards;
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  auto handle = (*collector)->Register("c", kind, MakeConfig(6, 2));
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return {*std::move(collector), *std::move(handle)};
}

/// A collector with absorbed reports, plus the identical single aggregator.
struct LoadedCollector {
  OneCollection hosted;
  std::unique_ptr<MarginalProtocol> reference;
};

LoadedCollector MakeLoadedCollector(ProtocolKind kind, int num_shards,
                                    size_t num_reports, uint64_t seed) {
  OneCollection hosted = MakeCollector(kind, num_shards);
  auto reference = CreateProtocol(kind, MakeConfig(6, 2));
  EXPECT_TRUE(reference.ok());
  const std::vector<Report> reports =
      EncodeReportStream(**reference, num_reports, seed);
  for (const Report& r : reports) {
    EXPECT_TRUE((*reference)->Absorb(r).ok());
  }
  EXPECT_TRUE(hosted.handle.IngestBatch(reports).ok());
  EXPECT_TRUE(hosted.handle.Flush().ok());
  return {std::move(hosted), *std::move(reference)};
}

class CheckpointPerProtocolTest
    : public ::testing::TestWithParam<ProtocolKind> {};

// SerializeSnapshot/DeserializeSnapshot must be exact inverses for every
// protocol's accumulator layout (doubles round-trip bitwise via their IEEE
// bit patterns).
TEST_P(CheckpointPerProtocolTest, SnapshotPayloadRoundTrips) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto protocol = CreateProtocol(kind, config);
  ASSERT_TRUE(protocol.ok());
  for (const Report& r : EncodeReportStream(**protocol, 500, 11)) {
    ASSERT_TRUE((*protocol)->Absorb(r).ok());
  }
  const AggregatorSnapshot snapshot = (*protocol)->Snapshot();
  const std::vector<uint8_t> payload = engine::SerializeSnapshot(snapshot);
  auto parsed = engine::DeserializeSnapshot(payload.data(), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->protocol, snapshot.protocol);
  EXPECT_EQ(parsed->d, snapshot.d);
  EXPECT_EQ(parsed->k, snapshot.k);
  EXPECT_EQ(parsed->epsilon, snapshot.epsilon);
  EXPECT_EQ(parsed->estimator, snapshot.estimator);
  EXPECT_EQ(parsed->unary_variant, snapshot.unary_variant);
  EXPECT_EQ(parsed->sample_zero_coefficient, snapshot.sample_zero_coefficient);
  EXPECT_EQ(parsed->reports_absorbed, snapshot.reports_absorbed);
  EXPECT_EQ(parsed->total_report_bits, snapshot.total_report_bits);
  EXPECT_EQ(parsed->reals, snapshot.reals);
  EXPECT_EQ(parsed->counts, snapshot.counts);

  // Restoring the parsed snapshot reproduces the aggregator bitwise.
  auto restored = CreateProtocol(kind, config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore(*parsed).ok());
  ExpectBitwiseEqualEstimates(**protocol, **restored);
}

// The acceptance criterion: a checkpoint written mid-ingest restores into
// a fresh collector — same or different shard count — whose marginal query
// results are bitwise-identical to the original's at checkpoint time.
TEST_P(CheckpointPerProtocolTest, FileRoundTripAcrossShardCounts) {
  const ProtocolKind kind = GetParam();
  const std::string path =
      TestPath("ckpt_roundtrip_" + std::string(ProtocolKindName(kind)) +
               ".bin");
  LoadedCollector loaded = MakeLoadedCollector(kind, 4, 2000, 31);
  ASSERT_TRUE(loaded.hosted.collector->CheckpointTo(path).ok());

  // Reports ingested AFTER the checkpoint must not leak into the file.
  auto encoder = CreateProtocol(kind, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(loaded.hosted.handle
                  .IngestBatch(EncodeReportStream(**encoder, 300, 77))
                  .ok());

  for (int target_shards : {1, 2, 4}) {
    OneCollection restored = MakeCollector(kind, target_shards);
    ASSERT_TRUE(restored.collector->RestoreFrom(path).ok());
    auto merged = restored.handle.aggregator().Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ((*merged)->reports_absorbed(), 2000u);
    ExpectBitwiseEqualEstimates(*loaded.reference, **merged);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckpointPerProtocolTest,
    ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

// InpEM files written by builds that logged every report hold, per shard,
// counts = that shard's responses in arrival order. Both container
// versions of such a file restore, at any shard count, to the marginals
// of a fresh absorb of the same seeded report stream.
TEST(Checkpoint, InpEmLogLayoutFilesRestoreBitwise) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto reference = CreateProtocol(ProtocolKind::kInpEM, config);
  ASSERT_TRUE(reference.ok());
  const std::vector<Report> reports =
      EncodeReportStream(**reference, 3000, 43);
  std::vector<AggregatorSnapshot> shards;
  for (size_t shard = 0; shard < 2; ++shard) {
    auto empty = CreateProtocol(ProtocolKind::kInpEM, config);
    ASSERT_TRUE(empty.ok());
    AggregatorSnapshot snapshot = (*empty)->Snapshot();
    snapshot.counts.clear();
    for (size_t i = shard; i < reports.size(); i += 2) {
      snapshot.counts.push_back(reports[i].value);
      ++snapshot.reports_absorbed;
      snapshot.total_report_bits += reports[i].bits;
    }
    shards.push_back(std::move(snapshot));
  }
  for (const Report& r : reports) {
    ASSERT_TRUE((*reference)->Absorb(r).ok());
  }

  auto v1 = EncodeCheckpoint(shards);
  auto v2 = engine::EncodeCollectorCheckpoint({{"c", shards}});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  const std::string path = TestPath("ckpt_inp_em_log_layout.bin");
  for (const std::vector<uint8_t>* image : {&*v1, &*v2}) {
    ASSERT_TRUE(WriteBinaryFileAtomic(path, *image).ok());
    for (int target_shards : {1, 3}) {
      OneCollection restored =
          MakeCollector(ProtocolKind::kInpEM, target_shards);
      ASSERT_TRUE(restored.collector->RestoreFrom(path).ok());
      auto merged = restored.handle.aggregator().Merged();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_EQ((*merged)->reports_absorbed(), reports.size());
      EXPECT_EQ((*merged)->total_report_bits(),
                (*reference)->total_report_bits());
      ExpectBitwiseEqualEstimates(**reference, **merged);
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, EmptySnapshotListRoundTrips) {
  const std::vector<uint8_t> image = MustEncode({});
  EXPECT_EQ(image.size(), 20u);  // header only
  auto decoded = DecodeCheckpoint(image.data(), image.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());
}

TEST(Checkpoint, EveryTruncationIsRejected) {
  LoadedEngine loaded = MakeLoadedEngine(ProtocolKind::kInpHT, 2, 400, 13);
  auto snapshots = loaded.engine->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  const std::vector<uint8_t> image = MustEncode(*snapshots);
  ASSERT_GT(image.size(), 20u);
  for (size_t len = 0; len < image.size(); ++len) {
    auto decoded = DecodeCheckpoint(image.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len << " accepted";
  }
}

TEST(Checkpoint, EveryByteFlipIsRejected) {
  LoadedEngine loaded = MakeLoadedEngine(ProtocolKind::kMargPS, 2, 300, 19);
  auto snapshots = loaded.engine->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  std::vector<uint8_t> image = MustEncode(*snapshots);
  auto clean = DecodeCheckpoint(image.data(), image.size());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] ^= 0xA5;
    auto decoded = DecodeCheckpoint(image.data(), image.size());
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i << " accepted";
    image[i] ^= 0xA5;
  }
}

TEST(Checkpoint, NewerFormatVersionIsRejectedNotMisparsed) {
  std::vector<uint8_t> image = MustEncode({});
  // Bump the version field and re-stamp a VALID header CRC: this simulates
  // a well-formed file from a future build, not corruption.
  image[8] = static_cast<uint8_t>(engine::kCheckpointFormatVersion + 1);
  const uint32_t crc = Crc32c(image.data(), 16);
  image[16] = static_cast<uint8_t>(crc);
  image[17] = static_cast<uint8_t>(crc >> 8);
  image[18] = static_cast<uint8_t>(crc >> 16);
  image[19] = static_cast<uint8_t>(crc >> 24);
  auto decoded = DecodeCheckpoint(image.data(), image.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().ToString();
}

TEST(Checkpoint, BadMagicIsRejected) {
  std::vector<uint8_t> image = MustEncode({});
  image[0] = 'X';
  auto decoded = DecodeCheckpoint(image.data(), image.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(Checkpoint, TrailingBytesAreRejected) {
  LoadedEngine loaded = MakeLoadedEngine(ProtocolKind::kInpPS, 1, 200, 23);
  auto snapshots = loaded.engine->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  std::vector<uint8_t> image = MustEncode(*snapshots);
  image.push_back(0);
  auto decoded = DecodeCheckpoint(image.data(), image.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(Checkpoint, RestoreFromMissingFileIsNotFound) {
  OneCollection hosted = MakeCollector(ProtocolKind::kInpHT, 1);
  const Status s =
      hosted.collector->RestoreFrom(TestPath("ckpt_no_such_file.bin"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// A corrupted file must reject with a clear error AND leave the target
// collection's state untouched.
TEST(Checkpoint, CorruptFileLeavesEngineStateIntact) {
  const std::string path = TestPath("ckpt_corrupt.bin");
  LoadedCollector loaded =
      MakeLoadedCollector(ProtocolKind::kInpHT, 2, 500, 37);
  ASSERT_TRUE(loaded.hosted.collector->CheckpointTo(path).ok());
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  const Status restored = loaded.hosted.collector->RestoreFrom(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("checkpoint"), std::string::npos)
      << restored.ToString();
  // State unchanged: still answers like the reference aggregator.
  auto merged = loaded.hosted.handle.aggregator().Merged();
  ASSERT_TRUE(merged.ok());
  ExpectBitwiseEqualEstimates(*loaded.reference, **merged);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");
}

// Restoring a checkpoint into a collection running a different protocol
// must fail (the per-snapshot protocol name guards the restore).
TEST(Checkpoint, ProtocolMismatchIsRejected) {
  const std::string path = TestPath("ckpt_mismatch.bin");
  LoadedCollector loaded =
      MakeLoadedCollector(ProtocolKind::kInpHT, 2, 200, 41);
  ASSERT_TRUE(loaded.hosted.collector->CheckpointTo(path).ok());
  OneCollection other = MakeCollector(ProtocolKind::kMargPS, 1);
  EXPECT_FALSE(other.collector->RestoreFrom(path).ok());
  std::filesystem::remove(path);
}

// Periodic durability is caller-driven: a failed Checkpoint() leaves a
// sticky LastCheckpointError and counts an error; the caller's next tick
// is the retry, and its success clears the error.
TEST(Checkpoint, CallerDrivenCheckpointRetryClearsStickyError) {
  const std::string path = TestPath("ckpt_retry.bin");
  std::filesystem::remove(path);
  CollectorOptions options;
  options.checkpoint_path = path;
  OneCollection hosted = MakeCollector(ProtocolKind::kInpHT, 2, options);
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(
      hosted.handle.IngestBatch(EncodeReportStream(**encoder, 500, 7)).ok());
  Collector& collector = *hosted.collector;
  const obs::MetricsRegistry& registry = *collector.metrics();

  failpoint::ArmError("file_io.write");
  EXPECT_FALSE(collector.Checkpoint().ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(collector.LastCheckpointError().ok());
  EXPECT_EQ(collector.checkpoints_written(), 0u);
  EXPECT_EQ(registry.CounterValue("ldpm_collector_checkpoint_errors_total"),
            1u);

  ASSERT_TRUE(collector.Checkpoint().ok());
  EXPECT_TRUE(collector.LastCheckpointError().ok());
  EXPECT_EQ(collector.checkpoints_written(), 1u);
  EXPECT_EQ(registry.CounterValue("ldpm_collector_checkpoint_writes_total"),
            1u);
  OneCollection restored = MakeCollector(ProtocolKind::kInpHT, 1);
  ASSERT_TRUE(restored.collector->RestoreFrom(path).ok());
  auto absorbed = restored.handle.ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 500u);
  std::filesystem::remove(path);
}

// ---- Checkpoint generations --------------------------------------------

TEST(CheckpointGenerations, GenerationPathNaming) {
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 0), "/x/ckpt.bin");
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 1),
            "/x/ckpt.bin.1");
  EXPECT_EQ(engine::CheckpointGenerationPath("/x/ckpt.bin", 3),
            "/x/ckpt.bin.3");
}

TEST(CheckpointGenerations, RotationKeepsNewestNMinusOneAndDropsOlder) {
  const std::string dir = TestPath("ckpt_gen_rotate");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  // Four writes through a 3-generation rotation: A, B, C, D. The rotation
  // before each write shifts existing files one slot older, so at the end
  // path=D, path.1=C, path.2=B, and A has been rotated out of existence.
  for (uint8_t content : {'A', 'B', 'C', 'D'}) {
    ASSERT_TRUE(engine::RotateCheckpointGenerations(path, 3).ok());
    ASSERT_TRUE(WriteBinaryFileAtomic(path, {content}).ok());
  }
  auto newest = ReadBinaryFile(path);
  auto gen1 = ReadBinaryFile(path + ".1");
  auto gen2 = ReadBinaryFile(path + ".2");
  ASSERT_TRUE(newest.ok());
  ASSERT_TRUE(gen1.ok());
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(*newest, std::vector<uint8_t>{'D'});
  EXPECT_EQ(*gen1, std::vector<uint8_t>{'C'});
  EXPECT_EQ(*gen2, std::vector<uint8_t>{'B'});
  EXPECT_FALSE(std::filesystem::exists(path + ".3"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, SingleGenerationRotationIsNoop) {
  const std::string path = TestPath("ckpt_gen_single.bin");
  ASSERT_TRUE(WriteBinaryFileAtomic(path, {1}).ok());
  ASSERT_TRUE(engine::RotateCheckpointGenerations(path, 1).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  std::filesystem::remove(path);
}

TEST(CheckpointGenerations, FallbackSkipsCorruptNewestAndQuarantines) {
  const std::string dir = TestPath("ckpt_gen_fallback");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  // Two checkpoints of the same collector at different cuts: gen 1 holds
  // the 400-report cut, gen 0 the 700-report cut.
  CollectorOptions options;
  options.checkpoint_generations = 2;
  OneCollection hosted = MakeCollector(ProtocolKind::kInpHT, 2, options);
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE(
      hosted.handle.IngestBatch(EncodeReportStream(**encoder, 400, 3)).ok());
  ASSERT_TRUE(hosted.collector->CheckpointTo(path).ok());
  ASSERT_TRUE(
      hosted.handle.IngestBatch(EncodeReportStream(**encoder, 300, 5)).ok());
  ASSERT_TRUE(hosted.collector->CheckpointTo(path).ok());

  // Corrupt the newest generation in place.
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 3] ^= 0x10;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  engine::CheckpointFallbackInfo info;
  auto collections =
      engine::ReadCollectorCheckpointWithFallback(path, 2, &info);
  ASSERT_TRUE(collections.ok()) << collections.status().ToString();
  ASSERT_EQ(collections->size(), 1u);
  EXPECT_EQ(info.generation, 1);
  EXPECT_EQ(info.path, path + ".1");
  ASSERT_EQ(info.quarantined.size(), 1u);
  EXPECT_EQ(info.quarantined[0], path + ".corrupt");
  // The corrupt file moved aside — inspectable, out of the rotation.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  uint64_t total = 0;
  for (const AggregatorSnapshot& s : (*collections)[0].snapshots) {
    total += s.reports_absorbed;
  }
  EXPECT_EQ(total, 400u);

  // Collector::RestoreFrom takes the same fallback path and counts the
  // quarantine. Put the corrupt newest file back for it to find.
  std::filesystem::rename(path + ".corrupt", path);
  OneCollection restored = MakeCollector(ProtocolKind::kInpHT, 1, options);
  const obs::MetricsRegistry& registry = *restored.collector->metrics();
  EXPECT_EQ(
      registry.CounterValue("ldpm_collector_checkpoint_quarantined_total"),
      0u);
  ASSERT_TRUE(restored.collector->RestoreFrom(path).ok());
  EXPECT_EQ(
      registry.CounterValue("ldpm_collector_checkpoint_quarantined_total"),
      1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  auto merged = restored.handle.aggregator().Merged();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->reports_absorbed(), 400u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, AllGenerationsCorruptReportsLastErrorNotFound) {
  const std::string dir = TestPath("ckpt_gen_all_corrupt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  ASSERT_TRUE(WriteBinaryFileAtomic(path, {0xDE, 0xAD}).ok());
  ASSERT_TRUE(WriteBinaryFileAtomic(path + ".1", {0xBE, 0xEF}).ok());

  engine::CheckpointFallbackInfo info;
  auto collections =
      engine::ReadCollectorCheckpointWithFallback(path, 2, &info);
  ASSERT_FALSE(collections.ok());
  EXPECT_NE(collections.status().code(), StatusCode::kNotFound)
      << collections.status().ToString();
  EXPECT_EQ(info.quarantined.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_TRUE(std::filesystem::exists(path + ".1.corrupt"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGenerations, NoGenerationAtAllIsNotFound) {
  auto collections = engine::ReadCollectorCheckpointWithFallback(
      TestPath("ckpt_gen_none.bin"), 3);
  ASSERT_FALSE(collections.ok());
  EXPECT_EQ(collections.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, HostileArrayLengthDoesNotWrapByteArithmetic) {
  // Regression for the u64 wrap in the array-length guard: a reals length
  // of 0x2000000000000001 multiplied by 8 wraps mod 2^64 to exactly 8, so
  // the old `count * 8 <= remaining` check passed with 8 payload bytes in
  // hand and the decoder then tried to materialize 2^61 doubles. The exact
  // triggering bytes: a valid empty snapshot with the reals-length field
  // patched and 8 trailing bytes appended to satisfy the wrapped check.
  AggregatorSnapshot snapshot;
  snapshot.protocol = "x";
  std::vector<uint8_t> payload = engine::SerializeSnapshot(snapshot);
  const size_t reals_len_at = 4 + 1 + 4 + 4 + 8 + 4 + 8 + 8;  // == 41
  ASSERT_EQ(payload.size(), reals_len_at + 8 + 8);
  const uint8_t wrapping_len[8] = {0x01, 0, 0, 0, 0, 0, 0, 0x20};
  std::copy(wrapping_len, wrapping_len + 8, payload.begin() + reals_len_at);
  payload.insert(payload.end(), 8, 0x00);

  auto parsed = engine::DeserializeSnapshot(payload.data(), payload.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(
                "reals length 2305843009213693953 exceeds"),
            std::string::npos)
      << parsed.status().ToString();

  // Same wrap on the counts-length field of an otherwise-valid payload.
  std::vector<uint8_t> counts_payload = engine::SerializeSnapshot(snapshot);
  const size_t counts_len_at = reals_len_at + 8;
  std::copy(wrapping_len, wrapping_len + 8,
            counts_payload.begin() + counts_len_at);
  counts_payload.insert(counts_payload.end(), 8, 0x00);
  auto counts_parsed =
      engine::DeserializeSnapshot(counts_payload.data(), counts_payload.size());
  ASSERT_FALSE(counts_parsed.ok());
  EXPECT_NE(counts_parsed.status().message().find(
                "counts length 2305843009213693953 exceeds"),
            std::string::npos)
      << counts_parsed.status().ToString();
}

}  // namespace
}  // namespace ldpm
