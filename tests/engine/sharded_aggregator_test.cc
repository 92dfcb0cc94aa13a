// Tests for the sharded aggregation engine: shard-count invariance (the
// merged S-shard state must be bitwise-identical to a single aggregator fed
// the same report stream), snapshot-based re-sharding, per-shard counts,
// merged-cache invalidation, flushes and queries under a busy producer, and
// error surfacing.

#include "engine/sharded_aggregator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/marginal.h"
#include "oracle/cms.h"
#include "oracle/olh.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::EngineOptions;
using engine::ShardedAggregator;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

class ShardCountInvarianceTest : public ::testing::TestWithParam<ProtocolKind> {
};

// Feeding a fixed pre-encoded report stream through any shard count must
// produce estimates bitwise-identical to the classic single aggregator:
// per-report state increments are integers (exact in doubles), so shard
// sums merge associatively.
TEST_P(ShardCountInvarianceTest, MergedEstimatesMatchSingleAggregator) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto single = CreateProtocol(kind, config);
  ASSERT_TRUE(single.ok());
  const std::vector<Report> reports = EncodeReportStream(**single, 4000, 17);
  for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

  for (int shards : {1, 3, 4}) {
    EngineOptions options;
    options.num_shards = shards;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    // Mix one large batch with many small ones, so batches land on every
    // shard in uneven sizes.
    const size_t half = reports.size() / 2;
    ASSERT_TRUE((*eng)
                    ->IngestBatch(std::vector<Report>(
                        reports.begin(), reports.begin() + half))
                    .ok());
    for (size_t begin = half; begin < reports.size(); begin += 128) {
      const size_t end = std::min(begin + 128, reports.size());
      ASSERT_TRUE((*eng)
                      ->IngestBatch(std::vector<Report>(
                          reports.begin() + begin, reports.begin() + end))
                      .ok());
    }
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ((*merged)->reports_absorbed(), reports.size());
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

// Wire batch frames through the engine must match the single aggregator
// bitwise too — the zero-copy path ends in the same accumulators.
TEST_P(ShardCountInvarianceTest, WireIngestMatchesSingleAggregator) {
  const ProtocolKind kind = GetParam();
  const ProtocolConfig config = MakeConfig(6, 2);
  auto single = CreateProtocol(kind, config);
  ASSERT_TRUE(single.ok());
  const std::vector<Report> reports = EncodeReportStream(**single, 3000, 29);
  for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

  for (int shards : {1, 4}) {
    EngineOptions options;
    options.num_shards = shards;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok());
    for (size_t begin = 0; begin < reports.size(); begin += 500) {
      auto frame = SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + begin,
                              reports.begin() + begin + 500));
      ASSERT_TRUE(frame.ok());
      ASSERT_TRUE((*eng)->IngestWireBatch(*std::move(frame)).ok());
    }
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ((*merged)->reports_absorbed(), reports.size());
    EXPECT_EQ((*merged)->total_report_bits(), (*single)->total_report_bits());
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShardCountInvarianceTest,
    ::testing::ValuesIn(RegisteredProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(ProtocolKindName(info.param));
    });

// The oracle-backed frequency oracles ride through the factory-callback
// constructor; they must shard exactly like the native protocols.
TEST(ShardedAggregator, OracleBackedProtocolsShard) {
  const ProtocolConfig config = MakeConfig(6, 2);
  struct Case {
    std::string name;
    engine::ProtocolFactory factory;
  };
  const std::vector<Case> cases = {
      {"InpHTCMS",
       [config]() -> StatusOr<std::unique_ptr<MarginalProtocol>> {
         CmsParams params;
         params.width = 64;
         auto p = InpHtCmsProtocol::Create(config, params, 99);
         if (!p.ok()) return p.status();
         return std::unique_ptr<MarginalProtocol>(*std::move(p));
       }},
      {"InpOLH", [config]() -> StatusOr<std::unique_ptr<MarginalProtocol>> {
         auto p = InpOlhProtocol::Create(config);
         if (!p.ok()) return p.status();
         return std::unique_ptr<MarginalProtocol>(*std::move(p));
       }},
  };
  for (const Case& test_case : cases) {
    auto single = test_case.factory();
    ASSERT_TRUE(single.ok());
    const std::vector<Report> reports = EncodeReportStream(**single, 1500, 23);
    for (const Report& r : reports) ASSERT_TRUE((*single)->Absorb(r).ok());

    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(test_case.factory, options);
    ASSERT_TRUE(eng.ok()) << test_case.name;
    ASSERT_TRUE((*eng)->IngestBatch(reports).ok());
    auto merged = (*eng)->Merged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectBitwiseEqualEstimates(**single, **merged);
  }
}

// Row ingest runs the client encoders on the shard workers with independent
// Rng streams: not bitwise-reproducible across shard counts, but the
// estimates must still converge to the population's marginals.
TEST(ShardedAggregator, RowIngestIsDistributionEquivalent) {
  const ProtocolConfig config = MakeConfig(5, 2);
  Rng rng(5);
  std::vector<uint64_t> rows;
  for (size_t i = 0; i < 60000; ++i) rows.push_back(rng() & 0x1F);

  for (bool fast_path : {false, true}) {
    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
    ASSERT_TRUE(eng.ok());
    ASSERT_TRUE((*eng)->IngestPopulation(rows, fast_path).ok());
    auto reports = (*eng)->ReportsAbsorbed();
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(*reports, rows.size());

    auto truth = MarginalFromRows(rows, config.d, 0b11);
    auto estimate = (*eng)->EstimateMarginal(0b11);
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(estimate.ok());
    EXPECT_LT(truth->TotalVariationDistance(*estimate), 0.1);
  }
}

TEST(ShardedAggregator, SnapshotRestoresAcrossShardCounts) {
  const ProtocolConfig config = MakeConfig(6, 2);
  for (ProtocolKind kind : AllProtocolKinds()) {
    EngineOptions options;
    options.num_shards = 4;
    auto eng = ShardedAggregator::Create(kind, config, options);
    ASSERT_TRUE(eng.ok());
    auto encoder = CreateProtocol(kind, config);
    ASSERT_TRUE(encoder.ok());
    ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 2000, 31)).ok());
    auto merged_before = (*eng)->Merged();
    ASSERT_TRUE(merged_before.ok());

    auto snapshots = (*eng)->SnapshotShards();
    ASSERT_TRUE(snapshots.ok()) << snapshots.status().ToString();
    ASSERT_EQ(snapshots->size(), 4u);

    // Restore the 4 shard snapshots into a 2-shard engine (re-sharding) and
    // into another 4-shard engine (crash recovery).
    for (int target_shards : {2, 4}) {
      EngineOptions target_options;
      target_options.num_shards = target_shards;
      auto restored = ShardedAggregator::Create(kind, config, target_options);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE((*restored)->RestoreShards(*snapshots).ok());
      auto merged_after = (*restored)->Merged();
      ASSERT_TRUE(merged_after.ok()) << merged_after.status().ToString();
      EXPECT_EQ((*merged_after)->reports_absorbed(),
                (*merged_before)->reports_absorbed());
      EXPECT_EQ((*merged_after)->total_report_bits(),
                (*merged_before)->total_report_bits());
      ExpectBitwiseEqualEstimates(**merged_before, **merged_after);
    }
  }
}

TEST(ShardedAggregator, ReportsCountPerShard) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 3;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 900, 41);
  // Three batches of 300: round-robin lands one on each shard.
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE((*eng)
                    ->IngestBatch(std::vector<Report>(
                        reports.begin() + b * 300,
                        reports.begin() + (b + 1) * 300))
                    .ok());
  }
  auto total = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 900u);
  auto snapshots = (*eng)->SnapshotShards();
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 3u);
  for (const AggregatorSnapshot& shard : *snapshots) {
    EXPECT_EQ(shard.reports_absorbed, 300u);
    EXPECT_GT(shard.total_report_bits, 0.0);
  }
}

// A query that runs while a producer waits on the shared budget must not
// cache the pre-push state as current: once the producer's IngestBatch
// has returned, the next query includes its batch. (The merged cache is
// invalidated after the queue push; a bump before it would let this query
// record the new epoch, drain a queue still missing the batch, and serve
// that state until some later ingest.)
TEST(ShardedAggregator, QueryDuringBudgetWaitDoesNotCacheStaleState) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto budget = std::make_shared<engine::IngestBudget>(1);
  EngineOptions options;
  options.shared_budget = budget;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  std::vector<Report> reports = EncodeReportStream(**encoder, 500, 43);

  budget->Acquire();  // hold the only slot: the producer blocks on it
  Status ingested;
  std::thread producer(
      [&] { ingested = (*eng)->IngestBatch(std::move(reports)); });
  // Only widens the window in which the producer is parked in the budget
  // wait; the assertions hold under every interleaving.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto during = (*eng)->Merged();
  ASSERT_TRUE(during.ok());
  EXPECT_EQ((*during)->reports_absorbed(), 0u);
  budget->Release();
  producer.join();
  ASSERT_TRUE(ingested.ok()) << ingested.ToString();

  auto after = (*eng)->Merged();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->reports_absorbed(), 500u);
}

// A producer that keeps the only shard's queue full must not stall a
// flush or a query: Flush() waits only for the items enqueued before it,
// and a reader waiting on the shard's state waits for at most the item in
// progress. The producer stops at a cap so the test ends even when the
// engine is at fault; each call must return well before the cap.
TEST(ShardedAggregator, BusyProducerDoesNotStallFlushOrQuery) {
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpRR, MakeConfig(10, 2));
  ASSERT_TRUE(eng.ok());
  constexpr uint64_t kCap = 1500;
  const std::vector<uint64_t> rows(64, 0b1011001110);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pushed{0};
  std::thread producer([&] {
    while (!stop.load() && pushed.load() < kCap) {
      EXPECT_TRUE((*eng)->IngestPopulation(rows, /*fast_path=*/false).ok());
      pushed.fetch_add(1);
    }
  });
  while (pushed.load() < 100) std::this_thread::yield();
  const Status flushed = (*eng)->Flush();
  const uint64_t after_flush = pushed.load();
  auto table = (*eng)->EstimateMarginal(0b11);
  const uint64_t after_query = pushed.load();
  stop.store(true);
  producer.join();
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_LT(after_flush, kCap);
  EXPECT_LT(after_query, kCap);
}

TEST(ShardedAggregator, ResetClearsAllShards) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 4;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  auto fresh = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  ASSERT_TRUE(eng.ok());
  ASSERT_TRUE(fresh.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());

  ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 1000, 51)).ok());
  ASSERT_TRUE((*eng)->Reset().ok());
  auto total = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 0u);

  const std::vector<Report> second = EncodeReportStream(**encoder, 1000, 52);
  ASSERT_TRUE((*eng)->IngestBatch(second).ok());
  ASSERT_TRUE((*fresh)->IngestBatch(second).ok());
  auto merged_reset = (*eng)->Merged();
  auto merged_fresh = (*fresh)->Merged();
  ASSERT_TRUE(merged_reset.ok());
  ASSERT_TRUE(merged_fresh.ok());
  ExpectBitwiseEqualEstimates(**merged_reset, **merged_fresh);
}

TEST(ShardedAggregator, WorkerErrorsSurfaceAtFlush) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  Report malformed;
  malformed.selector = (uint64_t{1} << 6) - 1;  // order-6 selector: rejected
  malformed.value = 0;
  ASSERT_TRUE((*eng)->IngestBatch({malformed}).ok());  // enqueue succeeds
  const Status flushed = (*eng)->Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("shard"), std::string::npos);
}

TEST(ShardedAggregator, RejectsBadOptions) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(
      ShardedAggregator::Create(ProtocolKind::kInpHT, config, options).ok());
  EXPECT_FALSE(
      ShardedAggregator::Create(engine::ProtocolFactory(), EngineOptions())
          .ok());
}

}  // namespace
}  // namespace ldpm
