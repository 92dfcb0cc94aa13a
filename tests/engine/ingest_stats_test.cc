// The engine's throughput accounting lives only in its metrics registry.
// These are the registry-contract tests: every enqueue path counts one
// batch, the absorb counters agree with the shard state after a flush,
// and Reset() clears shard state while the counters stay monotonic (the
// Prometheus contract scrapers rely on).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_aggregator.h"
#include "obs/metrics.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::EngineOptions;
using engine::ShardedAggregator;
using test::EncodeReportStream;
using test::MakeConfig;

constexpr char kBatches[] = "ldpm_engine_batches_enqueued_total";
constexpr char kReports[] = "ldpm_engine_reports_absorbed_total";
constexpr char kBits[] = "ldpm_engine_report_bits_total";

uint64_t Counter(const ShardedAggregator& engine, const char* name) {
  return engine.metrics()->CounterValue(name);
}

// Sums the per-shard absorbed counts from a snapshot of every shard.
uint64_t ShardReports(ShardedAggregator& engine) {
  auto snapshots = engine.SnapshotShards();
  EXPECT_TRUE(snapshots.ok()) << snapshots.status().ToString();
  uint64_t total = 0;
  for (const AggregatorSnapshot& snapshot : *snapshots) {
    total += snapshot.reports_absorbed;
  }
  return total;
}

// The series exist, at zero, before anything is ingested: a scrape of an
// idle engine shows them rather than omitting them.
TEST(EngineCounters, FreshEnginePublishesZeroedSeries) {
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(eng.ok());
  const std::vector<std::string> names = (*eng)->metrics()->Names();
  for (const char* name : {kBatches, kReports, kBits}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
    EXPECT_EQ(Counter(**eng, name), 0u) << name;
  }
}

// Every enqueue path adds exactly one batch per work item: a report
// batch, a wire frame, and each IngestPopulation chunk (one per shard).
TEST(EngineCounters, EveryEnqueuePathCountsOneBatch) {
  const ProtocolConfig config = MakeConfig(6, 2);
  EngineOptions options;
  options.num_shards = 2;
  auto eng = ShardedAggregator::Create(ProtocolKind::kMargPS, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Report> reports = EncodeReportStream(**encoder, 600, 9);

  ASSERT_TRUE((*eng)
                  ->IngestBatch(std::vector<Report>(reports.begin(),
                                                    reports.begin() + 200))
                  .ok());
  EXPECT_EQ(Counter(**eng, kBatches), 1u);
  ASSERT_TRUE((*eng)
                  ->IngestBatch(std::vector<Report>(reports.begin() + 200,
                                                    reports.begin() + 400))
                  .ok());
  EXPECT_EQ(Counter(**eng, kBatches), 2u);
  auto frame = SerializeReportBatch(
      ProtocolKind::kMargPS, config,
      std::vector<Report>(reports.begin() + 400, reports.end()));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*eng)->IngestWireBatch(*frame).ok());
  EXPECT_EQ(Counter(**eng, kBatches), 3u);
  // Two shards: the population splits into two chunks.
  ASSERT_TRUE((*eng)->IngestPopulation(std::vector<uint64_t>(100, 5)).ok());
  EXPECT_EQ(Counter(**eng, kBatches), 5u);
  // Empty inputs enqueue nothing.
  ASSERT_TRUE((*eng)->IngestBatch({}).ok());
  ASSERT_TRUE((*eng)->IngestWireBatch({}).ok());
  ASSERT_TRUE((*eng)->IngestPopulation({}).ok());
  EXPECT_EQ(Counter(**eng, kBatches), 5u);

  ASSERT_TRUE((*eng)->Flush().ok());
  EXPECT_EQ(Counter(**eng, kReports), 700u);  // 600 encoded + 100 rows
}

// After Flush() the absorb counters are exact: they equal the shard
// state (ReportsAbsorbed, the per-shard snapshots) and the paper's
// Table 2 bit count, (d+1) bits per InpHT report. No flushed item is
// still visible as pending: every shard's depth gauge reads 0 and the
// shared budget holds no slot.
TEST(EngineCounters, CountersMatchShardStateAfterFlush) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto budget = std::make_shared<engine::IngestBudget>(8);
  EngineOptions options;
  options.num_shards = 3;
  options.shared_budget = budget;
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config, options);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  // Many small batches so work is queued on every shard at the flush.
  const std::vector<Report> reports = EncodeReportStream(**encoder, 3000, 13);
  for (size_t begin = 0; begin < reports.size(); begin += 100) {
    ASSERT_TRUE((*eng)
                    ->IngestBatch(std::vector<Report>(
                        reports.begin() + begin, reports.begin() + begin + 100))
                    .ok());
  }
  ASSERT_TRUE((*eng)->Flush().ok());
  for (int s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ((*eng)->metrics()->GaugeValue(obs::WithLabels(
                  "ldpm_engine_queue_depth", {{"shard", std::to_string(s)}})),
              0)
        << "shard " << s;
  }
  EXPECT_EQ(budget->in_flight(), 0u);
  auto absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 3000u);
  EXPECT_EQ(Counter(**eng, kReports), *absorbed);
  EXPECT_EQ(ShardReports(**eng), *absorbed);
  EXPECT_EQ(Counter(**eng, kBatches), 30u);
  EXPECT_EQ(Counter(**eng, kBits),
            static_cast<uint64_t>(config.d + 1) * 3000u);
}

// Reset() clears the shard state but never rewinds a counter: scrapers
// compute rates from deltas, and a counter going backwards reads as a
// process restart.
TEST(EngineCounters, ResetClearsShardsButCountersStayMonotonic) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto eng = ShardedAggregator::Create(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(eng.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 100, 3)).ok());
  ASSERT_TRUE((*eng)->Reset().ok());

  auto absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 0u);
  EXPECT_EQ(ShardReports(**eng), 0u);
  EXPECT_EQ(Counter(**eng, kBatches), 1u);
  EXPECT_EQ(Counter(**eng, kReports), 100u);
  EXPECT_EQ(Counter(**eng, kBits), 700u);

  ASSERT_TRUE((*eng)->IngestBatch(EncodeReportStream(**encoder, 50, 4)).ok());
  absorbed = (*eng)->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 50u);
  EXPECT_EQ(Counter(**eng, kBatches), 2u);
  EXPECT_EQ(Counter(**eng, kReports), 150u);
  EXPECT_EQ(Counter(**eng, kBits), 1050u);
}

}  // namespace
}  // namespace ldpm
