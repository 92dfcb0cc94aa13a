// The query-serving plane's verification harness (properties a, b, d of
// the serving contract; property c — torn-snapshot freedom under
// concurrency — lives in tests/query/concurrency_test.cc):
//
//   (a) Overlap agreement: every pair of served marginals with
//       intersecting attribute sets marginalizes to the same sub-table,
//       across ALL registered protocol kinds including (binary) InpES.
//       Agreement is asserted per cell to 1e-12 — the shared-coefficient
//       fit makes overlaps *mathematically* identical, and the residual
//       is only IEEE summation-order noise (marginalizing a
//       reconstructed table re-associates the same sum).
//   (b) Bitwise reproducibility: a cache answer at watermark W is
//       bit-for-bit the direct pipeline — Collector::Query for every
//       cached selector + MakeConsistent (equal weights) — at W.
//   (d) Accuracy envelope: cache-served answers on a known synthetic
//       population stay within the protocol's analytic error bound
//       (protocols/accuracy.h) with a constant-factor allowance.
//
// Plus the epoch machinery itself: watermark-keyed invalidation, hit /
// refresh / stale metrics, serve_stale semantics (driven through the
// query.cache.rebuild failpoint), and the Create-time domain guards.

#include "query/marginal_cache.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/consistency.h"
#include "core/failpoint.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "protocols/accuracy.h"
#include "protocols/factory.h"
#include "protocols/test_util.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using query::MarginalCache;
using query::MarginalCacheOptions;
using query::Snapshot;
using test::MakeConfig;
using test::SkewedRows;

std::unique_ptr<Collector> MakeCollector() {
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  return *std::move(collector);
}

/// Registers a collection, ingests `rows`, and flushes.
engine::CollectionHandle Fill(Collector& collector, const std::string& id,
                              ProtocolKind kind, const ProtocolConfig& config,
                              const std::vector<uint64_t>& rows) {
  auto handle = collector.Register(id, kind, config);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle->IngestPopulation(rows, /*fast_path=*/false).ok());
  EXPECT_TRUE(handle->Flush().ok());
  return *std::move(handle);
}

// ---- (a) overlap agreement across every registered kind --------------------

TEST(MarginalCacheOverlap, AllRegisteredKindsAgreeOnOverlaps) {
  const int d = 6;
  const int k = 2;
  const std::vector<uint64_t> rows = SkewedRows(d, 8000, 11);
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto collector = MakeCollector();
    Fill(*collector, "c", kind, MakeConfig(d, k), rows);
    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    auto snapshot = (*cache)->Get();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const auto& selectors = (*snapshot)->selectors();
    ASSERT_EQ(selectors.size(), FullKWaySelectors(d, k).size());
    for (size_t i = 0; i < selectors.size(); ++i) {
      for (size_t j = i + 1; j < selectors.size(); ++j) {
        const uint64_t common = selectors[i] & selectors[j];
        if (common == 0) continue;
        auto a = MarginalizeTable(*(*snapshot)->Find(selectors[i]), common);
        auto b = MarginalizeTable(*(*snapshot)->Find(selectors[j]), common);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        const MarginalTable* canonical = (*snapshot)->Find(common);
        ASSERT_NE(canonical, nullptr);
        for (uint64_t cell = 0; cell < a->size(); ++cell) {
          // The two projections disagree only by floating-point
          // re-association of one shared-coefficient reconstruction.
          EXPECT_NEAR(a->at_compact(cell), b->at_compact(cell), 1e-12)
              << "betas " << selectors[i] << " & " << selectors[j];
          // ... and both agree with the canonically served table for the
          // intersection selector itself.
          EXPECT_NEAR(a->at_compact(cell), canonical->at_compact(cell), 1e-12)
              << "beta " << selectors[i] << " vs canonical " << common;
        }
      }
    }
  }
}

// ---- (b) bitwise equality with the direct pipeline -------------------------

TEST(MarginalCacheBitwise, CacheEqualsDirectQueryPlusMakeConsistent) {
  const int d = 6;
  const int k = 2;
  for (ProtocolKind kind :
       {ProtocolKind::kMargPS, ProtocolKind::kInpHT, ProtocolKind::kInpRR}) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto collector = MakeCollector();
    Fill(*collector, "c", kind, MakeConfig(d, k), SkewedRows(d, 12000, 23));

    // The direct pipeline at the current watermark: query every selector
    // the cache materializes, then one equal-weight consistency fit.
    const std::vector<uint64_t> selectors = FullKWaySelectors(d, k);
    std::vector<MarginalTable> raw;
    for (uint64_t beta : selectors) {
      auto table = collector->Query("c", beta);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      raw.push_back(*std::move(table));
    }
    auto direct = MakeConsistent(raw, d);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok());
    for (size_t i = 0; i < selectors.size(); ++i) {
      auto answer = (*cache)->Marginal(selectors[i]);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->watermark, (*cache)->LiveWatermark());
      EXPECT_FALSE(answer->stale);
      ASSERT_EQ(answer->table.size(), (*direct)[i].size());
      for (uint64_t cell = 0; cell < answer->table.size(); ++cell) {
        // Bit-for-bit: same merged engine state, same deterministic fit.
        EXPECT_EQ(answer->table.at_compact(cell),
                  (*direct)[i].at_compact(cell))
            << "beta=" << selectors[i] << " cell=" << cell;
      }
    }
  }
}

// ---- (d) accuracy envelope -------------------------------------------------

TEST(MarginalCacheAccuracy, WithinAnalyticErrorEnvelope) {
  const int d = 6;
  const int k = 2;
  const size_t n = 40000;
  const std::vector<uint64_t> rows = SkewedRows(d, n, 31);
  for (ProtocolKind kind : RegisteredProtocolKinds()) {
    SCOPED_TRACE(std::string(ProtocolKindName(kind)));
    auto collector = MakeCollector();
    Fill(*collector, "c", kind, MakeConfig(d, k), rows);
    auto cache = MarginalCache::Create(collector.get(), "c");
    ASSERT_TRUE(cache.ok());
    auto snapshot = (*cache)->Get();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    double total_tv = 0.0;
    double uniform_tv = 0.0;
    size_t count = 0;
    for (uint64_t beta : KWaySelectors(d, k)) {
      const MarginalTable truth = test::ExactMarginal(rows, d, beta);
      const MarginalTable* served = (*snapshot)->Find(beta);
      ASSERT_NE(served, nullptr);
      total_tv += truth.TotalVariationDistance(*served);
      uniform_tv +=
          truth.TotalVariationDistance(MarginalTable::Uniform(d, beta));
      ++count;
    }
    const double mean_tv = total_tv / static_cast<double>(count);

    auto predicted = PredictedError(kind, d, k, 1.0, n);
    if (predicted.ok()) {
      // The O~ bound with a generous constant allowance: consistency
      // post-processing never hurts (tested in tests/analysis), so the
      // served answers inherit each protocol's envelope.
      EXPECT_LE(mean_tv, 10.0 * *predicted);
    } else {
      // InpEM / InpES carry no worst-case guarantee; pin a loose
      // empirical envelope so regressions still surface.
      EXPECT_LE(mean_tv, 0.2);
    }
    // The served answers carry real signal: better than knowing nothing.
    EXPECT_LT(mean_tv, uniform_tv / static_cast<double>(count));
  }
}

// ---- epoch machinery -------------------------------------------------------

TEST(MarginalCacheEpochs, WatermarkInvalidatesHitsAndRefreshesCount) {
  const int d = 5;
  auto collector = MakeCollector();
  auto handle =
      Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
           SkewedRows(d, 2000, 5));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());

  auto first = (*cache)->Get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->epoch(), 1u);
  EXPECT_GT((*first)->watermark(), 0u);
  EXPECT_EQ((*first)->reports_absorbed(), 2000u);

  // No ingest: the same epoch serves again, lock-free.
  auto second = (*cache)->Get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->get(), first->get());

  // Ingest advances the watermark (enqueue alone moves the counter);
  // the next read must rebuild.
  ASSERT_TRUE(
      handle.IngestPopulation(SkewedRows(d, 500, 6), /*fast_path=*/false)
          .ok());
  EXPECT_GT((*cache)->LiveWatermark(), (*first)->watermark());
  auto third = (*cache)->Get();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->epoch(), 2u);
  EXPECT_GT((*third)->watermark(), (*first)->watermark());
  EXPECT_EQ((*third)->reports_absorbed(), 2500u);

  // Invalidate forces a rebuild even with an unchanged watermark.
  (*cache)->Invalidate();
  auto fourth = (*cache)->Get();
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ((*fourth)->epoch(), 3u);
  EXPECT_EQ((*fourth)->watermark(), (*third)->watermark());

  // Refresh forces one more.
  ASSERT_TRUE((*cache)->Refresh().ok());
  auto fifth = (*cache)->Get();
  ASSERT_TRUE(fifth.ok());
  EXPECT_EQ((*fifth)->epoch(), 4u);

  // The operational counters saw all of it (labeled per collection).
  obs::MetricsRegistry* metrics = collector->metrics();
  const auto name = [](const char* base) {
    return obs::WithLabels(base, {{"collection", "c"}});
  };
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_requests_total")), 5u);
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_cache_hits_total")), 2u);
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_cache_refreshes_total")),
            4u);
  EXPECT_EQ(metrics->CounterValue(name("ldpm_query_stale_served_total")), 0u);
  auto latency = metrics->HistogramValues(name("ldpm_query_refresh_latency_ns"));
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->count, 4u);
}

TEST(MarginalCacheEpochs, ServeStaleAnswersFromOldEpochDuringRebuild) {
  failpoint::DisarmAll();
  const int d = 5;
  auto collector = MakeCollector();
  auto handle =
      Fill(*collector, "c", ProtocolKind::kMargPS, MakeConfig(d, 2),
           SkewedRows(d, 2000, 7));
  MarginalCacheOptions options;
  options.serve_stale = true;
  auto cache = MarginalCache::Create(collector.get(), "c", options);
  ASSERT_TRUE(cache.ok());

  auto first = (*cache)->Get();
  ASSERT_TRUE(first.ok());
  const uint64_t first_epoch = (*first)->epoch();

  // Make the snapshot stale, then stall the rebuild: a reader arriving
  // while another thread rebuilds must be answered from the old epoch
  // instead of blocking.
  ASSERT_TRUE(
      handle.IngestPopulation(SkewedRows(d, 500, 8), /*fast_path=*/false)
          .ok());
  failpoint::Spec stall;
  stall.mode = failpoint::Mode::kDelay;
  stall.delay = std::chrono::milliseconds(400);
  stall.count = 1;
  failpoint::Arm("query.cache.rebuild", stall);

  std::atomic<bool> rebuilt{false};
  std::thread rebuilder([&] {
    auto fresh = (*cache)->Get();
    EXPECT_TRUE(fresh.ok());
    if (fresh.ok()) EXPECT_GT((*fresh)->epoch(), first_epoch);
    rebuilt.store(true);
  });
  // Give the rebuilder time to take the refresh lock and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto stale = (*cache)->Get();
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ((*stale)->epoch(), first_epoch);
  EXPECT_FALSE(rebuilt.load());
  rebuilder.join();

  EXPECT_GE(collector->metrics()->CounterValue(obs::WithLabels(
                "ldpm_query_stale_served_total", {{"collection", "c"}})),
            1u);
  failpoint::DisarmAll();
}

TEST(MarginalCacheEpochs, RebuildErrorPropagates) {
  failpoint::DisarmAll();
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(4, 2),
       SkewedRows(4, 500, 9));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  failpoint::ArmError("query.cache.rebuild");
  auto result = (*cache)->Get();
  EXPECT_FALSE(result.ok());
  failpoint::DisarmAll();
  // The failure was transient: the next read rebuilds and serves.
  auto recovered = (*cache)->Get();
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// ---- Create-time guards ----------------------------------------------------

TEST(MarginalCacheCreate, UnknownCollectionIsNotFound) {
  auto collector = MakeCollector();
  auto cache = MarginalCache::Create(collector.get(), "nope");
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kNotFound);
}

TEST(MarginalCacheCreate, NonBinaryCategoricalDomainRejected) {
  auto collector = MakeCollector();
  ProtocolConfig config = MakeConfig(2, 1);
  config.cardinalities = {3, 2};
  ASSERT_TRUE(
      collector->Register("cat", ProtocolKind::kInpES, config).ok());
  auto cache = MarginalCache::Create(collector.get(), "cat");
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(cache.status().message().find("non-binary"), std::string::npos);
}

TEST(MarginalCacheCreate, MaxOrderBeyondConfiguredKRejected) {
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(5, 2),
       SkewedRows(5, 100, 3));
  MarginalCacheOptions options;
  options.max_order = 3;
  auto cache = MarginalCache::Create(collector.get(), "c", options);
  EXPECT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
}

TEST(MarginalCacheCreate, MaxOrderOneServesOnlySingletons) {
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(5, 2),
       SkewedRows(5, 1000, 3));
  MarginalCacheOptions options;
  options.max_order = 1;
  auto cache = MarginalCache::Create(collector.get(), "c", options);
  ASSERT_TRUE(cache.ok());
  EXPECT_TRUE((*cache)->Marginal(0b00001).ok());
  auto pair = (*cache)->Marginal(0b00011);
  EXPECT_FALSE(pair.ok());
  EXPECT_EQ(pair.status().code(), StatusCode::kInvalidArgument);
}

// ---- the model over the cached 2-ways --------------------------------------

TEST(MarginalCacheModel, FitsChowLiuTreeFromSnapshotAndMemoizes) {
  const int d = 6;
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(d, 2),
       SkewedRows(d, 20000, 13));
  auto cache = MarginalCache::Create(collector.get(), "c");
  ASSERT_TRUE(cache.ok());
  auto snapshot = (*cache)->Get();
  ASSERT_TRUE(snapshot.ok());
  auto model = (*snapshot)->Model();
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ((*model)->dimensions(), d);
  EXPECT_EQ((*model)->tree().edges.size(), static_cast<size_t>(d - 1));
  EXPECT_GE((*model)->tree().total_mutual_information, 0.0);
  EXPECT_EQ((*model)->Cpts().size(), static_cast<size_t>(d));
  // Memoized: the same snapshot hands back the same fitted model.
  auto again = (*snapshot)->Model();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *model);
}

TEST(MarginalCacheModel, ModelNeedsTwoWayMarginals) {
  auto collector = MakeCollector();
  Fill(*collector, "c", ProtocolKind::kInpHT, MakeConfig(5, 2),
       SkewedRows(5, 1000, 3));
  MarginalCacheOptions options;
  options.max_order = 1;
  auto cache = MarginalCache::Create(collector.get(), "c", options);
  ASSERT_TRUE(cache.ok());
  auto snapshot = (*cache)->Get();
  ASSERT_TRUE(snapshot.ok());
  auto model = (*snapshot)->Model();
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ldpm
