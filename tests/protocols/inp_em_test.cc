#include "protocols/inp_em.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_aggregator.h"
#include "protocols/factory.h"
#include "protocols/wire.h"
#include "test_util.h"

namespace ldpm {
namespace {

ProtocolConfig Config(int d, int k, double eps) {
  ProtocolConfig c;
  c.d = d;
  c.k = k;
  c.epsilon = eps;
  return c;
}

TEST(InpEm, PerBitBudgetIsEpsilonOverD) {
  auto p = InpEmProtocol::Create(Config(8, 2, 1.6));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)->per_bit_mechanism().epsilon(), 0.2, 1e-9);
}

TEST(InpEm, CreateValidatesEmParameters) {
  ProtocolConfig c = Config(4, 2, 1.0);
  c.em_convergence_threshold = 0.0;
  EXPECT_FALSE(InpEmProtocol::Create(c).ok());
  c = Config(4, 2, 1.0);
  c.em_max_iterations = 0;
  EXPECT_FALSE(InpEmProtocol::Create(c).ok());
}

TEST(InpEm, ReportIsDBits) {
  auto p = InpEmProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Rng rng(161);
  const Report r = (*p)->Encode(13, rng);
  EXPECT_EQ(r.bits, 6.0);
  EXPECT_LT(r.value, 64u);
}

TEST(InpEm, AbsorbRejectsOutOfDomain) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  Report bad;
  bad.value = 16;
  EXPECT_EQ((*p)->Absorb(bad).code(), StatusCode::kInvalidArgument);
}

TEST(InpEm, DecodesStrongSignalAtLargeEpsilon) {
  // With generous budget and many users, EM should land near the truth.
  const int d = 4;
  auto p = InpEmProtocol::Create(Config(d, 2, 4.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 150000, 163);
  test::RunPerUser(**p, rows, 164);
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto decoded = (*p)->Decode(beta);
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->failed_to_leave_prior) << "beta=" << beta;
    const MarginalTable truth = test::ExactMarginal(rows, d, beta);
    EXPECT_LE(truth.TotalVariationDistance(decoded->estimate), 0.08)
        << "beta=" << beta;
  }
}

TEST(InpEm, FailsToLeavePriorAtTinyEpsilon) {
  // Table 3's failure mode: at very small eps the first EM step moves less
  // than Omega and the output is the uniform prior.
  const int d = 16;
  auto p = InpEmProtocol::Create(Config(d, 2, 0.1));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 30000, 165);
  test::RunPerUser(**p, rows, 166);
  int failures = 0;
  int total = 0;
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto decoded = (*p)->Decode(beta);
    ASSERT_TRUE(decoded.ok());
    failures += decoded->failed_to_leave_prior ? 1 : 0;
    ++total;
    if (total >= 30) break;  // a sample of pairs suffices
  }
  EXPECT_GT(failures, 0);
}

TEST(InpEm, FailedDecodeReturnsUniform) {
  const int d = 16;
  auto p = InpEmProtocol::Create(Config(d, 2, 0.05));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(d, 20000, 167);
  test::RunPerUser(**p, rows, 168);
  auto decoded = (*p)->Decode(0b11);
  ASSERT_TRUE(decoded.ok());
  if (decoded->failed_to_leave_prior) {
    // The estimate is the prior plus the sub-threshold first step, so each
    // cell sits within Omega (max per-cell change) of uniform.
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(decoded->estimate.at_compact(i), 0.25, 1e-5);
    }
  }
}

TEST(InpEm, EstimateIsAlwaysADistribution) {
  auto p = InpEmProtocol::Create(Config(6, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 50000, 169);
  test::RunPerUser(**p, rows, 170);
  for (uint64_t beta : KWaySelectors(6, 2)) {
    auto m = (*p)->EstimateMarginal(beta);
    ASSERT_TRUE(m.ok());
    EXPECT_NEAR(m->Total(), 1.0, 1e-6);
    for (uint64_t i = 0; i < m->size(); ++i) {
      EXPECT_GE(m->at_compact(i), -1e-12);
    }
  }
}

TEST(InpEm, DecodeAnyOrderNotJustK) {
  auto p = InpEmProtocol::Create(Config(6, 2, 2.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(6, 50000, 171);
  test::RunPerUser(**p, rows, 172);
  EXPECT_TRUE((*p)->Decode(0b1).ok());       // 1-way
  EXPECT_TRUE((*p)->Decode(0b111).ok());     // 3-way (> configured k)
}

TEST(InpEm, IterationsReported) {
  auto p = InpEmProtocol::Create(Config(4, 2, 2.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 50000, 173);
  test::RunPerUser(**p, rows, 174);
  auto decoded = (*p)->Decode(0b0011);
  ASSERT_TRUE(decoded.ok());
  EXPECT_GE(decoded->iterations, 1);
  EXPECT_LE(decoded->iterations, Config(4, 2, 2.0).em_max_iterations);
}

TEST(InpEm, DecodeBeforeAbsorbFails) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->Decode(0b11).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InpEm, ResetClearsReports) {
  auto p = InpEmProtocol::Create(Config(4, 2, 1.0));
  ASSERT_TRUE(p.ok());
  const auto rows = test::SkewedRows(4, 100, 175);
  test::RunPerUser(**p, rows, 176);
  (*p)->Reset();
  EXPECT_EQ((*p)->reports_absorbed(), 0u);
  EXPECT_FALSE((*p)->Decode(0b11).ok());
}

TEST(InpEm, LessAccurateThanInpHtAtModerateEpsilon) {
  // The paper's headline InpEM finding (Figure 6): the unbiased InpHT
  // estimator dominates the EM heuristic. Checked via the simulator-free
  // direct comparison at d = 8, eps = 1.1.
  const int d = 8;
  const auto rows = test::SkewedRows(d, 60000, 177);

  auto em = InpEmProtocol::Create(Config(d, 2, 1.1));
  ASSERT_TRUE(em.ok());
  test::RunPerUser(**em, rows, 178);

  // InpHT is exercised through its header to avoid a factory dependency in
  // this test binary.
  double em_total = 0.0;
  int count = 0;
  for (uint64_t beta : KWaySelectors(d, 2)) {
    auto est = (*em)->EstimateMarginal(beta);
    ASSERT_TRUE(est.ok());
    em_total += test::ExactMarginal(rows, d, beta).TotalVariationDistance(*est);
    ++count;
  }
  const double em_mean = em_total / count;
  // The paper reports EM errors several times larger; just require that EM
  // is not magically accurate (sanity anchor for the Figure 6 bench).
  EXPECT_GT(em_mean, 0.005);
}

// ---- Count state: snapshot layout, legacy restore, sparse path ----------

std::unique_ptr<InpEmProtocol> MustCreate(const ProtocolConfig& config) {
  auto p = InpEmProtocol::Create(config);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *std::move(p);
}

Report Response(uint64_t value, int d) {
  Report r;
  r.value = value;
  r.bits = static_cast<double>(d);
  return r;
}

/// Asserts both aggregators decode every beta to the same iteration count
/// and bitwise-identical cells.
void ExpectSameDecodes(const InpEmProtocol& a, const InpEmProtocol& b,
                       const std::vector<uint64_t>& betas) {
  for (uint64_t beta : betas) {
    auto da = a.Decode(beta);
    auto db = b.Decode(beta);
    ASSERT_TRUE(da.ok()) << da.status().ToString();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(da->iterations, db->iterations) << "beta=" << beta;
    EXPECT_EQ(da->estimate.values(), db->estimate.values())
        << "beta=" << beta;
  }
}

TEST(InpEm, SnapshotIsOneTaggedCountPerDistinctResponse) {
  auto p = MustCreate(Config(4, 2, 1.0));
  for (uint64_t v : {7, 3, 0, 3}) ASSERT_TRUE(p->Absorb(Response(v, 4)).ok());
  const AggregatorSnapshot snapshot = p->Snapshot();
  EXPECT_TRUE(snapshot.reals.empty());
  EXPECT_EQ(snapshot.counts,
            (std::vector<uint64_t>{InpEmProtocol::kCountsLayoutTag, 0, 1, 3, 2,
                                   7, 1}));
  EXPECT_EQ(snapshot.reports_absorbed, 4u);
}

TEST(InpEm, SnapshotSizeIsBoundedByTheDomainNotTheReportCount) {
  const int d = 4;
  auto p = MustCreate(Config(d, 2, 1.0));
  Rng rng(181);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(p->Absorb(Response(rng() & 15, d)).ok());
  }
  const AggregatorSnapshot snapshot = p->Snapshot();
  EXPECT_EQ(snapshot.reports_absorbed, 1000000u);
  EXPECT_LE(snapshot.counts.size(), 1u + 2u * (1u << d));

  // The sparse table is bounded by the distinct responses the same way.
  auto sparse = MustCreate(Config(20, 2, 1.0));
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(sparse->Absorb(Response((rng() % 100) << 10, 20)).ok());
  }
  EXPECT_LE(sparse->Snapshot().counts.size(), 1u + 2u * 100u);
}

// Builds that kept every report wrote counts = the responses in arrival
// order. Such snapshots (inside v1 and v2 checkpoint files) must restore
// to the marginals of a fresh absorb of the same reports.
TEST(InpEm, LegacyLogLayoutSnapshotRestoresToIdenticalMarginals) {
  for (int d : {6, 20}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const ProtocolConfig config = Config(d, 2, 2.0);
    auto fresh = MustCreate(config);
    const std::vector<Report> reports =
        test::EncodeReportStream(*fresh, 9000, 183);
    AggregatorSnapshot legacy = fresh->Snapshot();  // empty, for the header
    legacy.counts.clear();
    for (const Report& r : reports) {
      ASSERT_TRUE(fresh->Absorb(r).ok());
      legacy.counts.push_back(r.value);
    }
    legacy.reports_absorbed = fresh->reports_absorbed();
    legacy.total_report_bits = fresh->total_report_bits();

    auto restored = MustCreate(config);
    ASSERT_TRUE(restored->Restore(legacy).ok());
    EXPECT_EQ(restored->reports_absorbed(), reports.size());
    test::ExpectBitwiseEqualEstimates(*fresh, *restored);
    // The restore converts to counts: the next snapshot is the new layout.
    EXPECT_EQ(restored->Snapshot().counts, fresh->Snapshot().counts);

    AggregatorSnapshot short_log = legacy;
    short_log.counts.pop_back();
    EXPECT_EQ(restored->Restore(short_log).code(),
              StatusCode::kInvalidArgument);
    AggregatorSnapshot outside = legacy;
    outside.counts[5] = uint64_t{1} << d;
    EXPECT_EQ(restored->Restore(outside).code(),
              StatusCode::kInvalidArgument);
    test::ExpectBitwiseEqualEstimates(*fresh, *restored);
  }
}

TEST(InpEm, MalformedCountsLayoutIsRejectedAndLeavesStateIntact) {
  const int d = 4;
  auto source = MustCreate(Config(d, 2, 1.0));
  for (uint64_t v : {1, 1, 5, 9, 9, 9}) {
    ASSERT_TRUE(source->Absorb(Response(v, d)).ok());
  }
  const AggregatorSnapshot good = source->Snapshot();
  // [tag, 1,2, 5,1, 9,3]
  ASSERT_EQ(good.counts.size(), 7u);

  struct Case {
    const char* name;
    AggregatorSnapshot snapshot;
  };
  std::vector<Case> cases;
  auto with = [&](const char* name, auto&& mutate) {
    AggregatorSnapshot s = good;
    mutate(s);
    cases.push_back({name, std::move(s)});
  };
  with("even length", [](AggregatorSnapshot& s) { s.counts.push_back(12); });
  with("repeated response", [](AggregatorSnapshot& s) { s.counts[3] = 1; });
  with("decreasing responses", [](AggregatorSnapshot& s) {
    std::swap(s.counts[1], s.counts[3]);
    std::swap(s.counts[2], s.counts[4]);
  });
  with("zero count", [](AggregatorSnapshot& s) {
    s.counts[4] = 0;
    s.reports_absorbed -= 1;
  });
  with("response outside domain", [](AggregatorSnapshot& s) {
    s.counts[5] = uint64_t{1} << d;
  });
  with("count sum below reports_absorbed",
       [](AggregatorSnapshot& s) { s.reports_absorbed += 1; });
  with("count sum above reports_absorbed",
       [](AggregatorSnapshot& s) { s.reports_absorbed -= 1; });
  with("count that wraps the sum", [](AggregatorSnapshot& s) {
    s.counts[6] = ~uint64_t{0};
  });
  with("non-empty reals", [](AggregatorSnapshot& s) { s.reals = {0.0}; });

  auto target = MustCreate(Config(d, 2, 1.0));
  for (uint64_t v : {2, 3, 3}) ASSERT_TRUE(target->Absorb(Response(v, d)).ok());
  const AggregatorSnapshot before = target->Snapshot();
  for (const Case& c : cases) {
    EXPECT_EQ(target->Restore(c.snapshot).code(),
              StatusCode::kInvalidArgument)
        << c.name;
    const AggregatorSnapshot after = target->Snapshot();
    EXPECT_EQ(after.counts, before.counts) << c.name;
    EXPECT_EQ(after.reports_absorbed, before.reports_absorbed) << c.name;
  }
  ASSERT_TRUE(target->Restore(good).ok());
  test::ExpectBitwiseEqualEstimates(*source, *target);
}

// Above kDenseMaxDimensions the counts live in a sorted table fed by an
// unsorted buffer. A d = 20 aggregator and a dense d = 16 one that see the
// same responses through the same per-bit channel (eps / d = 0.125 for
// both) must decode every marginal over the low 16 attributes
// identically: per report, merged, folded, and restored.
TEST(InpEm, SparseCountsMatchTheDensePerReportReference) {
  const ProtocolConfig wide = Config(20, 2, 2.5);
  const ProtocolConfig narrow = Config(16, 2, 2.0);
  auto encoder = MustCreate(wide);
  ASSERT_EQ(encoder->per_bit_mechanism().keep_probability(),
            MustCreate(narrow)->per_bit_mechanism().keep_probability());
  // Well past kMinFoldRows, so the buffer folds several times and a
  // remainder stays unfolded at decode time.
  const std::vector<Report> reports =
      test::EncodeReportStream(*encoder, 30001, 185);
  const size_t half = reports.size() / 2;

  auto reference = MustCreate(narrow);
  for (const Report& r : reports) {
    ASSERT_TRUE(reference->Absorb(Response(r.value & 0xFFFF, 16)).ok());
  }

  auto per_report = MustCreate(wide);
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(per_report->Absorb(reports[i]).ok());
  }
  auto wire = MustCreate(wide);
  auto batch = SerializeReportBatch(
      ProtocolKind::kInpEM, wide,
      std::vector<Report>(reports.begin() + half, reports.end()));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(wire->AbsorbWireBatch(batch->data(), batch->size()).ok());
  ASSERT_TRUE(per_report->MergeFrom(*wire).ok());
  EXPECT_EQ(per_report->reports_absorbed(), reports.size());

  std::vector<uint64_t> betas = test::AllQueries(16, 2);
  ExpectSameDecodes(*per_report, *reference, betas);

  auto restored = MustCreate(wide);
  ASSERT_TRUE(restored->Restore(per_report->Snapshot()).ok());
  ExpectSameDecodes(*restored, *reference, betas);
  // Absorbing after a restore (into a folded table) keeps matching.
  for (const Report& r : test::EncodeReportStream(*encoder, 5000, 187)) {
    ASSERT_TRUE(restored->Absorb(r).ok());
    ASSERT_TRUE(reference->Absorb(Response(r.value & 0xFFFF, 16)).ok());
  }
  ExpectSameDecodes(*restored, *reference, betas);
}

TEST(InpEm, TwoToThreeShardReshardRestoreIsBitwise) {
  for (int d : {4, 20}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const ProtocolConfig config = Config(d, 2, 2.0);
    engine::EngineOptions two;
    two.num_shards = 2;
    auto source =
        engine::ShardedAggregator::Create(ProtocolKind::kInpEM, config, two);
    ASSERT_TRUE(source.ok());
    auto reference = MustCreate(config);
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::vector<Report> reports =
          test::EncodeReportStream(*reference, 2500, 190 + seed);
      for (const Report& r : reports) ASSERT_TRUE(reference->Absorb(r).ok());
      ASSERT_TRUE((*source)->IngestBatch(std::move(reports)).ok());
    }
    auto snapshots = (*source)->SnapshotShards();
    ASSERT_TRUE(snapshots.ok());
    ASSERT_EQ(snapshots->size(), 2u);

    engine::EngineOptions three;
    three.num_shards = 3;
    auto target =
        engine::ShardedAggregator::Create(ProtocolKind::kInpEM, config, three);
    ASSERT_TRUE(target.ok());
    ASSERT_TRUE((*target)->RestoreShards(*snapshots).ok());
    auto merged = (*target)->Merged();
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ((*merged)->reports_absorbed(), 10000u);
    test::ExpectBitwiseEqualEstimates(*reference, **merged);
  }
}

}  // namespace
}  // namespace ldpm
