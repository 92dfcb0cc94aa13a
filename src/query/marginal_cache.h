// The query-serving plane's cache: epoch-snapshotted, consistency-
// post-processed marginal tables served from an immutable snapshot.
//
// The write path (net::IngestServer -> engine::Collector) absorbs
// millions of reports; the read path a deployment needs is the opposite
// shape — millions of identical cheap reads over state that changes
// rarely. Today `Collector::Query` re-merges shard state per call and
// answers each marginal independently, so overlapping answers disagree
// (the artifact src/analysis/consistency.h exists to remove). The
// MarginalCache closes both gaps:
//
//   * Once per *epoch* it snapshots a collection: queries every marginal
//     selector up to `max_order` from the merged engine state, runs
//     MakeConsistent over the whole set (one shared low-order Fourier
//     fit, Barak-style), and freezes the result into an immutable
//     Snapshot. Every answer served from one snapshot agrees exactly
//     with every other on all attribute overlaps, by construction.
//   * Reads are cheap: the current snapshot hangs off one shared_ptr
//     behind a leaf mutex held only to copy or swap the pointer; a cache
//     hit is that copy, a hash lookup, and a copy of 2^k doubles. No
//     shard merge, and no lock held while the table is read.
//   * Epochs are keyed on an ingest *watermark* — the collection's
//     `ldpm_engine_batches_enqueued_total` counter. A snapshot built at
//     watermark W serves until the counter advances past W; the next
//     read then rebuilds (or, with serve_stale, keeps serving the old
//     epoch while one thread rebuilds). The watermark is captured
//     *before* the rebuild queries run, so a snapshot's watermark is
//     always a lower bound on the ingest it reflects — concurrent
//     ingest during a rebuild makes the fresh snapshot immediately
//     stale, never silently under-reported.
//
// Restores and resets do not advance the batch counter; operational
// paths that replace engine state out-of-band (Collector::RestoreFrom)
// must call Invalidate() to force the next read to rebuild.
//
// Reproducibility contract (verified bitwise in tests/query/): a cache
// answer at watermark W equals `Collector::Query` for every selector +
// `MakeConsistent` (equal weights) over the same selector set at W.
//
// Domains: the cache serves the binary-marginal surface
// (MarginalTable). InpES collections participate when their domain is
// all-binary (every cardinality 2); non-binary categorical domains are
// rejected at Create — their read path is Collector::QueryCategorical.
//
// Metrics (labeled {collection="<id>"}, in the collector's registry):
//   ldpm_query_requests_total        every cache read
//   ldpm_query_cache_hits_total      reads answered from the live snapshot
//   ldpm_query_cache_refreshes_total snapshot rebuilds
//   ldpm_query_stale_served_total    stale answers under serve_stale
//   ldpm_query_refresh_latency_ns    rebuild duration histogram

#ifndef LDPM_QUERY_MARGINAL_CACHE_H_
#define LDPM_QUERY_MARGINAL_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/tree_model.h"
#include "core/contingency_table.h"
#include "core/status.h"
#include "core/sync.h"
#include "engine/collector.h"
#include "obs/metrics.h"

namespace ldpm {
namespace query {

struct MarginalCacheOptions {
  /// Highest marginal order materialized per snapshot: every selector
  /// beta with 1 <= |beta| <= max_order is cached. 0 means the
  /// collection's configured k.
  int max_order = 0;
  /// When a read finds the snapshot stale and another thread is already
  /// rebuilding, serve the stale epoch (counted in
  /// ldpm_query_stale_served_total) instead of blocking behind the
  /// rebuild. The default blocks: every answer reflects the live
  /// watermark at the time it was served.
  bool serve_stale = false;
};

/// One immutable epoch of served state. Shared out to readers by
/// shared_ptr; a snapshot never mutates after publication (the lazily
/// fitted model is memoized under std::call_once).
class Snapshot {
 public:
  /// Conditional-probability floor for the lazily fitted Chow-Liu tree
  /// model (Model()).
  static constexpr double kModelSmoothing = 1e-6;

  /// Ingest watermark (batches-enqueued counter) captured before the
  /// rebuild's queries ran: a lower bound on the state served.
  uint64_t watermark() const { return watermark_; }
  /// Monotone rebuild sequence number, starting at 1.
  uint64_t epoch() const { return epoch_; }
  /// Reports absorbed by the collection when the snapshot was cut.
  uint64_t reports_absorbed() const { return reports_absorbed_; }
  int dimensions() const { return d_; }
  int max_order() const { return max_order_; }
  ProtocolKind kind() const { return kind_; }
  const std::string& collection() const { return collection_; }

  /// Every cached selector, ascending order then ascending beta.
  const std::vector<uint64_t>& selectors() const { return selectors_; }
  /// The consistent tables, aligned with selectors().
  const std::vector<MarginalTable>& marginals() const { return marginals_; }

  /// The cached table for `beta`, or null when |beta| exceeds max_order
  /// or beta selects attributes outside [0, d).
  const MarginalTable* Find(uint64_t beta) const;

  /// The Chow-Liu tree model fitted over this snapshot's 2-way
  /// marginals; fitted on first call, memoized (thread-safe). Requires
  /// max_order >= 2 and d >= 2.
  StatusOr<const TreeModel*> Model() const;

 private:
  friend class MarginalCache;
  Snapshot() = default;

  uint64_t watermark_ = 0;
  uint64_t epoch_ = 0;
  uint64_t reports_absorbed_ = 0;
  int d_ = 0;
  int max_order_ = 0;
  ProtocolKind kind_ = ProtocolKind::kInpRR;
  std::string collection_;
  std::vector<uint64_t> selectors_;
  std::vector<MarginalTable> marginals_;
  std::unordered_map<uint64_t, size_t> index_;  // beta -> marginals_ slot

  mutable std::once_flag model_once_;
  mutable std::optional<TreeModel> model_;
  mutable Status model_status_;
};

/// One answered read: the table plus the epoch it came from.
struct MarginalAnswer {
  MarginalTable table;
  uint64_t watermark = 0;
  uint64_t epoch = 0;
  /// True when the answer predates the live watermark (serve_stale only).
  bool stale = false;

  MarginalAnswer() : table(0, 0) {}
};

/// The per-collection cache (see the file comment). Thread-safe; reads
/// that hit the live snapshot take only the leaf snapshot_mu_, for a
/// shared_ptr copy.
class MarginalCache {
 public:
  /// Builds a cache over one registered collection. Fails NotFound for
  /// an unknown id and FailedPrecondition for a non-binary categorical
  /// (InpES) domain. No snapshot is cut yet — the first read pays the
  /// first rebuild.
  static StatusOr<std::unique_ptr<MarginalCache>> Create(
      engine::Collector* collector, const std::string& collection,
      const MarginalCacheOptions& options = MarginalCacheOptions());

  /// The current snapshot, rebuilding first when none exists or the
  /// ingest watermark advanced. Under serve_stale a read that loses the
  /// rebuild race returns the previous epoch instead of waiting.
  StatusOr<std::shared_ptr<const Snapshot>> Get();

  /// Get() + lookup + copy of the single table for `beta`.
  /// InvalidArgument when beta is outside the cached selector set.
  StatusOr<MarginalAnswer> Marginal(uint64_t beta);

  /// Forces a rebuild now, regardless of the watermark.
  Status Refresh();

  /// Drops the current snapshot so the next read rebuilds — for state
  /// changes the watermark cannot see (Collector::RestoreFrom).
  void Invalidate();

  /// The live batches-enqueued counter the staleness check reads.
  uint64_t LiveWatermark() const;

  int dimensions() const { return d_; }
  int max_order() const { return options_.max_order; }
  ProtocolKind kind() const { return handle_.kind(); }
  const std::string& collection() const { return collection_; }

 private:
  MarginalCache(engine::Collector* collector, engine::CollectionHandle handle,
                std::string collection, const MarginalCacheOptions& options);

  /// Cuts and publishes a fresh snapshot.
  Status RebuildLocked() LDPM_REQUIRES(refresh_mu_);

  /// The published snapshot (null before the first rebuild or after
  /// Invalidate), copied out under snapshot_mu_.
  std::shared_ptr<const Snapshot> Current() const LDPM_EXCLUDES(snapshot_mu_);
  /// Swaps `snap` in as the published snapshot; the old one is released
  /// after snapshot_mu_ is.
  void Publish(std::shared_ptr<const Snapshot> snap)
      LDPM_EXCLUDES(snapshot_mu_);

  engine::Collector* const collector_;
  engine::CollectionHandle handle_;
  const std::string collection_;
  MarginalCacheOptions options_;  // max_order resolved at Create
  int d_ = 0;
  std::string watermark_series_;
  std::vector<uint64_t> selectors_;

  core::Mutex refresh_mu_;
  // Leaf lock: guards only the pointer below, held for a copy or a swap.
  // (A plain mutex rather than std::atomic<std::shared_ptr>, whose
  // libstdc++ lock bit ThreadSanitizer does not model.)
  mutable core::Mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_ LDPM_GUARDED_BY(snapshot_mu_);
  uint64_t epoch_seq_ LDPM_GUARDED_BY(refresh_mu_) = 0;

  obs::Counter* requests_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* refreshes_ = nullptr;
  obs::Counter* stale_served_ = nullptr;
  obs::Histogram* refresh_latency_ = nullptr;
};

}  // namespace query
}  // namespace ldpm

#endif  // LDPM_QUERY_MARGINAL_CACHE_H_
