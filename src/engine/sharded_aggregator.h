// Sharded parallel aggregation engine.
//
// The paper describes a single logical collector of user reports; at
// production scale the collector must absorb reports from millions of users
// at hardware speed. Every protocol's aggregator state is trivially
// mergeable — additive count/coefficient accumulators, or InpOLH's
// append-only report log (MarginalProtocol::MergeFrom) — so ingest
// parallelizes by sharding:
//
//   * the engine owns S independent MarginalProtocol instances, one per
//     shard, each with a deterministically derived Rng stream;
//   * producers enqueue batches of reports (or raw rows to encode) onto
//     per-shard bounded queues; one worker thread per shard drains its
//     queue into its shard aggregator with no cross-shard synchronization;
//   * queries merge the shard states on demand into a cached combined
//     aggregator and answer from it, so an idle engine pays the merge once
//     no matter how many marginals are asked.
//
// Determinism: feeding a fixed report stream through any shard count yields
// bitwise-identical estimates to a single aggregator, because per-report
// state increments are integer-valued (exactly representable in doubles)
// and addition over them is associative. Row ingest uses the per-shard Rng
// streams and is distribution-equivalent across shard counts.

#ifndef LDPM_ENGINE_SHARDED_AGGREGATOR_H_
#define LDPM_ENGINE_SHARDED_AGGREGATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "engine/ingest_budget.h"
#include "engine/shard_queue.h"
#include "obs/metrics.h"
#include "protocols/factory.h"

namespace ldpm {
namespace engine {

/// Engine-level configuration.
struct EngineOptions {
  /// Number of shards (and worker threads). 1 reproduces the single-
  /// aggregator deployment behind the same interface.
  int num_shards = 1;
  /// Base seed for the per-shard Rng streams (row ingest / fast path).
  uint64_t seed = 0x5EED;
  /// Optional engine-wide backpressure budget shared with other engines
  /// (the Collector gives every collection the same one). When set, each
  /// ingest call acquires a slot before enqueueing — blocking while the
  /// whole group's in-flight work is at the budget's limit — and the shard
  /// worker releases it after absorbing the item.
  std::shared_ptr<IngestBudget> shared_budget;
  /// Where this engine publishes its operational metrics (throughput
  /// counters, queue-depth gauges, absorb/budget-wait latency histograms —
  /// docs/observability.md catalogs them). Null gives the
  /// engine a private registry, so instrumentation is always on (the
  /// counters are the engine's only throughput accounting) but invisible
  /// until a registry is shared. The registry must outlive the engine.
  /// Two engines sharing a registry AND a metrics_collection label share
  /// series — give each engine a distinct label (the Collector does).
  obs::MetricsRegistry* metrics = nullptr;
  /// Value of the {collection="..."} label on every metric this engine
  /// emits; empty emits unlabeled series (single-engine deployments).
  std::string metrics_collection;
};

/// Builds one aggregator instance; called once per shard plus once for the
/// merged query-side instance, so it must be repeatable. Use this overload
/// for protocols outside the factory enum (oracle-backed paths, custom
/// parameterizations).
using ProtocolFactory =
    std::function<StatusOr<std::unique_ptr<MarginalProtocol>>()>;

/// The multi-core collector: S shard aggregators fed by bounded queues,
/// merged on demand for queries, snapshot/restore-able for re-sharding.
/// Pure compute: it writes no files — engine::Collector owns durability
/// (see the file comment and docs/architecture.md for the dataflow).
class ShardedAggregator {
 public:
  /// Creates an engine whose shards run `kind` under `config`.
  static StatusOr<std::unique_ptr<ShardedAggregator>> Create(
      ProtocolKind kind, const ProtocolConfig& config,
      const EngineOptions& options = EngineOptions());

  /// Creates an engine from an arbitrary protocol factory.
  static StatusOr<std::unique_ptr<ShardedAggregator>> Create(
      const ProtocolFactory& factory,
      const EngineOptions& options = EngineOptions());

  /// Drains and joins all workers.
  ~ShardedAggregator();

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Number of shards (== worker threads) this engine runs.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// The configuration every shard protocol was created with (immutable
  /// after construction, so the returned reference outlives the lock).
  const ProtocolConfig& config() const {
    core::MutexLock lock(shards_[0]->state_mu);
    return shards_[0]->protocol->config();
  }

  // ---- Ingest (thread-safe) ----------------------------------------------

  /// Enqueues a batch of pre-encoded reports onto the next shard
  /// (round-robin). Blocks when that shard's queue is full. The worker
  /// absorbs the batch through the protocol's AbsorbBatch.
  Status IngestBatch(std::vector<Report> reports);

  /// Enqueues a wire batch frame (protocols/wire.h: u32-length-prefixed
  /// SerializeReport records) onto the next shard. The worker parses and
  /// absorbs the records in place via AbsorbWireBatch — the zero-copy path
  /// from network bytes to protocol state.
  Status IngestWireBatch(std::vector<uint8_t> frame);

  /// Splits a population of raw user rows across all shards in contiguous
  /// chunks, one work item per chunk; each receiving worker encodes its
  /// chunk with the shard's own Rng stream and absorbs the reports. With
  /// `fast_path` the worker uses the protocol's distribution-exact
  /// AbsorbPopulation instead. Distribution-equivalent to a single
  /// aggregator's AbsorbPopulation.
  Status IngestPopulation(const std::vector<uint64_t>& rows,
                          bool fast_path = true);

  /// Barrier: blocks until every item enqueued before the call has been
  /// absorbed (work enqueued meanwhile is not waited for), then reports
  /// the first worker error, if any.
  Status Flush();

  // ---- Query -------------------------------------------------------------

  /// Flushes, merges shard state (cached until the next ingest), and
  /// estimates the marginal for selector beta.
  StatusOr<MarginalTable> EstimateMarginal(uint64_t beta);

  /// Flushes and exposes the merged aggregator (owned by the engine; valid
  /// until the next ingest/Reset/Restore).
  StatusOr<const MarginalProtocol*> Merged();

  // ---- Introspection -----------------------------------------------------

  /// Total reports absorbed by all shards (flushes first).
  StatusOr<uint64_t> ReportsAbsorbed();

  // ---- State management --------------------------------------------------

  /// Flushes and captures one snapshot per shard. Restoring the set into an
  /// engine with ANY shard count (see RestoreShards) reproduces the merged
  /// state exactly — the crash-free re-sharding path.
  StatusOr<std::vector<AggregatorSnapshot>> SnapshotShards();

  /// Replaces all shard state with the given snapshots, distributing them
  /// round-robin over this engine's shards (snapshot count need not match
  /// the shard count).
  Status RestoreShards(const std::vector<AggregatorSnapshot>& snapshots);

  /// Flushes and clears all shard state. The registry counters stay
  /// monotonic (the Prometheus contract); only the shard protocols reset.
  Status Reset();

  /// The registry this engine's metrics live in (the options' registry,
  /// or the engine-private one when none was given). Valid for the
  /// engine's lifetime; scrape it or hand it to a net::StatsServer.
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Shard {
    /// Taken by control-plane readers before state_mu, and passed through
    /// by the worker before each item: the worker re-locks state_mu right
    /// after releasing it, so without the gate an unfair mutex could keep
    /// a reader waiting for as long as the queue stays busy. With it, a
    /// reader waits for at most the item in progress.
    core::Mutex gate_mu;
    /// Serializes the worker's state mutation against control-plane reads
    /// (merge, ReportsAbsorbed, snapshot); held per work item, so
    /// uncontended in steady state.
    core::Mutex state_mu;
    /// The pointer itself is set once in Create (before the worker starts);
    /// the protocol state behind it mutates only under state_mu.
    std::unique_ptr<MarginalProtocol> protocol LDPM_PT_GUARDED_BY(state_mu);
    Rng rng LDPM_GUARDED_BY(state_mu){0};
    ShardQueue queue;
    std::thread worker;
    /// First absorb/encode error, sticky until Reset.
    Status error LDPM_GUARDED_BY(state_mu);
    /// Live work items on this shard's queue (producer +1, worker -1
    /// after absorb) and the high-water mark it has reached.
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_depth_hwm = nullptr;

    explicit Shard(size_t max_pending) : queue(max_pending) {}
  };

  ShardedAggregator(ProtocolFactory factory, const EngineOptions& options);

  /// Creates/caches this engine's metric instruments in metrics_ (labeled
  /// with options.metrics_collection). Called once from Create.
  void InitMetrics();

  void WorkerLoop(Shard& shard);
  /// Enqueues one chunk of raw rows (IngestPopulation's per-shard step).
  Status IngestRows(std::vector<uint64_t> rows, bool fast_path);
  /// The common enqueue path: budget acquire (timed), depth gauges, queue
  /// push, merged-cache epoch bump, batch counter. Takes no lock but the
  /// shared budget's and the shard queue's.
  Status EnqueueWork(WorkItem item);

  ProtocolFactory factory_;
  EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Metrics destination (never null after Create) and, when the options
  /// brought no registry, the engine-private one backing it. These
  /// counters are the engine's only throughput accounting; callers read
  /// them through the registry (CounterValue), never a parallel tally.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* reports_total_ = nullptr;        // absorbed, all shards
  obs::Counter* batches_total_ = nullptr;        // work items enqueued
  obs::Counter* report_bits_total_ = nullptr;    // paper Table-2 bits
  obs::Histogram* absorb_latency_ = nullptr;     // per work item, ns
  obs::Histogram* budget_wait_ = nullptr;        // shared-budget waits, ns

  std::atomic<uint64_t> next_shard_{0};

  /// Monotonic count of ingest/restore/reset events. The merged cache is
  /// valid only for the epoch it was built at; comparing epochs (instead of
  /// a clearable flag) cannot lose an invalidation that lands mid-merge.
  std::atomic<uint64_t> ingest_epoch_{0};
  core::Mutex merge_mu_;
  std::unique_ptr<MarginalProtocol> merged_ LDPM_GUARDED_BY(merge_mu_);
  uint64_t merged_epoch_ LDPM_GUARDED_BY(merge_mu_) = ~uint64_t{0};

  /// Makes cross-shard state transitions atomic against snapshot capture:
  /// held across the whole shard loop by SnapshotShards and by
  /// Reset/RestoreShards, so a Collector::CheckpointTo racing a reset or
  /// restore sees all shards before or all shards after, never a mix
  /// (per-shard state_mu alone orders only within one shard). Always
  /// acquired before any state_mu, never the other way around
  /// (docs/operations.md, "Lock ordering").
  core::Mutex state_cut_mu_;
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_SHARDED_AGGREGATOR_H_
