// The multi-collection collector facade: one engine, many protocol streams.
//
// A production collector rarely serves a single mechanism/config: different
// products report under different attribute sets, epsilons, and protocols,
// and one process must host them all. The Collector is that top-level API —
// a registry of named *collections*, each `collection id -> ProtocolKind +
// ProtocolConfig + EngineOptions`, backed by its own ShardedAggregator but
// sharing collector-wide resource bounds:
//
//   * a worker-thread budget: the sum of registered collections' shard
//     counts may be capped, so registering streams cannot oversubscribe the
//     box (CollectorOptions::max_worker_threads);
//   * a backpressure budget: one IngestBudget bounds in-flight work items
//     across ALL collections, so a burst on any subset of streams shares
//     one memory bound (CollectorOptions::max_pending_batches_total);
//   * durability: the Collector is the only code that writes or reads
//     checkpoint files. CheckpointTo/RestoreFrom persist and restore every
//     collection atomically in one version-2 container file
//     (engine/checkpoint.h); single-collection v1 files still restore.
//     Periodic checkpoints are the caller's: call Checkpoint() on a timer
//     and watch LastCheckpointError().
//
// Ingest is either per-collection through a typed CollectionHandle
// (IngestBatch / IngestWireBatch / rows) or multiplexed:
// IngestFrames routes a stream of self-describing collection frames
// (protocols/wire.h) to the right aggregators, so one socket or file can
// interleave every registered stream straight into the zero-copy wire
// path. Queries are answered per collection from its merged shard state.
//
// ShardedAggregator remains public as the advanced per-collection layer
// (CollectionHandle::aggregator() exposes it); new code should start here.

#ifndef LDPM_ENGINE_COLLECTOR_H_
#define LDPM_ENGINE_COLLECTOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding.h"
#include "engine/sharded_aggregator.h"
#include "obs/metrics.h"

namespace ldpm {
namespace engine {

/// Collector-wide configuration.
struct CollectorOptions {
  /// Per-collection engine defaults; Register overrides may replace them.
  EngineOptions engine_defaults;
  /// Cap on the sum of shard worker threads across live collections;
  /// 0 = unbounded. Register fails with ResourceExhausted beyond it.
  int max_worker_threads = 0;
  /// Collector-wide bound on in-flight work items (batches) summed over
  /// all collections; 0 = unbounded. Enforced by a shared IngestBudget.
  size_t max_pending_batches_total = 0;
  /// Destination of Checkpoint() and the shutdown checkpoint: a version-2
  /// container holding every collection.
  std::string checkpoint_path;
  /// Write a final all-collection checkpoint in Drain() and (best-effort)
  /// the destructor. Requires a non-empty checkpoint_path.
  bool checkpoint_on_shutdown = false;
  /// Container checkpoint generations kept on disk: each write rotates
  /// checkpoint_path -> .1 -> .2 ... before atomically installing the new
  /// file, and RestoreFrom falls back newest-to-oldest past corrupt
  /// generations, quarantining them as *.corrupt
  /// (engine/checkpoint.h). 1 keeps only the newest file.
  int checkpoint_generations = 1;
  /// Metrics registry the collector and every collection engine publish
  /// into (must outlive the collector). Null makes the collector own a
  /// private registry, exposed via metrics() — so a StatsServer can serve
  /// it either way. Explicit Register overrides with their own non-null
  /// EngineOptions::metrics keep theirs.
  obs::MetricsRegistry* metrics = nullptr;
};

class Collector;

/// A value-typed reference to one registered collection. Handles stay
/// valid after Unregister (the backing engine lives until the last handle
/// drops); all operations are thread-safe and delegate to the collection's
/// ShardedAggregator. A default-constructed handle is invalid.
class CollectionHandle {
 public:
  CollectionHandle() = default;

  bool valid() const { return collection_ != nullptr; }
  const std::string& id() const;
  ProtocolKind kind() const;
  const ProtocolConfig& config() const;

  // Ingest — see the ShardedAggregator methods of the same names.
  Status IngestBatch(std::vector<Report> reports);
  Status IngestWireBatch(std::vector<uint8_t> frame);
  Status IngestPopulation(const std::vector<uint64_t>& rows,
                          bool fast_path = true);

  /// Flushes and estimates the marginal for selector beta from this
  /// collection's merged state.
  StatusOr<MarginalTable> Query(uint64_t beta);

  /// Categorical marginal over explicit attribute ids — InpES collections
  /// only (the protocol hosting non-binary domains).
  StatusOr<CategoricalMarginal> QueryCategorical(const std::vector<int>& attrs);

  Status Flush();
  StatusOr<uint64_t> ReportsAbsorbed();

  /// The advanced per-collection layer (snapshots, re-sharding, merged
  /// aggregator access). Valid for the handle's lifetime.
  ShardedAggregator& aggregator();

 private:
  friend class Collector;
  struct Collection;
  explicit CollectionHandle(std::shared_ptr<Collection> collection)
      : collection_(std::move(collection)) {}

  std::shared_ptr<Collection> collection_;
};

/// The multi-collection facade (see the file comment).
class Collector {
 public:
  static StatusOr<std::unique_ptr<Collector>> Create(
      const CollectorOptions& options = CollectorOptions());

  /// Drains every collection; with checkpoint_on_shutdown set, writes a
  /// best-effort final all-collection checkpoint first (use Drain() when
  /// the write's Status matters).
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // ---- Registry ----------------------------------------------------------

  /// Registers a new collection under `id` (non-empty, <= 65535 bytes,
  /// unique among live collections) running `kind` under `config` with the
  /// collector's engine defaults. Fails without side effects on a bad
  /// config or an exhausted worker-thread budget.
  StatusOr<CollectionHandle> Register(std::string id, ProtocolKind kind,
                                      const ProtocolConfig& config);

  /// Same, with explicit per-collection EngineOptions (shard count, queue
  /// bound, metrics, ...). The collector's shared
  /// backpressure budget is installed regardless, and the engine seed is
  /// still decorrelated per collection (a deterministic function of
  /// overrides.seed and the id), so same-config collections never share
  /// bitwise-identical perturbation randomness.
  StatusOr<CollectionHandle> Register(std::string id, ProtocolKind kind,
                                      const ProtocolConfig& config,
                                      const EngineOptions& overrides);

  /// Removes a collection and returns its worker threads to the budget.
  /// Outstanding handles keep the backing engine alive and usable; the
  /// collector just stops routing/checkpointing it.
  Status Unregister(std::string_view id);

  /// Looks up a live collection.
  StatusOr<CollectionHandle> Handle(std::string_view id) const;

  /// Ids of all live collections, ascending.
  std::vector<std::string> CollectionIds() const;

  size_t collection_count() const;

  /// Shard worker threads currently drawn from the budget.
  int worker_threads_in_use() const;

  /// The collector-wide backpressure budget, or null when unbounded
  /// (max_pending_batches_total == 0). External producers — the network
  /// ingest front-end above all — probe it with TryAcquire/AcquireFor to
  /// shed load or stay shutdown-responsive while the collector is
  /// saturated, instead of committing bytes that would block inside the
  /// engines' own (indefinitely blocking) slot acquisition.
  const std::shared_ptr<IngestBudget>& shared_budget() const {
    return budget_;
  }

  /// The registry all collector/engine metrics land in: the configured
  /// CollectorOptions::metrics, or the collector-owned private registry
  /// when none was configured. Never null; valid for the collector's
  /// lifetime. Wire a net::StatsServer to this to expose /stats.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Successful CheckpointTo / Checkpoint / Drain / shutdown writes: the
  /// value of ldpm_collector_checkpoint_writes_total.
  uint64_t checkpoints_written() const;

  /// Most recent unresolved checkpoint error: a failed write stays sticky
  /// until the next successful write clears it. OK when the durable state
  /// is current. A caller driving Checkpoint() from a timer retries by
  /// simply calling it again; surface this on the health endpoint.
  Status LastCheckpointError() const;

  // ---- Multiplexed ingest ------------------------------------------------

  /// What IngestFrames did with a (possibly partially consumed) stream.
  /// On error the counters make the partial-stream semantics explicit: the
  /// first bytes_consumed bytes are fully routed and stay ingested, and
  /// data + bytes_consumed is the exact resync point — the start of the
  /// frame the error names. A network front-end uses this to keep the
  /// unconsumed tail of its receive buffer, or to reject a connection with
  /// a byte-precise error.
  struct IngestFramesResult {
    /// Bytes of whole, successfully routed frames at the front of the
    /// stream (== the stream size when the call succeeded).
    size_t bytes_consumed = 0;
    /// Whole frames routed, including frames with an empty payload.
    uint64_t frames_routed = 0;
    /// Wire batches actually handed to an engine (empty-payload frames
    /// route without enqueueing work).
    uint64_t batches_enqueued = 0;
  };

  /// Routes a stream of collection frames (protocols/wire.h) to the named
  /// collections' wire-batch fast paths. Any framing violation or unknown
  /// collection id stops ingestion at that frame with an InvalidArgument
  /// naming the exact byte offset; frames before it stay ingested, and
  /// `result` (optional) reports exactly how much was consumed.
  /// (A payload mismatching its collection's protocol surfaces at the
  /// next Flush/Query, like any asynchronous absorb error.)
  Status IngestFrames(const uint8_t* data, size_t size,
                      IngestFramesResult* result = nullptr);
  Status IngestFrames(const std::vector<uint8_t>& stream,
                      IngestFramesResult* result = nullptr);

  // ---- Query -------------------------------------------------------------

  /// Flushes `collection` and estimates the marginal for selector beta
  /// from its merged state.
  StatusOr<MarginalTable> Query(std::string_view collection, uint64_t beta);

  /// Categorical marginal from an InpES collection (see
  /// CollectionHandle::QueryCategorical).
  StatusOr<CategoricalMarginal> QueryCategorical(std::string_view collection,
                                                 const std::vector<int>& attrs);

  /// Flushes every collection; first error wins, all are flushed.
  Status Flush();

  // ---- Durability --------------------------------------------------------

  /// Flushes every collection and atomically writes one version-2
  /// container holding all of them (ascending id order). Each collection's
  /// snapshot set is an exact cut of everything its handle ingested before
  /// this call.
  Status CheckpointTo(const std::string& path);

  /// CheckpointTo(options.checkpoint_path).
  Status Checkpoint();

  /// Restores collections from a checkpoint file. A version-2 container
  /// restores every collection it names into the registered collection of
  /// the same id (every named id must be registered with a matching
  /// protocol/config; registered collections absent from the file keep
  /// their state). A version-1 (single-collection) file restores into the
  /// sole registered collection, whatever its id. Collections are restored
  /// one at a time; each is atomic, and a failure part-way leaves earlier
  /// ones restored (the returned Status names the failing collection).
  Status RestoreFrom(const std::string& path);

  /// Flushes every collection, then writes the shutdown checkpoint when
  /// checkpoint_on_shutdown is set. The collector stays usable afterwards.
  Status Drain();

 private:
  explicit Collector(const CollectorOptions& options);

  /// Effective per-collection engine options: install the shared budget
  /// and the collector's registry.
  EngineOptions EffectiveOptions(const EngineOptions& base) const;

  StatusOr<CollectionHandle> RegisterInternal(std::string id,
                                              ProtocolKind kind,
                                              const ProtocolConfig& config,
                                              const EngineOptions& base_options);

  StatusOr<std::shared_ptr<CollectionHandle::Collection>> Find(
      std::string_view id) const;

  /// CheckpointTo minus the error bookkeeping (the public wrapper records
  /// the sticky error and the failure counter).
  Status CheckpointToInternal(const std::string& path);

  CollectorOptions options_;
  std::shared_ptr<IngestBudget> budget_;  // null when unbounded

  /// See metrics(): points at options_.metrics or owned_metrics_.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Gauge* collections_gauge_ = nullptr;
  obs::Counter* unknown_collection_total_ = nullptr;
  obs::Counter* ckpt_writes_total_ = nullptr;
  obs::Counter* ckpt_errors_total_ = nullptr;
  obs::Counter* ckpt_bytes_total_ = nullptr;
  obs::Counter* ckpt_quarantined_total_ = nullptr;
  obs::Histogram* ckpt_duration_ = nullptr;

  mutable core::Mutex mu_;  // guards collections_ and threads_in_use_
  std::map<std::string, std::shared_ptr<CollectionHandle::Collection>,
           std::less<>>
      collections_ LDPM_GUARDED_BY(mu_);
  int threads_in_use_ LDPM_GUARDED_BY(mu_) = 0;

  /// The sticky checkpoint outcome (see LastCheckpointError).
  mutable core::Mutex ckpt_mu_;
  Status ckpt_error_ LDPM_GUARDED_BY(ckpt_mu_);
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_COLLECTOR_H_
