#include "engine/sharded_aggregator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace ldpm {
namespace engine {

namespace {

/// Hard cap on shard count; far above any sensible core count, it only
/// guards against accidental huge values spawning thousands of threads.
constexpr int kMaxShards = 1024;

/// Per-shard queue bound; producers block when a shard falls this far
/// behind (backpressure).
constexpr size_t kMaxPendingBatches = 64;

/// Series name for an engine metric, labeled with the collection id when
/// the engine runs under one (plus an optional shard label).
std::string MetricName(const char* base, const std::string& collection) {
  if (collection.empty()) return base;
  return obs::WithLabels(base, {{"collection", collection}});
}

std::string ShardMetricName(const char* base, const std::string& collection,
                            size_t shard) {
  const std::string shard_label = std::to_string(shard);
  if (collection.empty()) {
    return obs::WithLabels(base, {{"shard", shard_label}});
  }
  return obs::WithLabels(base,
                         {{"collection", collection}, {"shard", shard_label}});
}

}  // namespace

StatusOr<std::unique_ptr<ShardedAggregator>> ShardedAggregator::Create(
    ProtocolKind kind, const ProtocolConfig& config,
    const EngineOptions& options) {
  return Create([kind, config] { return CreateProtocol(kind, config); },
                options);
}

StatusOr<std::unique_ptr<ShardedAggregator>> ShardedAggregator::Create(
    const ProtocolFactory& factory, const EngineOptions& options) {
  if (!factory) {
    return Status::InvalidArgument("ShardedAggregator: null protocol factory");
  }
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "ShardedAggregator: num_shards must be in [1, " +
        std::to_string(kMaxShards) + "], got " +
        std::to_string(options.num_shards));
  }
  // Build every shard aggregator up front so a bad factory/config fails the
  // construction rather than the first ingest.
  std::unique_ptr<ShardedAggregator> engine(
      new ShardedAggregator(factory, options));
  Rng seeder(options.seed);
  for (int s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(kMaxPendingBatches);
    auto protocol = factory();
    if (!protocol.ok()) return protocol.status();
    {
      // No worker exists yet; the lock exists for the analysis (rng and the
      // protocol state are guarded by state_mu) and is uncontended.
      core::MutexLock state_lock(shard->state_mu);
      shard->protocol = *std::move(protocol);
      shard->rng = seeder.Fork();
    }
    engine->shards_.push_back(std::move(shard));
  }
  // Instruments must exist before any worker runs (workers time absorbs
  // and decrement queue-depth gauges from their first item).
  engine->InitMetrics();
  for (auto& shard : engine->shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([engine_ptr = engine.get(), s] {
      engine_ptr->WorkerLoop(*s);
    });
  }
  return engine;
}

ShardedAggregator::ShardedAggregator(ProtocolFactory factory,
                                     const EngineOptions& options)
    : factory_(std::move(factory)), options_(options) {}

void ShardedAggregator::InitMetrics() {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const std::string& id = options_.metrics_collection;
  reports_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_reports_absorbed_total", id),
      "Reports absorbed across all shards");
  batches_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_batches_enqueued_total", id),
      "Work items enqueued onto shard queues");
  report_bits_total_ = metrics_->GetCounter(
      MetricName("ldpm_engine_report_bits_total", id),
      "Measured communication absorbed, in bits (paper Table 2)");
  absorb_latency_ = metrics_->GetHistogram(
      MetricName("ldpm_engine_absorb_latency_ns", id), obs::LatencyBuckets(),
      "Shard-worker latency absorbing one work item");
  budget_wait_ = metrics_->GetHistogram(
      MetricName("ldpm_engine_budget_wait_ns", id), obs::LatencyBuckets(),
      "Producer wait for a shared ingest-budget slot");
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->queue_depth = metrics_->GetGauge(
        ShardMetricName("ldpm_engine_queue_depth", id, s),
        "Work items pending on this shard's queue");
    shards_[s]->queue_depth_hwm = metrics_->GetGauge(
        ShardMetricName("ldpm_engine_queue_depth_high_water", id, s),
        "Highest queue depth this shard has reached");
  }
  // A shared registry can refuse a name only on a kind collision — a
  // programmer error (two subsystems fighting over one series name), not
  // a recoverable state, so fail loudly at construction.
  LDPM_CHECK(reports_total_ && batches_total_ && report_bits_total_ &&
             absorb_latency_ && budget_wait_);
}

ShardedAggregator::~ShardedAggregator() {
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedAggregator::WorkerLoop(Shard& shard) {
  WorkItem item;
  while (shard.queue.Pop(item)) {
    // Let a control-plane reader parked at the gate take state_mu first.
    { core::MutexLock pass(shard.gate_mu); }
    {
      core::MutexLock state_lock(shard.state_mu);
      const uint64_t reports_before = shard.protocol->reports_absorbed();
      const double bits_before = shard.protocol->total_report_bits();
      // After the first error the shard keeps draining (so Flush terminates)
      // but stops mutating state; the sticky error surfaces at Flush.
      if (shard.error.ok()) {
        obs::ScopedTimer absorb_timer(absorb_latency_);
        if (!item.reports.empty()) {
          shard.error = shard.protocol->AbsorbBatch(item.reports.data(),
                                                    item.reports.size());
        }
        if (shard.error.ok() && !item.wire.empty()) {
          shard.error = shard.protocol->AbsorbWireBatch(item.wire.data(),
                                                        item.wire.size());
        }
        if (shard.error.ok() && !item.rows.empty()) {
          if (item.fast_path) {
            shard.error = shard.protocol->AbsorbPopulation(item.rows, shard.rng);
          } else {
            for (uint64_t row : item.rows) {
              Status status =
                  shard.protocol->Absorb(shard.protocol->Encode(row, shard.rng));
              if (!status.ok()) {
                shard.error = std::move(status);
                break;
              }
            }
          }
        }
      }
      reports_total_->Increment(shard.protocol->reports_absorbed() -
                                reports_before);
      const double bits_delta = shard.protocol->total_report_bits() - bits_before;
      if (bits_delta > 0.0) {
        report_bits_total_->Increment(
            static_cast<uint64_t>(std::llround(bits_delta)));
      }
    }
    // Drop the depth and the budget slot before the next Pop marks this
    // item done, so a caller whose Flush() has returned sees neither.
    shard.queue_depth->Add(-1);
    // Release the group-wide slot no matter how absorption went; an error
    // must not leak budget and wedge sibling collections.
    if (options_.shared_budget) options_.shared_budget->Release();
  }
}

Status ShardedAggregator::EnqueueWork(WorkItem item) {
  const size_t target =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  if (options_.shared_budget) {
    obs::ScopedTimer wait_timer(budget_wait_);
    options_.shared_budget->Acquire();
  }
  Shard& shard = *shards_[target];
  // Bump the depth gauge before Push so a worker's decrement can never
  // land first and swing the gauge negative.
  shard.queue_depth_hwm->UpdateMax(shard.queue_depth->Add(1));
  if (!shard.queue.Push(std::move(item))) {
    shard.queue_depth->Add(-1);
    if (options_.shared_budget) options_.shared_budget->Release();
    return Status::FailedPrecondition(
        "ShardedAggregator: engine is shutting down");
  }
  // Invalidate the merged cache after the push, never before: a Merged()
  // that recorded a pre-push bump would drain without the item, then keep
  // serving that state as current. Any Merged() that loads the epoch
  // after this line drains a queue that already holds the item.
  ingest_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // After the push and the epoch bump, never before: MarginalCache reads
  // this counter as its freshness watermark, and a watermark ahead of
  // either would let a rebuild record a batch its merge did not include.
  batches_total_->Increment();
  return Status::OK();
}

Status ShardedAggregator::IngestBatch(std::vector<Report> reports) {
  if (reports.empty()) return Status::OK();
  WorkItem item;
  item.reports = std::move(reports);
  return EnqueueWork(std::move(item));
}

Status ShardedAggregator::IngestWireBatch(std::vector<uint8_t> frame) {
  if (frame.empty()) return Status::OK();
  WorkItem item;
  item.wire = std::move(frame);
  return EnqueueWork(std::move(item));
}

Status ShardedAggregator::IngestRows(std::vector<uint64_t> rows,
                                     bool fast_path) {
  WorkItem item;
  item.rows = std::move(rows);
  item.fast_path = fast_path;
  return EnqueueWork(std::move(item));
}

Status ShardedAggregator::IngestPopulation(const std::vector<uint64_t>& rows,
                                           bool fast_path) {
  if (rows.empty()) return Status::OK();
  // Contiguous chunks, one per shard: keeps the fast path's aggregate
  // sampling exact per sub-population and the split deterministic.
  const size_t num_shards = shards_.size();
  const size_t chunk = (rows.size() + num_shards - 1) / num_shards;
  for (size_t begin = 0; begin < rows.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, rows.size());
    LDPM_RETURN_IF_ERROR(IngestRows(
        std::vector<uint64_t>(rows.begin() + begin, rows.begin() + end),
        fast_path));
  }
  return Status::OK();
}

Status ShardedAggregator::Flush() {
  for (auto& shard : shards_) shard->queue.WaitDrained();
  for (size_t s = 0; s < shards_.size(); ++s) {
    core::MutexLock gate(shards_[s]->gate_mu);
    core::MutexLock state_lock(shards_[s]->state_mu);
    if (!shards_[s]->error.ok()) {
      return Status(shards_[s]->error.code(),
                    "shard " + std::to_string(s) + ": " +
                        shards_[s]->error.message());
    }
  }
  return Status::OK();
}

StatusOr<const MarginalProtocol*> ShardedAggregator::Merged() {
  core::MutexLock merge_lock(merge_mu_);
  // Record the epoch, then drain: work that lands during the drain or the
  // merge is included in the shard states we read but not in the recorded
  // epoch, so the next query conservatively rebuilds.
  const uint64_t epoch = ingest_epoch_.load(std::memory_order_acquire);
  LDPM_RETURN_IF_ERROR(Flush());
  if (merged_ == nullptr || merged_epoch_ != epoch) {
    auto merged = factory_();
    if (!merged.ok()) return merged.status();
    for (auto& shard : shards_) {
      core::MutexLock gate(shard->gate_mu);
      core::MutexLock state_lock(shard->state_mu);
      LDPM_RETURN_IF_ERROR((*merged)->MergeFrom(*shard->protocol));
    }
    merged_ = *std::move(merged);
    merged_epoch_ = epoch;
  }
  return static_cast<const MarginalProtocol*>(merged_.get());
}

StatusOr<MarginalTable> ShardedAggregator::EstimateMarginal(uint64_t beta) {
  auto merged = Merged();
  if (!merged.ok()) return merged.status();
  return (*merged)->EstimateMarginal(beta);
}

StatusOr<uint64_t> ShardedAggregator::ReportsAbsorbed() {
  LDPM_RETURN_IF_ERROR(Flush());
  uint64_t total = 0;
  for (auto& shard : shards_) {
    core::MutexLock gate(shard->gate_mu);
    core::MutexLock state_lock(shard->state_mu);
    total += shard->protocol->reports_absorbed();
  }
  return total;
}

StatusOr<std::vector<AggregatorSnapshot>> ShardedAggregator::SnapshotShards() {
  LDPM_RETURN_IF_ERROR(Flush());
  std::vector<AggregatorSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  core::MutexLock cut_lock(state_cut_mu_);
  for (auto& shard : shards_) {
    core::MutexLock gate(shard->gate_mu);
    core::MutexLock state_lock(shard->state_mu);
    snapshots.push_back(shard->protocol->Snapshot());
  }
  return snapshots;
}

Status ShardedAggregator::RestoreShards(
    const std::vector<AggregatorSnapshot>& snapshots) {
  LDPM_RETURN_IF_ERROR(Flush());
  // Stage each snapshot in a scratch instance first so a malformed snapshot
  // list cannot leave the engine half-restored.
  std::vector<std::unique_ptr<MarginalProtocol>> staged;
  staged.reserve(snapshots.size());
  for (const AggregatorSnapshot& snapshot : snapshots) {
    auto scratch = factory_();
    if (!scratch.ok()) return scratch.status();
    LDPM_RETURN_IF_ERROR((*scratch)->Restore(snapshot));
    staged.push_back(*std::move(scratch));
  }
  {
    core::MutexLock cut_lock(state_cut_mu_);
    for (auto& shard : shards_) {
      core::MutexLock gate(shard->gate_mu);
      core::MutexLock state_lock(shard->state_mu);
      shard->protocol->Reset();
    }
    for (size_t i = 0; i < staged.size(); ++i) {
      Shard& target = *shards_[i % shards_.size()];
      core::MutexLock gate(target.gate_mu);
      core::MutexLock state_lock(target.state_mu);
      LDPM_RETURN_IF_ERROR(target.protocol->MergeFrom(*staged[i]));
    }
  }
  ingest_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status ShardedAggregator::Reset() {
  for (auto& shard : shards_) shard->queue.WaitDrained();
  {
    core::MutexLock cut_lock(state_cut_mu_);
    for (auto& shard : shards_) {
      core::MutexLock gate(shard->gate_mu);
      core::MutexLock state_lock(shard->state_mu);
      shard->protocol->Reset();
      shard->error = Status::OK();
    }
  }
  ingest_epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    core::MutexLock merge_lock(merge_mu_);
    merged_.reset();
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace ldpm
