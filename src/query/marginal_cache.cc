#include "query/marginal_cache.h"

#include <utility>

#include "analysis/consistency.h"
#include "core/failpoint.h"
#include "core/marginal.h"
#include "protocols/inp_es_adapter.h"

namespace ldpm {
namespace query {

namespace {

std::string QueryMetricName(const char* base, const std::string& collection) {
  return obs::WithLabels(base, {{"collection", collection}});
}

}  // namespace

// ---- Snapshot --------------------------------------------------------------

const MarginalTable* Snapshot::Find(uint64_t beta) const {
  auto it = index_.find(beta);
  return it == index_.end() ? nullptr : &marginals_[it->second];
}

StatusOr<const TreeModel*> Snapshot::Model() const {
  std::call_once(model_once_, [this] {
    if (d_ < 2 || max_order_ < 2) {
      model_status_ = Status::FailedPrecondition(
          "Snapshot: the tree model needs d >= 2 and cached 2-way "
          "marginals (max_order >= 2)");
      return;
    }
    auto provider = [this](uint64_t beta) -> StatusOr<MarginalTable> {
      const MarginalTable* table = Find(beta);
      if (table == nullptr) {
        return Status::Internal("Snapshot: 2-way marginal missing from cache");
      }
      return *table;
    };
    auto model = TreeModel::LearnAndFit(d_, provider, kModelSmoothing);
    if (!model.ok()) {
      model_status_ = model.status();
      return;
    }
    model_.emplace(*std::move(model));
  });
  if (!model_status_.ok()) return model_status_;
  return &*model_;
}

// ---- MarginalCache ---------------------------------------------------------

MarginalCache::MarginalCache(engine::Collector* collector,
                             engine::CollectionHandle handle,
                             std::string collection,
                             const MarginalCacheOptions& options)
    : collector_(collector),
      handle_(std::move(handle)),
      collection_(std::move(collection)),
      options_(options),
      d_(handle_.config().d),
      watermark_series_(obs::WithLabels("ldpm_engine_batches_enqueued_total",
                                       {{"collection", collection_}})),
      selectors_(FullKWaySelectors(d_, options_.max_order)) {
  obs::MetricsRegistry* metrics = collector_->metrics();
  requests_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_requests_total", collection_),
      "Marginal-cache reads");
  hits_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_cache_hits_total", collection_),
      "Reads answered from the live snapshot without a rebuild");
  refreshes_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_cache_refreshes_total", collection_),
      "Snapshot rebuilds (epoch advances)");
  stale_served_ = metrics->GetCounter(
      QueryMetricName("ldpm_query_stale_served_total", collection_),
      "Stale-epoch answers served while a rebuild ran (serve_stale)");
  refresh_latency_ = metrics->GetHistogram(
      QueryMetricName("ldpm_query_refresh_latency_ns", collection_),
      obs::LatencyBuckets(), "Snapshot rebuild duration in nanoseconds");
}

StatusOr<std::unique_ptr<MarginalCache>> MarginalCache::Create(
    engine::Collector* collector, const std::string& collection,
    const MarginalCacheOptions& options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("MarginalCache: collector must not be null");
  }
  auto handle = collector->Handle(collection);
  if (!handle.ok()) return handle.status();
  const ProtocolConfig& config = handle->config();
  if (handle->kind() == ProtocolKind::kInpES) {
    for (uint32_t r : EsCardinalities(config)) {
      if (r != 2) {
        return Status::FailedPrecondition(
            "MarginalCache: collection \"" + collection +
            "\" has a non-binary categorical domain; its read path is "
            "Collector::QueryCategorical");
      }
    }
  }
  MarginalCacheOptions resolved = options;
  if (resolved.max_order == 0) resolved.max_order = config.k;
  if (resolved.max_order < 1 || resolved.max_order > config.k) {
    return Status::InvalidArgument(
        "MarginalCache: max_order must be in [1, k] — the engine only "
        "estimates marginals up to the configured order k=" +
        std::to_string(config.k));
  }
  return std::unique_ptr<MarginalCache>(new MarginalCache(
      collector, *std::move(handle), collection, resolved));
}

uint64_t MarginalCache::LiveWatermark() const {
  return collector_->metrics()->CounterValue(watermark_series_);
}

StatusOr<std::shared_ptr<const Snapshot>> MarginalCache::Get() {
  requests_->Increment();
  auto snap = Current();
  if (snap != nullptr && snap->watermark() == LiveWatermark()) {
    hits_->Increment();
    return snap;
  }
  if (snap != nullptr && options_.serve_stale) {
    if (!refresh_mu_.TryLock()) {
      // Another thread is rebuilding; answer from the old epoch now.
      stale_served_->Increment();
      return snap;
    }
    // Explicit TryLock/Unlock (no early returns in between) so the
    // analysis sees a single acquire/release pair on both branches.
    Status rebuilt = Status::OK();
    auto current = Current();
    if (current == nullptr || current->watermark() != LiveWatermark()) {
      rebuilt = RebuildLocked();
    }
    refresh_mu_.Unlock();
    if (!rebuilt.ok()) return rebuilt;
    return Current();
  }
  core::MutexLock lock(refresh_mu_);
  auto current = Current();
  if (current != nullptr && current->watermark() == LiveWatermark()) {
    // A concurrent reader rebuilt while we waited for the lock.
    hits_->Increment();
    return current;
  }
  LDPM_RETURN_IF_ERROR(RebuildLocked());
  return Current();
}

StatusOr<MarginalAnswer> MarginalCache::Marginal(uint64_t beta) {
  auto snap = Get();
  if (!snap.ok()) return snap.status();
  const MarginalTable* table = (*snap)->Find(beta);
  if (table == nullptr) {
    return Status::InvalidArgument(
        "MarginalCache: selector outside the cached set (order must be in "
        "[1, " +
        std::to_string(options_.max_order) + "], attributes in [0, " +
        std::to_string(d_) + "))");
  }
  MarginalAnswer answer;
  answer.table = *table;
  answer.watermark = (*snap)->watermark();
  answer.epoch = (*snap)->epoch();
  answer.stale = (*snap)->watermark() != LiveWatermark();
  return answer;
}

Status MarginalCache::Refresh() {
  core::MutexLock lock(refresh_mu_);
  return RebuildLocked();
}

void MarginalCache::Invalidate() { Publish(nullptr); }

std::shared_ptr<const Snapshot> MarginalCache::Current() const {
  core::MutexLock lock(snapshot_mu_);
  return snapshot_;
}

void MarginalCache::Publish(std::shared_ptr<const Snapshot> snap) {
  {
    core::MutexLock lock(snapshot_mu_);
    snapshot_.swap(snap);
  }
  // `snap` now holds the previous snapshot; readers may still share it,
  // and if not it is freed here, outside the lock.
}

Status MarginalCache::RebuildLocked() {
  // Injection seam for rebuild stalls and failures (the serve_stale and
  // error-propagation tests drive through it).
  LDPM_FAILPOINT("query.cache.rebuild");
  obs::ScopedTimer timer(refresh_latency_);
  // Captured before the queries: concurrent ingest during the rebuild
  // leaves the fresh snapshot already stale (conservative), never
  // serving unseen data under a current watermark.
  const uint64_t watermark = LiveWatermark();
  std::vector<MarginalTable> raw;
  raw.reserve(selectors_.size());
  for (uint64_t beta : selectors_) {
    auto table = handle_.Query(beta);
    if (!table.ok()) return table.status();
    raw.push_back(*std::move(table));
  }
  // Equal weights: every input comes from the same merged engine state,
  // so per-marginal report counts carry no extra information — and the
  // equal-weight fit is exactly what the bitwise-reproducibility
  // contract (file comment) pins down.
  auto consistent = MakeConsistent(raw, d_);
  if (!consistent.ok()) return consistent.status();
  auto reports = handle_.ReportsAbsorbed();

  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->watermark_ = watermark;
  snap->epoch_ = ++epoch_seq_;
  snap->reports_absorbed_ = reports.ok() ? *reports : 0;
  snap->d_ = d_;
  snap->max_order_ = options_.max_order;
  snap->kind_ = handle_.kind();
  snap->collection_ = collection_;
  snap->selectors_ = selectors_;
  snap->marginals_ = *std::move(consistent);
  snap->index_.reserve(snap->selectors_.size());
  for (size_t i = 0; i < snap->selectors_.size(); ++i) {
    snap->index_.emplace(snap->selectors_[i], i);
  }
  Publish(std::move(snap));
  refreshes_->Increment();
  return Status::OK();
}

}  // namespace query
}  // namespace ldpm
