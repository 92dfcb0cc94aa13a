#include "workloads.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/consistency.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "http_get.h"
#include "net/frame_client.h"
#include "net/ingest_server.h"
#include "net/query_server.h"
#include "net/stats_server.h"
#include "obs/metrics.h"
#include "open_loop.h"
#include "pool.h"
#include "protocols/accuracy.h"
#include "protocols/wire.h"
#include "query/marginal_cache.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace engine = ldpm::engine;
namespace net = ldpm::net;
namespace obs = ldpm::obs;
using ldpm::MarginalTable;
using ldpm::Status;
using ldpm::StatusOr;

constexpr int kShards = 2;
constexpr int kEncodeThreads = 4;
constexpr int kHttpTimeoutMs = 10000;
/// Accuracy gate: the mean TV of a collection's served k-way marginals must
/// stay within this multiple of PredictedError (protocols/accuracy.h, the
/// O~ bound with its constant set to 1).
constexpr double kTvMultiple = 3.0;
/// InpEM has no closed-form bound (PredictedError is Unimplemented), so its
/// served k-way marginals are held to this absolute mean TV instead.
constexpr double kUnboundedTvCap = 0.2;

// serve_mixed traffic.
constexpr double kQueryRate = 500.0;   // GETs per second, Poisson
constexpr int kQueryWorkers = 2;       // concurrent query connections
constexpr uint64_t kModelEvery = 32;   // every 32nd GET is /v1/model
constexpr double kUploadRate = 80.0;   // device uploads per second, Poisson
constexpr size_t kDeviceReports = 16;  // reports per device upload
constexpr size_t kServeBaseReports = 1 << 20;
constexpr int kServeSetups = 9;

/// ingest_mux checkpoints this far into a round (see the checkpointer).
constexpr int64_t kCheckpointOffsetNs = 20'000'000;

double Ms(double ns) { return ns * 1e-6; }
double Us(double ns) { return ns * 1e-3; }

ldpm::ProtocolConfig Config(int d) {
  ldpm::ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;
  return config;
}

/// Closed-loop upload connections of the ingest workloads.
constexpr int kClients = 2;

struct IngestWorkload {
  PoolSpec pool;
  /// Times each client sends its share of the uploads per round.
  int replays = 1;
  bool checkpoint_ticker = false;
};

IngestWorkload MuxWorkload() {
  IngestWorkload w;
  w.pool.collections = {
      {"taxi_ht", ldpm::ProtocolKind::kInpHT, Config(8), RowSource::kTaxi,
       0.4},
      {"ml_ps", ldpm::ProtocolKind::kMargPS, Config(8), RowSource::kMovielens,
       0.5},
      {"ml_em", ldpm::ProtocolKind::kInpEM, Config(4), RowSource::kMovielens,
       0.1},
  };
  w.pool.uploads = 8;
  w.pool.reports_per_upload = 600000;
  w.pool.reports_per_block = 256;
  w.pool.max_blocks_per_frame = 8;
  w.replays = 2;
  w.checkpoint_ticker = true;
  return w;
}

IngestWorkload BitmapWorkload() {
  IngestWorkload w;
  w.pool.collections = {{"ml_rr", ldpm::ProtocolKind::kInpRR, Config(12),
                         RowSource::kMovielens, 1.0}};
  w.pool.uploads = 4;
  w.pool.reports_per_upload = 16384;
  w.pool.reports_per_block = 64;
  w.pool.max_blocks_per_frame = 8;
  w.replays = 3;
  return w;
}

/// One taxi collection; each upload is `blocks` frames of `block` reports.
PoolSpec ServeSpec(size_t uploads, size_t blocks, size_t block,
                   uint64_t population) {
  PoolSpec spec;
  spec.collections = {{"taxi", ldpm::ProtocolKind::kInpHT, Config(8),
                       RowSource::kTaxi, 1.0}};
  spec.uploads = uploads;
  spec.reports_per_upload = blocks * block;
  spec.reports_per_block = block;
  spec.population = population;
  return spec;
}

// ---- the system under test --------------------------------------------------

engine::CollectorOptions CollectorOpts() {
  engine::CollectorOptions options;
  options.engine_defaults.num_shards = kShards;
  options.max_pending_batches_total = 256;
  return options;
}

/// Collector + ingest, query and /metrics servers over loopback.
struct Stack {
  std::unique_ptr<engine::Collector> collector;
  std::unique_ptr<net::IngestServer> ingest;
  std::unique_ptr<net::QueryServer> query;
  std::unique_ptr<net::StatsServer> stats;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (ingest != nullptr) (void)ingest->Stop();
    if (query != nullptr) query->Stop();
    if (stats != nullptr) stats->Stop();
  }
};

StatusOr<std::unique_ptr<engine::Collector>> NewCollector(
    const PoolSpec& spec, const std::string* restore_path,
    double* restore_ns = nullptr) {
  std::unique_ptr<engine::Collector> collector;
  {
    Span span(Layer::kEngine, "engine.create");
    auto created = engine::Collector::Create(CollectorOpts());
    if (!created.ok()) return created.status();
    collector = *std::move(created);
  }
  for (const CollectionSpec& c : spec.collections) {
    Span span(Layer::kEngine, "engine.register");
    auto handle = collector->Register(c.id, c.kind, c.config);
    if (!handle.ok()) return handle.status();
  }
  if (restore_path != nullptr) {
    Span span(Layer::kEngine, "engine.restore");
    const int64_t t0 = NowNs();
    LDPM_RETURN_IF_ERROR(collector->RestoreFrom(*restore_path));
    if (restore_ns != nullptr) *restore_ns = static_cast<double>(NowNs() - t0);
  }
  return collector;
}

StatusOr<std::unique_ptr<Stack>> StartStack(const PoolSpec& spec,
                                            const std::string* restore_path,
                                            bool first_snapshot,
                                            double* restore_ns = nullptr) {
  auto stack = std::make_unique<Stack>();
  auto collector = NewCollector(spec, restore_path, restore_ns);
  if (!collector.ok()) return collector.status();
  stack->collector = *std::move(collector);
  {
    Span span(Layer::kNet, "net.ingest_start");
    auto server = net::IngestServer::Start(stack->collector.get());
    if (!server.ok()) return server.status();
    stack->ingest = *std::move(server);
  }
  {
    Span span(Layer::kNet, "net.query_start");
    auto server = net::QueryServer::Start(stack->collector.get());
    if (!server.ok()) return server.status();
    stack->query = *std::move(server);
  }
  {
    Span span(Layer::kObs, "obs.stats_start");
    auto server = net::StatsServer::Start(stack->collector->metrics());
    if (!server.ok()) return server.status();
    stack->stats = *std::move(server);
  }
  if (first_snapshot) {
    for (const CollectionSpec& c : spec.collections) {
      Span span(Layer::kQuery, "query.first_snapshot");
      auto cache = stack->query->CacheFor(c.id);
      if (!cache.ok()) return cache.status();
      LDPM_RETURN_IF_ERROR((*cache)->Refresh());
    }
  }
  return stack;
}

// ---- reference answers ------------------------------------------------------

/// A direct Collector::IngestFrames pass over the same uploads, no sockets:
/// the state the networked run must reproduce, and the answers it must
/// serve (Query every cached selector, then MakeConsistent).
struct Reference {
  std::unique_ptr<engine::Collector> collector;
  std::vector<std::vector<uint64_t>> selectors;  // per collection
  std::vector<std::vector<MarginalTable>> raw;
  std::vector<std::vector<MarginalTable>> consistent;
  std::vector<uint64_t> reports;  // absorbed, per collection
  double ingest_ns = 0.0;
  double flush_ns = 0.0;
};

StatusOr<Reference> DirectPass(const PoolSpec& spec,
                               const std::vector<const Upload*>& sends,
                               const std::string* restore_path,
                               bool answers) {
  Reference ref;
  auto collector = NewCollector(spec, restore_path);
  if (!collector.ok()) return collector.status();
  ref.collector = *std::move(collector);
  const int64_t t0 = NowNs();
  for (const Upload* u : sends) {
    Span span(Layer::kEngine, "engine.ingest_frames");
    LDPM_RETURN_IF_ERROR(ref.collector->IngestFrames(u->bytes));
  }
  const int64_t t1 = NowNs();
  {
    Span span(Layer::kEngine, "engine.flush");
    LDPM_RETURN_IF_ERROR(ref.collector->Flush());
  }
  ref.ingest_ns = static_cast<double>(t1 - t0);
  ref.flush_ns = static_cast<double>(NowNs() - t1);
  if (!answers) return ref;
  for (const CollectionSpec& c : spec.collections) {
    auto handle = ref.collector->Handle(c.id);
    if (!handle.ok()) return handle.status();
    auto absorbed = handle->ReportsAbsorbed();
    if (!absorbed.ok()) return absorbed.status();
    ref.reports.push_back(*absorbed);
    ref.selectors.push_back(ldpm::FullKWaySelectors(c.config.d, c.config.k));
    std::vector<MarginalTable> raw;
    for (uint64_t beta : ref.selectors.back()) {
      Span span(Layer::kEngine, "engine.query");
      auto table = ref.collector->Query(c.id, beta);
      if (!table.ok()) return table.status();
      raw.push_back(*std::move(table));
    }
    StatusOr<std::vector<MarginalTable>> consistent =
        Status::Internal("unset");
    {
      Span span(Layer::kAnalysis, "analysis.consistency");
      consistent = ldpm::MakeConsistent(raw, c.config.d);
    }
    if (!consistent.ok()) return consistent.status();
    ref.raw.push_back(std::move(raw));
    ref.consistent.push_back(*std::move(consistent));
  }
  return ref;
}

// ---- HTTP answers -----------------------------------------------------------

std::string MarginalPath(const std::string& id, uint64_t beta) {
  std::string attrs;
  for (int i = 0; i < 64; ++i) {
    if ((beta >> i) & 1) {
      if (!attrs.empty()) attrs += ",";
      attrs += std::to_string(i);
    }
  }
  return "/v1/marginal?collection=" + id + "&attrs=" + attrs;
}

bool ParseCells(const std::string& body, std::vector<double>* cells) {
  const size_t at = body.find("\"cells\":[");
  if (at == std::string::npos) return false;
  cells->clear();
  const char* p = body.c_str() + at + 9;
  while (*p != ']') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) return false;
    cells->push_back(v);
    p = end;
    if (*p == ',') ++p;
  }
  return true;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

bool SameTable(const MarginalTable& a, const MarginalTable& b) {
  return SameBits(a.values(), b.values());
}

/// Timed samples a run accumulates, with operation accounting.
struct Samples {
  std::vector<double> setup_cpu_ns;  ///< setup_s: process CPU time
  std::vector<double> setup_wall_ns;
  Series upload_ns;
  Series query_ns;
  std::vector<double> query_traced_ns;
  std::vector<double> query_untraced_ns;
  Series fresh_ns;
  std::vector<double> fresh_read_ns;
  std::vector<double> late_ns;
  std::vector<double> http_connect_ns;
  std::vector<double> http_ttfb_ns;
  std::vector<double> checkpoint_ns;
  std::vector<double> checkpoint_bytes;
  std::vector<double> restore_ns;
  std::vector<double> scrape_ns;
  std::vector<double> scrape_bytes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Merge(const Samples& o) {
    auto add = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    add(setup_cpu_ns, o.setup_cpu_ns);
    add(setup_wall_ns, o.setup_wall_ns);
    upload_ns.Merge(o.upload_ns);
    query_ns.Merge(o.query_ns);
    add(query_traced_ns, o.query_traced_ns);
    add(query_untraced_ns, o.query_untraced_ns);
    fresh_ns.Merge(o.fresh_ns);
    add(fresh_read_ns, o.fresh_read_ns);
    add(late_ns, o.late_ns);
    add(http_connect_ns, o.http_connect_ns);
    add(http_ttfb_ns, o.http_ttfb_ns);
    add(checkpoint_ns, o.checkpoint_ns);
    add(checkpoint_bytes, o.checkpoint_bytes);
    add(restore_ns, o.restore_ns);
    add(scrape_ns, o.scrape_ns);
    add(scrape_bytes, o.scrape_bytes);
    attempted += o.attempted;
    failed += o.failed;
  }

  void NoteHttp(const HttpResult& r) {
    http_connect_ns.push_back(static_cast<double>(r.connect_ns));
    http_ttfb_ns.push_back(static_cast<double>(r.ttfb_ns));
  }
};

/// One /v1/marginal GET: latency and lateness go to `samples`.
HttpResult GetMarginal(uint16_t port, const std::string& path,
                       Samples& samples, uint64_t request) {
  Span root(Layer::kGen, "gen.query", request);
  HttpResult r;
  {
    Span span(Layer::kNet, "net.http_get");
    r = HttpGet(port, path, kHttpTimeoutMs);
  }
  ++samples.attempted;
  if (!r.ok || r.status != 200) ++samples.failed;
  samples.query_ns.Add(NowNs(), static_cast<double>(r.total_ns));
  samples.NoteHttp(r);
  return r;
}

void Scrape(uint16_t port, Samples& samples) {
  Span root(Layer::kGen, "gen.scrape");
  HttpResult r;
  {
    Span span(Layer::kObs, "obs.scrape");
    r = HttpGet(port, "/metrics", kHttpTimeoutMs);
  }
  ++samples.attempted;
  if (!r.ok || r.status != 200) {
    ++samples.failed;
    return;
  }
  samples.scrape_ns.push_back(static_cast<double>(r.total_ns));
  samples.scrape_bytes.push_back(static_cast<double>(r.body.size()));
}

// ---- registry reads ---------------------------------------------------------

bool SeriesOf(const std::string& name, const std::string& base) {
  return name == base || name.rfind(base + "{", 0) == 0;
}

/// Series the process exports, folded over labels and over stacks.
struct RegistryTotals {
  obs::HistogramSnapshot absorb;
  obs::HistogramSnapshot budget_wait;
  obs::HistogramSnapshot route;
  int64_t queue_depth_hw = 0;
  uint64_t bytes_routed = 0;
  uint64_t error_replies = 0;
  uint64_t refreshes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_requests = 0;
  uint64_t stale_served = 0;

  void Add(const obs::MetricsRegistry& registry) {
    for (const std::string& name : registry.Names()) {
      auto merge = [&](const char* base, obs::HistogramSnapshot& into) {
        if (!SeriesOf(name, base)) return;
        auto h = registry.HistogramValues(name);
        if (!h.ok()) return;
        if (into.bounds.empty()) {
          into = *h;
        } else {
          (void)into.MergeFrom(*h);
        }
      };
      auto sum = [&](const char* base, uint64_t& into) {
        if (SeriesOf(name, base)) into += registry.CounterValue(name);
      };
      merge("ldpm_engine_absorb_latency_ns", absorb);
      merge("ldpm_engine_budget_wait_ns", budget_wait);
      merge("ldpm_net_frame_route_latency_ns", route);
      if (SeriesOf(name, "ldpm_engine_queue_depth_high_water")) {
        queue_depth_hw = std::max(queue_depth_hw, registry.GaugeValue(name));
      }
      sum("ldpm_net_bytes_routed_total", bytes_routed);
      sum("ldpm_net_error_replies_total", error_replies);
      sum("ldpm_query_cache_refreshes_total", refreshes);
      sum("ldpm_query_cache_hits_total", cache_hits);
      sum("ldpm_query_requests_total", cache_requests);
      sum("ldpm_query_stale_served_total", stale_served);
    }
  }
};

// ---- gates ------------------------------------------------------------------

/// Report counts: the collection's own count must equal everything it
/// holds (`expected`: restored plus sent), and the exported
/// ldpm_engine_reports_absorbed_total series, which counts absorb work
/// since start, must equal what was sent (`expected - restored`).
void CheckCounts(engine::Collector& collector, const PoolSpec& spec,
                 const std::vector<uint64_t>& expected,
                 const std::vector<uint64_t>& restored, Outcome& out) {
  for (size_t c = 0; c < spec.collections.size(); ++c) {
    const std::string& id = spec.collections[c].id;
    auto handle = collector.Handle(id);
    auto absorbed = handle.ok() ? handle->ReportsAbsorbed()
                                : StatusOr<uint64_t>(handle.status());
    const uint64_t exported = collector.metrics()->CounterValue(
        obs::WithLabels("ldpm_engine_reports_absorbed_total",
                        {{"collection", id}}));
    if (!absorbed.ok() || *absorbed != expected[c] ||
        exported != expected[c] - restored[c]) {
      out.Fail("count gate: collection " + id + " sent " +
               std::to_string(expected[c]) + ", absorbed " +
               (absorbed.ok() ? std::to_string(*absorbed) : "error") +
               ", exported " + std::to_string(exported));
    }
  }
}

/// The networked collector's raw marginals must equal the direct pass's.
void CheckRaw(engine::Collector& collector, const PoolSpec& spec,
              const Reference& ref, Outcome& out) {
  for (size_t c = 0; c < spec.collections.size(); ++c) {
    for (size_t s = 0; s < ref.selectors[c].size(); ++s) {
      Span span(Layer::kEngine, "engine.query");
      auto table = collector.Query(spec.collections[c].id, ref.selectors[c][s]);
      if (!table.ok() || !SameTable(*table, ref.raw[c][s])) {
        out.Fail("direct-pass gate: collection " + spec.collections[c].id +
                 " selector " + std::to_string(ref.selectors[c][s]) +
                 " differs from the direct IngestFrames pass");
        return;
      }
    }
  }
}

/// GETs every cached selector of every collection and checks the cells
/// bitwise against the reference. Returns the served tables.
std::vector<std::vector<MarginalTable>> SweepServed(
    uint16_t port, const PoolSpec& spec, const Reference& ref,
    Samples& samples, Outcome& out) {
  std::vector<std::vector<MarginalTable>> served(spec.collections.size());
  for (size_t c = 0; c < spec.collections.size(); ++c) {
    const CollectionSpec& cs = spec.collections[c];
    for (size_t s = 0; s < ref.selectors[c].size(); ++s) {
      const uint64_t beta = ref.selectors[c][s];
      const HttpResult r =
          GetMarginal(port, MarginalPath(cs.id, beta), samples, 0);
      MarginalTable table(cs.config.d, beta);
      std::vector<double> cells;
      if (!r.ok || r.status != 200 || !ParseCells(r.body, &cells) ||
          !SameBits(cells, ref.consistent[c][s].values())) {
        out.Fail("served gate: /v1/marginal for " + cs.id + " selector " +
                 std::to_string(beta) +
                 " is not bitwise Query + MakeConsistent");
        return served;
      }
      table.values() = cells;
      served[c].push_back(std::move(table));
    }
  }
  return served;
}

/// Mean TV over every collection's exactly-k-way served marginals against
/// the true marginals of `rows`; gates each collection against
/// kTvMultiple * PredictedError (or kUnboundedTvCap).
double AccuracyGate(const PoolSpec& spec, const Reference& ref,
                    const std::vector<std::vector<MarginalTable>>& served,
                    const std::vector<const std::vector<uint64_t>*>& rows,
                    Outcome& out) {
  double total = 0.0;
  size_t count = 0;
  for (size_t c = 0; c < spec.collections.size(); ++c) {
    const CollectionSpec& cs = spec.collections[c];
    if (served[c].size() != ref.selectors[c].size()) return 0.0;
    double sum = 0.0;
    size_t n = 0;
    for (size_t s = 0; s < ref.selectors[c].size(); ++s) {
      const uint64_t beta = ref.selectors[c][s];
      if (std::popcount(beta) != cs.config.k) continue;
      auto truth = ldpm::MarginalFromRows(*rows[c], cs.config.d, beta);
      if (!truth.ok()) {
        out.Fail("accuracy gate: " + truth.status().message());
        return 0.0;
      }
      sum += served[c][s].TotalVariationDistance(*truth);
      ++n;
    }
    const double mean = sum / static_cast<double>(n);
    auto predicted =
        ldpm::PredictedError(cs.kind, cs.config.d, cs.config.k,
                             cs.config.epsilon, rows[c]->size());
    const double limit =
        predicted.ok() ? kTvMultiple * *predicted : kUnboundedTvCap;
    if (!(mean <= limit)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "accuracy gate: %s mean TV %.5f exceeds %.5f",
                    cs.id.c_str(), mean, limit);
      out.Fail(buf);
    }
    total += sum;
    count += n;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

// ---- per-layer probes (traced runs) -----------------------------------------

/// Keeps the read-only roofline pass from being optimized away.
volatile uint64_t g_roofline_sink = 0;

/// Standalone AbsorbWireBatch over the sample's frames beside a read-only
/// pass over the same bytes.
void AbsorbProbe(const PoolSpec& spec, const std::vector<const Upload*>& sample,
                 Outcome& out) {
  struct Frame {
    size_t collection;
    const uint8_t* data;
    size_t size;
  };
  std::vector<Frame> frames;
  uint64_t reports = 0;
  for (const Upload* u : sample) {
    ldpm::CollectionFrameReader reader(u->bytes.data(), u->bytes.size());
    std::string_view id;
    const uint8_t* payload = nullptr;
    size_t size = 0;
    while (reader.Next(id, payload, size)) {
      for (size_t c = 0; c < spec.collections.size(); ++c) {
        if (spec.collections[c].id == id) frames.push_back({c, payload, size});
      }
    }
    reports += u->total_reports;
  }
  std::vector<std::unique_ptr<ldpm::MarginalProtocol>> protocols;
  for (const CollectionSpec& c : spec.collections) {
    auto p = ldpm::CreateProtocol(c.kind, c.config);
    if (!p.ok()) {
      out.Fail("absorb probe: " + p.status().message());
      return;
    }
    protocols.push_back(*std::move(p));
  }
  double absorb_ns = 0.0, roofline_ns = 0.0;
  uint64_t absorbed = 0, read = 0, sink = 0;
  while (absorb_ns < 2e8 || absorbed < 3 * reports) {
    for (auto& p : protocols) p->Reset();
    {
      Span span(Layer::kProtocols, "protocols.absorb_wire");
      const int64_t t0 = NowNs();
      for (const Frame& f : frames) {
        if (!protocols[f.collection]->AbsorbWireBatch(f.data, f.size).ok()) {
          out.Fail("absorb probe: AbsorbWireBatch failed");
          return;
        }
      }
      absorb_ns += static_cast<double>(NowNs() - t0);
    }
    absorbed += reports;
    Span span(Layer::kGen, "gen.roofline");
    const int64_t t0 = NowNs();
    for (const Frame& f : frames) {
      uint64_t acc = 0;
      size_t i = 0;
      for (; i + 8 <= f.size; i += 8) {
        uint64_t word;
        std::memcpy(&word, f.data + i, 8);
        acc ^= word;
      }
      for (; i < f.size; ++i) acc += f.data[i];
      sink += acc;
    }
    roofline_ns += static_cast<double>(NowNs() - t0);
    read += reports;
  }
  uint64_t check = 0;
  for (auto& p : protocols) check += p->reports_absorbed();
  if (check != reports) out.Fail("absorb probe: standalone count mismatch");
  const double absorb_rps = static_cast<double>(absorbed) / (absorb_ns * 1e-9);
  const double roofline_rps = static_cast<double>(read) / (roofline_ns * 1e-9);
  out.metrics.push_back({"protocols.absorb_rps", absorb_rps, "1/s", absorbed});
  g_roofline_sink = sink;
  out.metrics.push_back({"protocols.roofline_rps", roofline_rps, "1/s", read});
  out.metrics.push_back({"protocols.absorb_roofline_ratio",
                         absorb_rps / roofline_rps, "ratio", absorbed});
}

/// Checkpoint / restore, refresh, marginal, consistency and model timings
/// on the reference collector's final state.
void StateProbes(const PoolSpec& spec, const Reference& ref,
                 const std::string& ckpt_path, Samples& samples,
                 Outcome& out) {
  for (int i = 0; i < 3; ++i) {
    Span span(Layer::kEngine, "engine.checkpoint");
    const int64_t t0 = NowNs();
    const uint64_t before = ref.collector->metrics()->CounterValue(
        "ldpm_collector_checkpoint_bytes_total");
    if (!ref.collector->CheckpointTo(ckpt_path).ok()) {
      out.Fail("checkpoint probe: CheckpointTo failed");
      return;
    }
    samples.checkpoint_ns.push_back(static_cast<double>(NowNs() - t0));
    samples.checkpoint_bytes.push_back(static_cast<double>(
        ref.collector->metrics()->CounterValue(
            "ldpm_collector_checkpoint_bytes_total") -
        before));
  }
  for (int i = 0; i < 3; ++i) {
    double restore_ns = 0.0;
    auto restored = NewCollector(spec, &ckpt_path, &restore_ns);
    if (!restored.ok()) {
      out.Fail("restore probe: " + restored.status().message());
      return;
    }
    samples.restore_ns.push_back(restore_ns);
  }
  std::remove(ckpt_path.c_str());

  double refresh_ms = 0.0, marginal_ns = 0.0, consistency_ms = 0.0,
         model_ms = 0.0;
  for (size_t c = 0; c < spec.collections.size(); ++c) {
    auto cache = ldpm::query::MarginalCache::Create(ref.collector.get(),
                                                    spec.collections[c].id);
    if (!cache.ok()) {
      out.Fail("query probe: " + cache.status().message());
      return;
    }
    std::vector<double> refresh, model, lookup, consistency;
    for (int i = 0; i < 3; ++i) {
      {
        Span span(Layer::kQuery, "query.refresh");
        const int64_t t0 = NowNs();
        if (!(*cache)->Refresh().ok()) {
          out.Fail("query probe: Refresh failed");
          return;
        }
        refresh.push_back(static_cast<double>(NowNs() - t0));
      }
      auto snapshot = (*cache)->Get();
      if (!snapshot.ok()) {
        out.Fail("query probe: Get failed");
        return;
      }
      Span span(Layer::kAnalysis, "analysis.model");
      const int64_t t0 = NowNs();
      if (!(*snapshot)->Model().ok()) {
        out.Fail("analysis probe: Model failed");
        return;
      }
      model.push_back(static_cast<double>(NowNs() - t0));
    }
    for (int i = 0; i < 200; ++i) {
      const uint64_t beta = ref.selectors[c][i % ref.selectors[c].size()];
      Span span(Layer::kQuery, "query.marginal");
      const int64_t t0 = NowNs();
      if (!(*cache)->Marginal(beta).ok()) {
        out.Fail("query probe: Marginal failed");
        return;
      }
      lookup.push_back(static_cast<double>(NowNs() - t0));
    }
    for (int i = 0; i < 3; ++i) {
      Span span(Layer::kAnalysis, "analysis.consistency");
      const int64_t t0 = NowNs();
      if (!ldpm::MakeConsistent(ref.raw[c], spec.collections[c].config.d)
               .ok()) {
        out.Fail("analysis probe: MakeConsistent failed");
        return;
      }
      consistency.push_back(static_cast<double>(NowNs() - t0));
    }
    refresh_ms += Ms(Median(refresh));
    model_ms += Ms(Median(model));
    consistency_ms += Ms(Median(consistency));
    marginal_ns +=
        Median(lookup) / static_cast<double>(spec.collections.size());
  }
  out.metrics.push_back({"query.refresh_ms", refresh_ms, "ms", 3});
  out.metrics.push_back({"query.marginal_ns", marginal_ns, "ns", 200});
  out.metrics.push_back({"analysis.consistency_ms", consistency_ms, "ms", 3});
  out.metrics.push_back({"analysis.model_ms", model_ms, "ms", 3});
}

void PushSummary(Outcome& out, const std::string& p50_name,
                 const std::string& tail_name, const Series& v, double scale,
                 const std::string& unit) {
  const Summary s = SummarizeGroups(v);
  const auto [lo, hi] =
      std::minmax_element(s.group_tails.begin(), s.group_tails.end());
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s: all samples p90 %.4g p95 %.4g p99 %.4g; %zu group tails "
                "%.4g..%.4g",
                tail_name.c_str(), Quantile(v.values, 0.90) * scale,
                Quantile(v.values, 0.95) * scale,
                Quantile(v.values, 0.99) * scale, s.group_tails.size(),
                s.group_tails.empty() ? 0.0 : *lo * scale,
                s.group_tails.empty() ? 0.0 : *hi * scale);
  out.report.push_back(line);
  out.metrics.push_back({p50_name, s.p50 * scale, unit, s.n});
  out.metrics.push_back({tail_name, s.tail * scale, unit, s.n,
                         s.tail_percentile});
}

/// End-to-end metrics common to every workload.
void EndToEnd(Outcome& out, const Samples& s, double ingest_rps,
              double cpu_ns_per_report, uint64_t ingest_reports,
              double tv_error, size_t tv_samples) {
  out.metrics.push_back({"setup_s", Median(s.setup_cpu_ns) * 1e-9, "s",
                         s.setup_cpu_ns.size()});
  char line[96];
  std::snprintf(line, sizeof(line), "setup wall-clock: median %.4g s",
                Median(s.setup_wall_ns) * 1e-9);
  out.report.push_back(line);
  out.metrics.push_back({"ingest_rps", ingest_rps, "1/s", ingest_reports});
  out.metrics.push_back(
      {"cpu_ns_per_report", cpu_ns_per_report, "ns", ingest_reports});
  PushSummary(out, "upload_p50_ms", "upload_tail_ms", s.upload_ns, 1e-6, "ms");
  PushSummary(out, "query_p50_us", "query_tail_us", s.query_ns, 1e-3, "us");
  PushSummary(out, "freshness_p50_ms", "freshness_tail_ms", s.fresh_ns, 1e-6,
              "ms");
  if (!s.fresh_read_ns.empty()) {
    out.metrics.push_back({"fresh_read_ms", Ms(Median(s.fresh_read_ns)), "ms",
                           s.fresh_read_ns.size()});
  }
  out.metrics.push_back({"tv_error", tv_error, "tv", tv_samples});
  out.attempted = s.attempted;
  out.failed = s.failed;
  const double ok =
      s.attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(s.failed) /
                                   static_cast<double>(s.attempted);
  out.metrics.push_back({"ok_frac", ok, "ratio", s.attempted});
}

/// Per-layer metrics from samples, registry totals and spans.
void PerLayer(Outcome& out, const Pool& pool,
              const std::vector<double>& direct_ingest_ns,
              const std::vector<double>& direct_flush_ns,
              uint64_t direct_reports,
              const Samples& s, const RegistryTotals& reg,
              double overhead_frac) {
  out.metrics.push_back(
      {"protocols.encode_rps",
       static_cast<double>(pool.encoded_reports) / pool.encode_seconds, "1/s",
       pool.encoded_reports});
  out.metrics.push_back(
      {"engine.ingest_frames_rps",
       static_cast<double>(direct_reports) / (Median(direct_ingest_ns) * 1e-9),
       "1/s", direct_ingest_ns.size()});
  out.metrics.push_back({"engine.flush_ms", Ms(Median(direct_flush_ns)), "ms",
                         direct_flush_ns.size()});
  out.metrics.push_back({"engine.absorb_batch_p50_us",
                         Us(reg.absorb.Quantile(0.5)), "us", reg.absorb.count});
  out.metrics.push_back({"engine.budget_wait_p99_us",
                         Us(reg.budget_wait.Quantile(0.99)), "us",
                         reg.budget_wait.count});
  out.metrics.push_back({"engine.queue_depth_hw",
                         static_cast<double>(reg.queue_depth_hw), "count", 1});
  out.metrics.push_back({"engine.checkpoint_ms", Ms(Median(s.checkpoint_ns)),
                         "ms", s.checkpoint_ns.size()});
  out.metrics.push_back({"engine.checkpoint_bytes", Median(s.checkpoint_bytes),
                         "bytes", s.checkpoint_bytes.size()});
  out.metrics.push_back({"engine.restore_ms", Ms(Median(s.restore_ns)), "ms",
                         s.restore_ns.size()});

  const std::vector<SpanRecord> spans = tracer::Collect();
  const std::vector<double> connect = SpanDurations(spans, "net.connect");
  const std::vector<double> finish = SpanDurations(spans, "net.finish");
  double send_total = 0.0, upload_total = 0.0;
  for (double v : SpanDurations(spans, "net.send")) send_total += v;
  for (double v : SpanDurations(spans, "gen.upload")) upload_total += v;
  out.metrics.push_back(
      {"net.connect_us", Us(Median(connect)), "us", connect.size()});
  out.metrics.push_back({"net.send_blocked_frac",
                         upload_total > 0 ? send_total / upload_total : 0.0,
                         "ratio", connect.size()});
  out.metrics.push_back(
      {"net.finish_us", Us(Median(finish)), "us", finish.size()});
  out.metrics.push_back({"net.route_p50_us", Us(reg.route.Quantile(0.5)), "us",
                         reg.route.count});
  out.metrics.push_back({"net.route_p99_us", Us(reg.route.Quantile(0.99)),
                         "us", reg.route.count});
  out.metrics.push_back({"net.bytes_routed",
                         static_cast<double>(reg.bytes_routed), "bytes", 1});
  out.metrics.push_back({"net.error_replies",
                         static_cast<double>(reg.error_replies), "count", 1});
  out.metrics.push_back({"net.http_connect_us", Us(Median(s.http_connect_ns)),
                         "us", s.http_connect_ns.size()});
  out.metrics.push_back({"net.http_ttfb_us", Us(Median(s.http_ttfb_ns)), "us",
                         s.http_ttfb_ns.size()});
  out.metrics.push_back({"query.refreshes", static_cast<double>(reg.refreshes),
                         "count", 1});
  out.metrics.push_back(
      {"query.hit_ratio",
       reg.cache_requests == 0 ? 0.0
                               : static_cast<double>(reg.cache_hits) /
                                     static_cast<double>(reg.cache_requests),
       "ratio", reg.cache_requests});
  out.metrics.push_back({"query.stale_served",
                         static_cast<double>(reg.stale_served), "count", 1});
  out.metrics.push_back({"obs.scrape_ms", Ms(Median(s.scrape_ns)), "ms",
                         s.scrape_ns.size()});
  out.metrics.push_back({"obs.scrape_bytes", Median(s.scrape_bytes), "bytes",
                         s.scrape_bytes.size()});

  // Self-time table.
  const auto self = SelfTimeByLayer(spans);
  const double wall = RootWallNs(spans);
  double layers = 0.0;
  char line[160];
  out.report.push_back("per-layer self time (traced spans):");
  for (size_t l = 1; l < kLayerCount; ++l) {
    const std::string name = LayerName(static_cast<Layer>(l));
    out.metrics.push_back(
        {"trace." + name + ".self_ms", Ms(self[l]), "ms", spans.size()});
    layers += self[l];
    std::snprintf(line, sizeof(line), "  %-10s %12.3f ms  %5.1f%%",
                  name.c_str(), Ms(self[l]),
                  wall > 0 ? 100.0 * self[l] / wall : 0.0);
    out.report.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "  %-10s %12.3f ms  (wall, summed over root spans)", "wall",
                Ms(wall));
  out.report.push_back(line);
  std::snprintf(line, sizeof(line), "  %-10s %12.3f ms", "layers", Ms(layers));
  out.report.push_back(line);
  std::snprintf(line, sizeof(line), "  %-10s %12.3f ms", "unattrib.",
                Ms(wall - layers));
  out.report.push_back(line);
  out.metrics.push_back(
      {"trace.unattributed_ms", Ms(wall - layers), "ms", spans.size()});
  out.metrics.push_back(
      {"trace.overhead_frac", overhead_frac, "ratio", spans.size()});
  out.metrics.push_back({"gen.late_tail_ms", Ms(Summarize(s.late_ns).tail),
                         "ms", s.late_ns.size()});
}

/// Waits until the absolute steady-clock time `at_ns`, or until `stop`:
/// sleeps to within kSpinNs of it, then yields until it is reached, so the
/// generator's own wake-up delay stays out of the measured latencies.
/// Returns false when woken by `stop`.
constexpr int64_t kSpinNs = 200'000;
bool SleepUntil(int64_t at_ns, std::mutex& mu, std::condition_variable& cv,
                const bool& stop) {
  {
    std::unique_lock<std::mutex> lock(mu);
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(at_ns - kSpinNs));
    if (cv.wait_until(lock, deadline, [&] { return stop; })) return false;
  }
  while (NowNs() < at_ns) std::this_thread::yield();
  return true;
}

/// Open-loop workers wake on time: drop the default 50 us timer slack.
void TightTimers() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// ---- ingest workloads -------------------------------------------------------

Outcome RunIngest(const IngestWorkload& w, const RunOptions& opt) {
  Outcome out;
  tracer::SetEnabled(opt.trace);
  auto built = BuildPool(w.pool, opt.seed, kEncodeThreads);
  if (!built.ok()) {
    out.Fail("pool: " + built.status().message());
    return out;
  }
  const Pool& pool = *built;
  const PoolSpec& spec = w.pool;
  const size_t ncoll = spec.collections.size();

  // Each round, client c sends uploads c, c + clients, ... `replays` times.
  std::vector<std::vector<const Upload*>> client_sends(kClients);
  for (int r = 0; r < w.replays; ++r) {
    for (size_t u = 0; u < pool.uploads.size(); ++u) {
      client_sends[u % kClients].push_back(&pool.uploads[u]);
    }
  }
  std::vector<const Upload*> all_sends;
  std::vector<uint64_t> expected(ncoll, 0);
  uint64_t round_reports = 0;
  for (const auto& sends : client_sends) {
    for (const Upload* u : sends) {
      all_sends.push_back(u);
      for (size_t c = 0; c < ncoll; ++c) expected[c] += u->reports[c];
      round_reports += u->total_reports;
    }
  }

  std::vector<double> direct_ingest_ns, direct_flush_ns;
  auto reference = DirectPass(spec, all_sends, nullptr, true);
  if (!reference.ok()) {
    out.Fail("direct pass: " + reference.status().message());
    return out;
  }
  const Reference& ref = *reference;
  direct_ingest_ns.push_back(ref.ingest_ns);
  direct_flush_ns.push_back(ref.flush_ns);
  if (ref.reports != expected) out.Fail("count gate: direct pass lost reports");

  const std::string ckpt_path = opt.out_dir + "/ckpt-" + opt.workload + "-" +
                                std::to_string(getpid()) + ".bin";
  Samples run_samples;
  RegistryTotals registry;
  std::vector<double> traced_round_ns, untraced_round_ns, round_rps;
  std::vector<double> round_cpu_ns_per_report;
  uint64_t ingest_reports = 0;
  double tv = 0.0;  // served accuracy; every round serves the same state

  // The ticker scrapes /metrics of the live stack once a second, on a
  // schedule from the run start.
  std::mutex live_mu;
  std::condition_variable round_cv;  // signaled when a round starts ingest
  Stack* live = nullptr;
  bool live_ingesting = false;
  uint64_t round_seq = 0;
  double ingest_clock_ns = 0.0;  // measured ingest time before this round
  Samples ticker_samples, checkpoint_samples;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  const int64_t run_start = NowNs();
  // The checkpointer (ingest_mux) cuts a checkpoint of the live collector
  // once per second of ingest time, kCheckpointOffsetNs into the round
  // that crosses each second, so every run sees the same number of cuts
  // per unit of ingest work.
  std::thread checkpointer([&] {
    if (!w.checkpoint_ticker) return;
    double next_due_ns = 1e9;
    uint64_t seen = 0;
    for (;;) {
      double clock = 0.0;
      {
        std::unique_lock<std::mutex> lock(live_mu);
        round_cv.wait(lock, [&] {
          std::lock_guard<std::mutex> stopped(stop_mu);
          return stop || round_seq != seen;
        });
        std::lock_guard<std::mutex> stopped(stop_mu);
        if (stop) return;
        seen = round_seq;
        clock = ingest_clock_ns;
      }
      if (clock < next_due_ns) continue;
      while (next_due_ns <= clock) next_due_ns += 1e9;
      if (!SleepUntil(NowNs() + kCheckpointOffsetNs, stop_mu, stop_cv, stop)) {
        return;
      }
      std::lock_guard<std::mutex> lock(live_mu);
      if (live == nullptr || !live_ingesting) continue;
      Span root(Layer::kGen, "gen.checkpoint_tick");
      Span span(Layer::kEngine, "engine.checkpoint");
      ++checkpoint_samples.attempted;
      const uint64_t before = live->collector->metrics()->CounterValue(
          "ldpm_collector_checkpoint_bytes_total");
      const int64_t t0 = NowNs();
      if (live->collector->CheckpointTo(ckpt_path).ok()) {
        checkpoint_samples.checkpoint_ns.push_back(
            static_cast<double>(NowNs() - t0));
        checkpoint_samples.checkpoint_bytes.push_back(static_cast<double>(
            live->collector->metrics()->CounterValue(
                "ldpm_collector_checkpoint_bytes_total") -
            before));
      } else {
        ++checkpoint_samples.failed;
      }
    }
  });
  std::thread ticker([&] {
    TightTimers();
    std::vector<int64_t> due = FixedSchedule(
        1'000'000'000, static_cast<int64_t>((opt.seconds + 600) * 1e9));
    due.erase(due.begin());  // the first scrape is one second in
    OpenLoopSchedule schedule(std::move(due));
    RunOpenLoopWorker(
        schedule, [&] { return NowNs() - run_start; },
        [&](int64_t at) {
          return SleepUntil(run_start + at, stop_mu, stop_cv, stop);
        },
        [&](uint64_t) {
          std::lock_guard<std::mutex> lock(live_mu);
          if (live != nullptr) Scrape(live->stats->port(), ticker_samples);
          return 0;
        },
        [&](uint64_t, const OpenLoopTiming& t, int) {
          ticker_samples.late_ns.push_back(static_cast<double>(t.late_ns()));
        });
  });

  // Round 0 warms caches and allocators up; its timings are dropped, its
  // gates still run.
  std::atomic<uint64_t> next_request{1};
  auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - run_start) * 1e-9;
  };
  for (int round = 0; round < 3 || elapsed_s() < opt.seconds; ++round) {
    const bool warmup = round == 0;
    const bool traced = opt.trace && round % 2 == 1;
    Samples measured;
    Samples& samples = warmup ? measured : run_samples;
    tracer::SetEnabled(traced);
    const int64_t s0 = NowNs();
    const int64_t s0_cpu = ProcessCpuNs();
    auto started = StartStack(spec, nullptr, false);
    if (!started.ok()) {
      out.Fail("setup: " + started.status().message());
      break;
    }
    samples.setup_cpu_ns.push_back(
        static_cast<double>(ProcessCpuNs() - s0_cpu));
    samples.setup_wall_ns.push_back(static_cast<double>(NowNs() - s0));
    std::unique_ptr<Stack> stack = *std::move(started);
    const uint16_t port = stack->ingest->port();
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live = stack.get();
      live_ingesting = true;
      ++round_seq;
    }
    round_cv.notify_all();

    std::vector<Samples> client_samples(kClients);
    std::vector<int64_t> last_verdict(kClients, 0);
    const int64_t t_start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Samples& mine = client_samples[c];
          for (const Upload* u : client_sends[c]) {
            Span root(Layer::kGen, "gen.upload",
                      next_request.fetch_add(1, std::memory_order_relaxed));
            const int64_t t0 = NowNs();
            ++mine.attempted;
            StatusOr<net::FrameClient> client = [&] {
              Span span(Layer::kNet, "net.connect");
              return net::FrameClient::Connect("127.0.0.1", port);
            }();
            if (!client.ok()) {
              ++mine.failed;
              continue;
            }
            Status sent;
            {
              Span span(Layer::kNet, "net.send");
              sent = client->SendBytes(u->bytes.data(), u->bytes.size());
            }
            StatusOr<net::StreamReply> reply = [&] {
              Span span(Layer::kNet, "net.finish");
              return client->Finish();
            }();
            const int64_t t1 = NowNs();
            if (!sent.ok() || !reply.ok() || !reply->status.ok() ||
                reply->bytes_routed != u->bytes.size()) {
              ++mine.failed;
              continue;
            }
            mine.upload_ns.Add(t1, static_cast<double>(t1 - t0));
            last_verdict[c] = t1;
          }
        });
      }
      for (auto& t : clients) t.join();
    }
    Status flushed;
    {
      Span span(Layer::kEngine, "engine.flush");
      flushed = stack->collector->Flush();
    }
    const int64_t t_end = NowNs();
    const int64_t cpu_end = ProcessCpuNs();
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live_ingesting = false;
    }
    if (!flushed.ok()) out.Fail("flush: " + flushed.message());
    for (const Samples& s : client_samples) samples.Merge(s);
    const double round_ns = static_cast<double>(t_end - t_start);
    {
      std::lock_guard<std::mutex> lock(live_mu);
      if (!warmup) ingest_clock_ns += round_ns;
    }
    if (!warmup) {
      round_rps.push_back(static_cast<double>(round_reports) /
                          (round_ns * 1e-9));
      round_cpu_ns_per_report.push_back(
          static_cast<double>(cpu_end - cpu_start) /
          static_cast<double>(round_reports));
      ingest_reports += round_reports;
      (traced ? traced_round_ns : untraced_round_ns).push_back(round_ns);
    }

    // Freshness: the last OK verdict -> the first served answer of each
    // collection whose watermark covers everything enqueued.
    const int64_t verdict =
        *std::max_element(last_verdict.begin(), last_verdict.end());
    // The reads alone, from Flush returning until every collection served
    // the round, are fresh_read_ms.
    const uint16_t qport = stack->query->port();
    const int64_t reads_start = NowNs();
    size_t fresh = 0;
    for (const CollectionSpec& c : spec.collections) {
      const uint64_t want = stack->collector->metrics()->CounterValue(
          obs::WithLabels("ldpm_engine_batches_enqueued_total",
                          {{"collection", c.id}}));
      for (int attempt = 0; attempt < 100; ++attempt) {
        const HttpResult r = GetMarginal(
            qport, MarginalPath(c.id, 1), samples,
            next_request.fetch_add(1, std::memory_order_relaxed));
        uint64_t watermark = 0;
        if (r.ok && r.status == 200 &&
            JsonUint(r.body, "watermark", &watermark) && watermark >= want) {
          const int64_t now = NowNs();
          samples.fresh_ns.Add(now, static_cast<double>(now - verdict));
          ++fresh;
          break;
        }
      }
    }
    if (fresh == ncoll) {
      samples.fresh_read_ns.push_back(
          static_cast<double>(NowNs() - reads_start));
    } else {
      out.Fail("freshness: a collection never served the round's reports");
    }
    CheckCounts(*stack->collector, spec, expected,
                std::vector<uint64_t>(ncoll, 0), out);
    if (round == 0) CheckRaw(*stack->collector, spec, ref, out);
    // The sweep's GETs are cache hits that only check cells; the query
    // metrics of an ingest workload are the reads above, the first after a
    // bulk upload, which pay the rebuild.
    Samples sweep;
    const auto served = SweepServed(qport, spec, ref, sweep, out);
    sweep.query_ns = Series();
    samples.Merge(sweep);
    if (round == 0) {
      std::vector<const std::vector<uint64_t>*> rows;
      for (const auto& r : pool.rows) rows.push_back(&r);
      tv = AccuracyGate(spec, ref, served, rows, out);
    }
    registry.Add(*stack->collector->metrics());
    {
      std::lock_guard<std::mutex> lock(live_mu);
      live = nullptr;
    }
    {
      Span span(Layer::kNet, "net.stop");
      stack.reset();
    }
    if (!out.correct) break;
  }
  {
    std::lock_guard<std::mutex> lock(live_mu);
    std::lock_guard<std::mutex> stopped(stop_mu);
    stop = true;
  }
  stop_cv.notify_all();
  round_cv.notify_all();
  ticker.join();
  checkpointer.join();
  std::remove(ckpt_path.c_str());
  Samples& samples = run_samples;
  samples.Merge(ticker_samples);
  samples.Merge(checkpoint_samples);

  EndToEnd(out, samples, Median(round_rps), Median(round_cpu_ns_per_report),
           ingest_reports, tv, ncoll);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu measured rounds of %llu reports: p10 %.4g, p50 %.4g, "
                "p90 %.4g reports/s",
                round_rps.size(),
                static_cast<unsigned long long>(round_reports),
                Quantile(round_rps, 0.1), Quantile(round_rps, 0.5),
                Quantile(round_rps, 0.9));
  out.report.push_back(line);
  std::snprintf(line, sizeof(line),
                "cpu_ns_per_report over rounds: p10 %.4g, p50 %.4g, p90 %.4g",
                Quantile(round_cpu_ns_per_report, 0.1),
                Quantile(round_cpu_ns_per_report, 0.5),
                Quantile(round_cpu_ns_per_report, 0.9));
  out.report.push_back(line);

  if (opt.trace && out.correct) {
    tracer::SetEnabled(true);
    for (int i = 0; i < 2; ++i) {
      auto again = DirectPass(spec, all_sends, nullptr, false);
      if (!again.ok()) {
        out.Fail("direct pass: " + again.status().message());
        return out;
      }
      direct_ingest_ns.push_back(again->ingest_ns);
      direct_flush_ns.push_back(again->flush_ns);
    }
    AbsorbProbe(spec, all_sends, out);
    StateProbes(spec, ref, ckpt_path, samples, out);
    const double overhead =
        untraced_round_ns.empty()
            ? 0.0
            : Median(traced_round_ns) / Median(untraced_round_ns) - 1.0;
    PerLayer(out, pool, direct_ingest_ns, direct_flush_ns,
             round_reports, samples, registry, overhead);
  }
  return out;
}

// ---- serve_mixed ------------------------------------------------------------

struct PendingFresh {
  int64_t verdict_ns;
  uint64_t watermark;
};

Outcome RunServe(const RunOptions& opt) {
  Outcome out;
  tracer::SetEnabled(opt.trace);
  const std::vector<int64_t> upload_due = PoissonSchedule(
      kUploadRate, static_cast<int64_t>(opt.seconds * 1e9),
      MixSeed(opt.seed, 0x9, 2));
  const size_t upload_count = std::max<size_t>(upload_due.size(), 1);
  auto base = BuildPool(ServeSpec(1, kServeBaseReports / 4096, 4096, 0),
                        opt.seed, kEncodeThreads);
  auto devices = BuildPool(ServeSpec(upload_count, 1, kDeviceReports, 1),
                           opt.seed, kEncodeThreads);
  if (!base.ok() || !devices.ok()) {
    out.Fail("pool: " +
             (base.ok() ? devices.status() : base.status()).message());
    return out;
  }
  const PoolSpec& spec = base->spec;
  const std::string& id = spec.collections[0].id;
  const std::string base_path = opt.out_dir + "/base-" +
                                std::to_string(getpid()) + ".ckpt";
  const std::string probe_path = opt.out_dir + "/probe-" +
                                 std::to_string(getpid()) + ".ckpt";
  {
    auto builder = NewCollector(spec, nullptr);
    if (!builder.ok() ||
        !(*builder)->IngestFrames(base->uploads[0].bytes).ok() ||
        !(*builder)->CheckpointTo(base_path).ok()) {
      out.Fail("base population checkpoint failed");
      return out;
    }
  }

  Samples samples;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kServeSetups; ++i) {
    stack.reset();
    Span root(Layer::kGen, "gen.setup");
    double restore_ns = 0.0;
    const int64_t t0 = NowNs();
    const int64_t t0_cpu = ProcessCpuNs();
    auto started = StartStack(spec, &base_path, true, &restore_ns);
    if (!started.ok()) {
      out.Fail("setup: " + started.status().message());
      std::remove(base_path.c_str());
      return out;
    }
    samples.setup_cpu_ns.push_back(
        static_cast<double>(ProcessCpuNs() - t0_cpu));
    samples.setup_wall_ns.push_back(static_cast<double>(NowNs() - t0));
    samples.restore_ns.push_back(restore_ns);
    stack = *std::move(started);
  }
  const uint16_t qport = stack->query->port();
  const uint16_t iport = stack->ingest->port();
  const uint16_t sport = stack->stats->port();
  const std::string watermark_series = obs::WithLabels(
      "ldpm_engine_batches_enqueued_total", {{"collection", id}});
  const std::vector<uint64_t> selectors =
      ldpm::FullKWaySelectors(spec.collections[0].config.d,
                              spec.collections[0].config.k);

  std::mutex fresh_mu;
  std::vector<PendingFresh> pending;
  Series fresh_ns;
  auto resolve = [&](int64_t answered_ns, uint64_t watermark) {
    std::lock_guard<std::mutex> lock(fresh_mu);
    auto keep = pending.begin();
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (watermark >= it->watermark && answered_ns > it->verdict_ns) {
        fresh_ns.Add(answered_ns,
                     static_cast<double>(answered_ns - it->verdict_ns));
      } else {
        *keep++ = *it;
      }
    }
    pending.erase(keep, pending.end());
  };

  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  const int64_t window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const int64_t t_start = NowNs() + 20'000'000;
  const int64_t cpu_start = ProcessCpuNs();
  OpenLoopSchedule queries(
      PoissonSchedule(kQueryRate, window_ns, MixSeed(opt.seed, 0x9, 1)));
  OpenLoopSchedule uploads(upload_due);  // one pool upload per due time
  std::vector<Samples> worker_samples(kQueryWorkers + 2);
  std::vector<char> upload_ok(devices->uploads.size(), 0);
  std::vector<std::thread> workers;
  auto now = [&] { return NowNs() - t_start; };
  auto wait_until = [&](int64_t due) {
    return SleepUntil(t_start + due, stop_mu, stop_cv, stop);
  };
  struct QueryServed {
    bool model = false;
    bool traced = false;
    HttpResult r;
  };
  for (int q = 0; q < kQueryWorkers; ++q) {
    workers.emplace_back([&, q] {
      TightTimers();
      Samples& mine = worker_samples[q];
      RunOpenLoopWorker(
          queries, now, wait_until,
          [&](uint64_t index) {
            QueryServed served;
            served.traced = tracer::enabled();
            served.model = index % kModelEvery == kModelEvery - 1;
            const std::string path =
                served.model
                    ? "/v1/model?collection=" + id
                    : MarginalPath(id, selectors[MixSeed(opt.seed, 0x9, index) %
                                                 selectors.size()]);
            Span root(Layer::kGen, "gen.query", index + 1);
            Span span(Layer::kNet, "net.http_get");
            served.r = HttpGet(qport, path, kHttpTimeoutMs);
            return served;
          },
          [&](uint64_t, const OpenLoopTiming& t, QueryServed served) {
            ++mine.attempted;
            mine.late_ns.push_back(static_cast<double>(t.late_ns()));
            const double latency = static_cast<double>(t.latency_ns());
            mine.query_ns.Add(t_start + t.end_ns, latency);
            (served.traced ? mine.query_traced_ns : mine.query_untraced_ns)
                .push_back(latency);
            mine.NoteHttp(served.r);
            uint64_t watermark = 0;
            if (!served.r.ok || served.r.status != 200) {
              ++mine.failed;
            } else if (!served.model &&
                       JsonUint(served.r.body, "watermark", &watermark)) {
              resolve(t_start + t.end_ns, watermark);
            }
          });
    });
  }
  workers.emplace_back([&] {
    TightTimers();
    Samples& mine = worker_samples[kQueryWorkers];
    RunOpenLoopWorker(
        uploads, now, wait_until,
        [&](uint64_t index) {
          const Upload& u = devices->uploads[index];
          Span root(Layer::kGen, "gen.upload", (uint64_t{1} << 40) + index);
          StatusOr<net::FrameClient> client = [&] {
            Span span(Layer::kNet, "net.connect");
            return net::FrameClient::Connect("127.0.0.1", iport);
          }();
          if (!client.ok()) return false;
          Status sent;
          {
            Span span(Layer::kNet, "net.send");
            sent = client->SendBytes(u.bytes.data(), u.bytes.size());
          }
          StatusOr<net::StreamReply> reply = [&] {
            Span span(Layer::kNet, "net.finish");
            return client->Finish();
          }();
          return sent.ok() && reply.ok() && reply->status.ok() &&
                 reply->bytes_routed == u.bytes.size();
        },
        [&](uint64_t index, const OpenLoopTiming& t, bool ok) {
          ++mine.attempted;
          mine.late_ns.push_back(static_cast<double>(t.late_ns()));
          if (!ok) {
            ++mine.failed;
            return;
          }
          const int64_t verdict = t_start + t.end_ns;
          upload_ok[index] = 1;
          mine.upload_ns.Add(verdict, static_cast<double>(t.latency_ns()));
          const uint64_t watermark =
              stack->collector->metrics()->CounterValue(watermark_series);
          std::lock_guard<std::mutex> lock(fresh_mu);
          pending.push_back({verdict, watermark});
        });
  });
  workers.emplace_back([&] {
    TightTimers();
    Samples& mine = worker_samples[kQueryWorkers + 1];
    OpenLoopSchedule scrapes(FixedSchedule(1'000'000'000, window_ns));
    RunOpenLoopWorker(
        scrapes, now, wait_until,
        [&](uint64_t index) {
          // Traced runs alternate traced and untraced seconds, so the
          // tracing overhead is measured inside one run.
          if (opt.trace) tracer::SetEnabled(index % 2 == 0);
          Scrape(sport, mine);
          return 0;
        },
        [&](uint64_t, const OpenLoopTiming& t, int) {
          mine.late_ns.push_back(static_cast<double>(t.late_ns()));
        });
  });
  for (auto& t : workers) t.join();
  const double window_s = static_cast<double>(NowNs() - t_start) * 1e-9;
  const double window_cpu_ns = static_cast<double>(ProcessCpuNs() - cpu_start);
  tracer::SetEnabled(opt.trace);
  for (const Samples& s : worker_samples) samples.Merge(s);

  // Uploads whose freshness is still open get answered after the window.
  for (int attempt = 0; attempt < 100; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(fresh_mu);
      if (pending.empty()) break;
    }
    const HttpResult r = HttpGet(qport, MarginalPath(id, 1), kHttpTimeoutMs);
    uint64_t watermark = 0;
    if (r.ok && r.status == 200 && JsonUint(r.body, "watermark", &watermark)) {
      resolve(NowNs(), watermark);
    }
  }
  if (!pending.empty()) out.Fail("freshness: uploads never served");
  samples.fresh_ns = fresh_ns;

  if (!stack->collector->Flush().ok()) out.Fail("flush failed");
  std::vector<const Upload*> sent;
  std::vector<uint64_t> truth_rows = base->rows[0];
  uint64_t uploaded_reports = 0;
  for (size_t i = 0; i < devices->uploads.size(); ++i) {
    if (!upload_ok[i]) continue;
    sent.push_back(&devices->uploads[i]);
    uploaded_reports += devices->uploads[i].total_reports;
    for (size_t b : devices->uploads[i].blocks[0]) {
      const auto first = devices->rows[0].begin() + b * kDeviceReports;
      truth_rows.insert(truth_rows.end(), first, first + kDeviceReports);
    }
  }
  auto reference = DirectPass(spec, sent, &base_path, true);
  if (!reference.ok()) {
    out.Fail("direct pass: " + reference.status().message());
    std::remove(base_path.c_str());
    return out;
  }
  const Reference& ref = *reference;
  const std::vector<uint64_t> expected = {base->encoded_reports +
                                          uploaded_reports};
  if (ref.reports != expected) out.Fail("count gate: direct pass lost reports");
  CheckCounts(*stack->collector, spec, expected, {base->encoded_reports},
              out);
  CheckRaw(*stack->collector, spec, ref, out);
  Samples sweep;  // gate GETs are not part of the open-loop latencies
  const auto served = SweepServed(qport, spec, ref, sweep, out);
  const double tv = AccuracyGate(spec, ref, served, {&truth_rows}, out);
  RegistryTotals registry;
  registry.Add(*stack->collector->metrics());
  stack.reset();
  std::remove(base_path.c_str());

  EndToEnd(out, samples, static_cast<double>(uploaded_reports) / window_s,
           window_cpu_ns / static_cast<double>(std::max<uint64_t>(
                               uploaded_reports, 1)),
           uploaded_reports, tv, 1);

  if (opt.trace && out.correct) {
    std::vector<double> direct_ingest_ns = {ref.ingest_ns};
    std::vector<double> direct_flush_ns = {ref.flush_ns};
    // Direct-pass timings over the device uploads alone (no restore).
    for (int i = 0; i < 3; ++i) {
      auto again = DirectPass(spec, sent, nullptr, false);
      if (!again.ok()) {
        out.Fail("direct pass: " + again.status().message());
        return out;
      }
      direct_ingest_ns.push_back(again->ingest_ns);
      direct_flush_ns.push_back(again->flush_ns);
    }
    AbsorbProbe(spec, sent, out);
    StateProbes(spec, ref, probe_path, samples, out);
    const double overhead =
        samples.query_untraced_ns.empty() || samples.query_traced_ns.empty()
            ? 0.0
            : Median(samples.query_traced_ns) /
                      Median(samples.query_untraced_ns) -
                  1.0;
    // Pool-building rate covers both pools.
    Pool both;
    both.encoded_reports = base->encoded_reports + devices->encoded_reports;
    both.encode_seconds = base->encode_seconds + devices->encode_seconds;
    PerLayer(out, both, direct_ingest_ns, direct_flush_ns,
             uploaded_reports, samples, registry, overhead);
  }
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "ingest_mux" || name == "ingest_bitmap" ||
         name == "serve_mixed";
}

Outcome RunWorkload(const RunOptions& options) {
  if (options.workload == "ingest_mux") {
    return RunIngest(MuxWorkload(), options);
  }
  if (options.workload == "ingest_bitmap") {
    return RunIngest(BitmapWorkload(), options);
  }
  return RunServe(options);
}

}  // namespace perfbench
