// Minimal HTTP admin endpoint serving live metrics.
//
// A thin routing layer over net::HttpServer (the shared one-request-per-
// connection GET plumbing), answering:
//
//   GET /stats    -> 200 text/plain: the registry's Prometheus text
//   GET /metrics     exposition (the conventional scrape alias)
//   GET /healthz  -> 200 "ok" (liveness probe)
//   anything else -> 404 (non-GET methods -> 405)
//
// Scrapes are rare and tiny next to ingest traffic, so one serial request
// per connection is plenty. Every read the exposition performs is a
// relaxed atomic load — scraping never blocks a shard worker or a
// connection reader.
//
// The registry must outlive the server. server_demo wires one next to a
// net::IngestServer; the bench/CI smoke scrapes it and reconciles the
// counters against client-side totals.

#ifndef LDPM_NET_STATS_SERVER_H_
#define LDPM_NET_STATS_SERVER_H_

#include <cstdint>
#include <memory>

#include "core/status.h"
#include "net/http_server.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

/// The admin endpoint (see the file comment). Start() binds and serves
/// until Stop()/destruction.
class StatsServer {
 public:
  /// Binds, listens, and starts the serving thread. The registry must
  /// outlive the returned server; options.requests_counter is replaced by
  /// the registry's ldpm_stats_requests_total.
  static StatusOr<std::unique_ptr<StatsServer>> Start(
      obs::MetricsRegistry* registry, const HttpServerOptions& options = {});

  ~StatsServer() = default;

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return http_->port(); }

  /// Stops accepting, wakes any in-flight request read, joins the serving
  /// thread. Idempotent.
  void Stop() { http_->Stop(); }

 private:
  explicit StatsServer(std::unique_ptr<HttpServer> http)
      : http_(std::move(http)) {}

  std::unique_ptr<HttpServer> http_;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_STATS_SERVER_H_
