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

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"
#include "net/http_server.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

struct StatsServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Kernel accept backlog (scrapers queue here while a request is
  /// served; each request is a single exposition render).
  int accept_backlog = 16;
  /// Cap on request bytes read before answering; a client that streams
  /// an oversized request is answered 400 and closed.
  size_t max_request_bytes = 8 * 1024;
  /// Idle deadline while reading a request: a scraper silent longer than
  /// this mid-request is answered 408 and closed instead of pinning the
  /// serve thread (slowloris defense). <= 0 disables.
  std::chrono::milliseconds idle_timeout{0};
};

/// The admin endpoint (see the file comment). Start() binds and serves
/// until Stop()/destruction.
class StatsServer {
 public:
  /// Binds, listens, and starts the serving thread. The registry must
  /// outlive the returned server.
  static StatusOr<std::unique_ptr<StatsServer>> Start(
      obs::MetricsRegistry* registry,
      const StatsServerOptions& options = StatsServerOptions());

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
