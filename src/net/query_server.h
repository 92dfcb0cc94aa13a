// The read-side HTTP endpoint: consistent marginals and the fitted tree
// model, served from query::MarginalCache snapshots.
//
// A thin routing layer over net::HttpServer (shared with StatsServer),
// answering:
//
//   GET /v1/marginal?collection=<id>&attrs=<i,j,...>
//       -> 200 application/json: the consistency-post-processed marginal
//          over the named attributes, with the snapshot's watermark and
//          epoch. Cells are compact-index order (cell index c packs the
//          selected attributes, lowest attribute = bit 0), rendered with
//          17 significant digits so the JSON round-trips the doubles.
//   GET /v1/model?collection=<id>
//       -> 200 application/json: the Chow-Liu tree fitted over the
//          collection's cached 2-way marginals — edges with mutual
//          information, total MI, and every node's CPT.
//   GET /v1/collections
//       -> 200 application/json: the registered collections and their
//          cache parameters.
//   GET /healthz -> 200 "ok".
//
// Error surface is byte-precise and tested (tests/net/query_server_test):
// missing/malformed parameters are 400 with a body naming the parameter
// and the offending token; an unknown collection or path is 404; non-GET
// is 405 (from the shared plumbing).
//
// One MarginalCache per collection, created lazily on first touch, so
// collections registered after Start() are served too. Reads that hit a
// live snapshot never merge shards or take the refresh lock — the
// endpoint's throughput is the cache-hit rate (bench/query_serve.cc).
//
// The collector must outlive the server.

#ifndef LDPM_NET_QUERY_SERVER_H_
#define LDPM_NET_QUERY_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/status.h"
#include "core/sync.h"
#include "engine/collector.h"
#include "net/http_server.h"
#include "query/marginal_cache.h"

namespace ldpm {
namespace net {

/// The query endpoint (see the file comment). Start() binds and serves
/// until Stop()/destruction.
class QueryServer {
 public:
  /// Binds, listens, and starts the serving thread. The collector must
  /// outlive the returned server; options.requests_counter is replaced by
  /// the collector registry's ldpm_query_http_requests_total. Every
  /// collection's cache uses the default MarginalCacheOptions.
  static StatusOr<std::unique_ptr<QueryServer>> Start(
      engine::Collector* collector, const HttpServerOptions& options = {});

  ~QueryServer() = default;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return http_->port(); }

  /// Stops accepting, wakes any in-flight request read, joins. Idempotent.
  void Stop() { http_->Stop(); }

  /// The collection's cache (created now if this is its first touch) —
  /// the library-side view of exactly what HTTP answers serve, for
  /// smoke tests that diff the two.
  StatusOr<query::MarginalCache*> CacheFor(const std::string& collection);

 private:
  explicit QueryServer(engine::Collector* collector) : collector_(collector) {}

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleMarginal(const HttpRequest& request);
  HttpResponse HandleModel(const HttpRequest& request);
  HttpResponse HandleCollections();

  engine::Collector* const collector_;

  core::Mutex caches_mu_;
  std::map<std::string, std::unique_ptr<query::MarginalCache>> caches_
      LDPM_GUARDED_BY(caches_mu_);

  std::unique_ptr<HttpServer> http_;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_QUERY_SERVER_H_
