// Shared HTTP plumbing for the admin/read endpoints.
//
// net::StatsServer and net::QueryServer are both tiny GET-only HTTP
// services whose traffic is rare and small next to ingest: one request
// per connection, served serially on a single accept thread, close after
// the response. HttpServer is that plumbing factored out once — socket
// accept loop, request-head collection with byte caps and an idle
// timeout, request-line parsing, and response rendering — so the
// endpoints above it are pure `HttpRequest -> HttpResponse` functions.
//
// Protocol surface (deliberately minimal, byte-precise, and tested in
// tests/net/http_server_test.cc):
//
//   * GET only: any other method is answered `405 Method Not Allowed`
//     before the handler runs.
//   * The request head is read until CRLFCRLF (or LFLF); bodies are never
//     read. A head that exceeds max_request_bytes without terminating is
//     answered `400 Bad Request` ("request too large"); one that does not
//     parse as a request line is answered `400` ("malformed request").
//   * The query string is split off the path; HttpRequest::Param
//     percent-decodes `%XX` in names and values ('+' stays literal). A
//     query holding a malformed escape (`%`, `%4`, `%zz`) is answered
//     `400` naming the byte offset of its '%' before the handler runs.
//   * With a positive idle_timeout, a connection that goes silent
//     mid-head for longer than the timeout is answered
//     `408 Request Timeout` and closed — the slowloris defense.
//   * No keep-alive: every response carries `Connection: close` and the
//     server closes after writing it. A pipelined second request on the
//     same connection is ignored by design.

#ifndef LDPM_NET_HTTP_SERVER_H_
#define LDPM_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "core/status.h"
#include "core/sync.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

struct HttpServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Cap on request-head bytes read before answering; a client that
  /// streams an oversized head is answered 400 and closed.
  size_t max_request_bytes = 8 * 1024;
  /// Per-read deadline while collecting the request head: a connection
  /// silent longer than this mid-request is answered 408 and closed
  /// (slowloris defense). <= 0 disables the deadline — reads then block
  /// until bytes, EOF, or Stop().
  std::chrono::milliseconds idle_timeout{0};
  /// Optional counter incremented once per answered request, any status
  /// (must outlive the server). The endpoint's only request count:
  /// StatsServer::Start sets it to ldpm_stats_requests_total and
  /// QueryServer::Start to ldpm_query_http_requests_total, replacing any
  /// value the caller passed.
  obs::Counter* requests_counter = nullptr;
};

/// One parsed GET request as handed to the handler.
struct HttpRequest {
  std::string method;
  /// Path with any query string removed ("/v1/marginal").
  std::string path;
  /// Raw query string after '?', possibly empty ("collection=x&attrs=0,2").
  std::string query;

  /// Value of `key` in the query string ("k=v" pairs joined by '&'),
  /// percent-decoded; `key` is matched against the decoded names. nullopt
  /// when absent. A bare "k" (no '=') yields an empty value. The first
  /// occurrence wins. A malformed escape (only reachable on a request the
  /// server did not parse) is kept as its literal bytes.
  std::optional<std::string> Param(std::string_view key) const;
};

/// Decodes every `%XX` escape (hex digits in either case) of one query
/// component; every other byte, '+' included, is literal. nullopt on a
/// malformed escape — a '%' not followed by two hex digits — with
/// `*bad_offset` (if given) set to the offset of that '%' in `text`.
std::optional<std::string> PercentDecode(std::string_view text,
                                         size_t* bad_offset = nullptr);

/// What a handler returns; rendered with Content-Length and
/// `Connection: close`.
struct HttpResponse {
  int code = 200;
  std::string content_type = "text/plain";
  std::string body;
};

/// Parses a collected request head ("METHOD SP TARGET SP VERSION..."),
/// splitting the query string off the path, into `out`. InvalidArgument
/// on anything that does not parse as a request line with a non-empty
/// path ("malformed request"), or whose query holds a malformed percent
/// escape (the message names the query byte offset) — the server answers
/// 400 with that message without consulting the handler. Accepts any
/// method token (the GET-only policy is enforced separately, as 405).
/// Pure and total over arbitrary bytes: this is the request-parsing seam
/// the fuzz_http_request harness drives.
Status ParseHttpRequestHead(std::string_view head, HttpRequest* out);

/// The standard reason phrase for the codes this layer emits; "Status"
/// for anything unrecognized (the response stays well-formed).
std::string_view HttpReasonPhrase(int code);

/// Renders a full HTTP/1.1 response (status line, Content-Type,
/// Content-Length, Connection: close, body).
std::string RenderHttpResponse(const HttpResponse& response);

/// Routes one parsed request. Runs on the serve thread; must not block
/// indefinitely (the next request waits behind it).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The shared one-request-per-connection GET server (see file comment).
class HttpServer {
 public:
  /// Binds, listens, and starts the serving thread. Anything the handler
  /// captures must outlive the returned server.
  static StatusOr<std::unique_ptr<HttpServer>> Start(
      HttpHandler handler, const HttpServerOptions& options = HttpServerOptions());

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, wakes any in-flight request read, joins the serving
  /// thread. Idempotent.
  void Stop() LDPM_EXCLUDES(stop_mu_, active_mu_);

 private:
  HttpServer(HttpHandler handler, const HttpServerOptions& options);

  void ServeLoop();
  void ServeOne(Socket socket);

  const HttpHandler handler_;
  const HttpServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread serve_thread_;
  std::atomic<bool> stopping_{false};

  /// The connection currently being served, so Stop() can wake a serve
  /// blocked mid-read on a stalled client.
  core::Mutex active_mu_;
  Socket* active_ LDPM_GUARDED_BY(active_mu_) = nullptr;

  /// Serializes Stop(): deliberately held across the serve-thread join so
  /// a second caller returns only once the first stop completed.
  core::Mutex stop_mu_;
  bool stopped_ LDPM_GUARDED_BY(stop_mu_) = false;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_HTTP_SERVER_H_
