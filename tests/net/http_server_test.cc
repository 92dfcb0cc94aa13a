// The shared HTTP plumbing under StatsServer and QueryServer, probed at
// the byte level through raw sockets (tests/net/http_common.h): routing
// and Param parsing, the three adversarial-client defenses (oversized
// head, slowloris stall, pipelined second request), and the 4xx/405
// surface.

#include "net/http_server.h"

#include <string>

#include <gtest/gtest.h>

#include "net/http_common.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {
namespace {

using test::HttpGet;
using test::HttpRequest;
using test::ResponseBody;

/// Handler that echoes the parsed request so tests can assert on what
/// the plumbing delivered.
HttpResponse Echo(const ldpm::net::HttpRequest& request) {
  std::string body = "method=" + request.method + ";path=" + request.path +
                     ";query=" + request.query;
  const auto a = request.Param("a");
  body += ";a=" + (a.has_value() ? *a : std::string("<absent>"));
  const auto flag = request.Param("flag");
  body += ";flag=" + (flag.has_value() ? *flag : std::string("<absent>"));
  return {200, "text/plain", body + "\n"};
}

constexpr char kRequests[] = "test_http_requests_total";

/// Options wiring the server's request count into `metrics` as kRequests
/// (the registry counter is the server's only request count).
HttpServerOptions CountedInto(obs::MetricsRegistry& metrics) {
  HttpServerOptions options;
  options.requests_counter = metrics.GetCounter(kRequests, "test");
  return options;
}

std::unique_ptr<HttpServer> StartEcho(
    HttpServerOptions options = HttpServerOptions()) {
  auto server = HttpServer::Start(Echo, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return *std::move(server);
}

TEST(HttpServer, ParsesPathQueryAndParams) {
  obs::MetricsRegistry metrics;
  auto server = StartEcho(CountedInto(metrics));
  const std::string response =
      HttpGet(server->port(), "/x/y?a=1&flag&b=2&a=shadowed");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(ResponseBody(response),
            "method=GET;path=/x/y;query=a=1&flag&b=2&a=shadowed;a=1;flag=\n");
  EXPECT_EQ(metrics.CounterValue(kRequests), 1u);
}

TEST(HttpServer, NoQueryStringMeansNoParams) {
  auto server = StartEcho();
  EXPECT_EQ(ResponseBody(HttpGet(server->port(), "/plain")),
            "method=GET;path=/plain;query=;a=<absent>;flag=<absent>\n");
}

TEST(HttpServer, ParamNamesAndValuesArePercentDecoded) {
  auto server = StartEcho();
  // An escaped '&' or '=' does not split; '+' stays literal; the raw query
  // and the path keep their escapes.
  EXPECT_EQ(ResponseBody(HttpGet(server->port(),
                                 "/p%41?a=x%20y%26z%3D%25%09+1&fl%61g=%4a%4B")),
            "method=GET;path=/p%41;query=a=x%20y%26z%3D%25%09+1&fl%61g=%4a%4B"
            ";a=x y&z=%\t+1;flag=JK\n");
}

TEST(HttpServer, MalformedPercentEscapeIs400AtItsQueryByte) {
  obs::MetricsRegistry metrics;
  auto server = StartEcho(CountedInto(metrics));
  const struct {
    const char* target;
    const char* body;
  } cases[] = {
      {"/p?a=%", "malformed percent-escape at query byte 2\n"},
      {"/p?a=%4", "malformed percent-escape at query byte 2\n"},
      {"/p?a=1&b=%zz", "malformed percent-escape at query byte 6\n"},
      {"/p?%g1=1&a=%41", "malformed percent-escape at query byte 0\n"},
  };
  for (const auto& c : cases) {
    const std::string response = HttpGet(server->port(), c.target);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << c.target;
    EXPECT_EQ(ResponseBody(response), c.body) << c.target;
  }
  EXPECT_EQ(metrics.CounterValue(kRequests), 4u);
}

TEST(HttpServer, ParamKeepsAMalformedEscapeLiteral) {
  // The server rejects such queries before a handler runs; called
  // directly, Param stays total and matches the raw bytes.
  ldpm::net::HttpRequest request;
  request.query = "a=%zz&b%=1";
  EXPECT_EQ(request.Param("a"), "%zz");
  EXPECT_EQ(request.Param("b%"), "1");
  EXPECT_EQ(PercentDecode("%zz"), std::nullopt);
  EXPECT_EQ(PercentDecode("%2a%2A"), "**");
}

TEST(HttpServer, NonGetMethodIs405BeforeTheHandlerRuns) {
  obs::MetricsRegistry metrics;
  auto server = StartEcho(CountedInto(metrics));
  const std::string response = HttpRequest(
      server->port(), "POST /x HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "only GET is supported\n");
  // Still counted: the request counter is the operational total, any
  // status.
  EXPECT_EQ(metrics.CounterValue(kRequests), 1u);
}

TEST(HttpServer, GarbageRequestLineIs400Malformed) {
  auto server = StartEcho();
  // No spaces: a line with spaces parses as a (non-GET) request line and
  // is answered 405 instead.
  const std::string response =
      HttpRequest(server->port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "malformed request\n");
}

TEST(HttpServer, EarlyEofIs400Malformed) {
  auto server = StartEcho();
  // Close without ever finishing the head.
  const std::string response = HttpRequest(server->port(), "GET /x HT");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "malformed request\n");
}

TEST(HttpServer, RequestHeadLargerThanBufferIs400RequestTooLarge) {
  HttpServerOptions options;
  options.max_request_bytes = 256;
  auto server = StartEcho(options);
  const std::string response = HttpRequest(
      server->port(),
      "GET /" + std::string(1024, 'x') + " HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "request too large\n");
}

TEST(HttpServer, SlowlorisStallMidHeadIs408UnderIdleTimeout) {
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = StartEcho(options);
  auto socket = Socket::Connect(test::kHttpLoopback, server->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  // Send a partial head, then go silent — never the CRLFCRLF terminator.
  const std::string partial = "GET /slow HTTP/1.1\r\nHost: x\r\n";
  ASSERT_TRUE(socket
                  ->WriteAll(reinterpret_cast<const uint8_t*>(partial.data()),
                             partial.size())
                  .ok());
  const std::string response = test::ReadToEof(*socket);
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "request timed out\n");
}

TEST(HttpServer, PipelinedSecondRequestIsIgnored) {
  obs::MetricsRegistry metrics;
  auto server = StartEcho(CountedInto(metrics));
  // Two complete requests in one write: the server answers the first and
  // closes (Connection: close, no keep-alive) — exactly one status line.
  const std::string response = HttpRequest(
      server->port(),
      "GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: x\r\n\r\n");
  size_t count = 0;
  for (size_t pos = 0;
       (pos = response.find("HTTP/1.1 ", pos)) != std::string::npos;
       pos += 9) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_NE(ResponseBody(response).find("path=/first"), std::string::npos);
  EXPECT_EQ(response.find("/second"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(metrics.CounterValue(kRequests), 1u);
}

TEST(HttpServer, RequestsCounterTracksAnsweredRequestsAnyStatus) {
  obs::MetricsRegistry metrics;
  auto server = StartEcho(CountedInto(metrics));
  HttpGet(server->port(), "/ok");
  HttpRequest(server->port(), "PUT /x HTTP/1.1\r\n\r\n");  // 405, still counted
  EXPECT_EQ(metrics.CounterValue(kRequests), 2u);
}

TEST(HttpServer, StopIsIdempotentAndServerRestartsCleanly) {
  auto server = StartEcho();
  const uint16_t port = server->port();
  EXPECT_GT(port, 0);
  server->Stop();
  server->Stop();
  // The port is free again for the next server.
  HttpServerOptions options;
  options.port = port;
  auto second = HttpServer::Start(Echo, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ResponseBody(HttpGet(port, "/again")),
            "method=GET;path=/again;query=;a=<absent>;flag=<absent>\n");
}

}  // namespace
}  // namespace net
}  // namespace ldpm
