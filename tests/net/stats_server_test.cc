// Tests for the /stats admin endpoint: HTTP surface (status codes,
// content type, the Prometheus payload) over a raw socket (shared
// helpers in tests/net/http_common.h), stop behavior,
// and THE observability acceptance test — a live IngestServer pipeline
// whose /stats scrape reconciles exactly with the client-side reply
// totals and the collector's absorbed-report count.

#include "net/stats_server.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/collector.h"
#include "net/frame_client.h"
#include "net/http_common.h"
#include "net/ingest_server.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using net::FrameClient;
using net::IngestServer;
using net::IngestServerOptions;
using net::Socket;
using net::StatsServer;
using test::HttpGet;
using test::HttpRequest;
using test::MakeConfig;
using test::SeriesValue;

std::unique_ptr<StatsServer> MustStart(obs::MetricsRegistry* registry) {
  auto server = StatsServer::Start(registry);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return *std::move(server);
}

TEST(StatsServer, RejectsNullRegistry) {
  EXPECT_FALSE(StatsServer::Start(nullptr).ok());
}

TEST(StatsServer, HealthzAnswersOk) {
  obs::MetricsRegistry registry;
  auto server = MustStart(&registry);
  const std::string response = HttpGet(server->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("ok\n"), std::string::npos);
}

TEST(StatsServer, StatsServesPrometheusText) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ldpm_test_total", "A test counter")->Increment(42);
  registry.GetGauge("ldpm_test_depth")->Set(7);
  auto server = MustStart(&registry);
  for (const char* path : {"/stats", "/metrics", "/stats?pretty=1"}) {
    const std::string response = HttpGet(server->port(), path);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << path;
    EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(response.find("ldpm_test_total 42\n"), std::string::npos);
    EXPECT_NE(response.find("ldpm_test_depth 7\n"), std::string::npos);
  }
  // The endpoint's own request counter registers and counts.
  const std::string response = HttpGet(server->port(), "/stats");
  EXPECT_NE(response.find("ldpm_stats_requests_total"), std::string::npos);
  EXPECT_EQ(registry.CounterValue("ldpm_stats_requests_total"), 4u);
}

TEST(StatsServer, UnknownPathIs404NonGetIs405Malformed400) {
  obs::MetricsRegistry registry;
  auto server = MustStart(&registry);
  EXPECT_NE(HttpGet(server->port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(server->port(), "POST /stats HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(HttpRequest(server->port(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST(StatsServer, StopIsIdempotentAndPortCloses) {
  obs::MetricsRegistry registry;
  auto server = MustStart(&registry);
  const uint16_t port = server->port();
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  server->Stop();
  server->Stop();
  auto probe = Socket::Connect(test::kHttpLoopback, port);
  if (probe.ok()) {
    // A racing connect may still land in the dead backlog; it must at
    // least never be answered.
    uint8_t byte;
    auto n = probe->ReadSome(&byte, 1);
    EXPECT_TRUE(!n.ok() || *n == 0);
  }
}

TEST(StatsServer, ConcurrentScrapesAllAnswered) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ldpm_test_total")->Increment();
  auto server = MustStart(&registry);
  constexpr int kScrapers = 8;
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int i = 0; i < kScrapers; ++i) {
    scrapers.emplace_back([&] {
      const std::string response = HttpGet(server->port(), "/stats");
      if (response.find("ldpm_test_total 1") != std::string::npos) ++ok;
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok.load(), kScrapers);
}

// THE acceptance test: a live ingest pipeline's /stats scrape reconciles
// with what the clients were told and what the collector absorbed.
TEST(StatsServer, LiveIngestPipelineStatsReconcile) {
  constexpr int kClients = 3;
  constexpr int kFramesPerClient = 4;
  constexpr size_t kReportsPerFrame = 50;

  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.max_pending_batches_total = 8;
  auto collector = Collector::Create(options);
  ASSERT_TRUE(collector.ok());
  const ProtocolConfig config = MakeConfig(6, 2);
  ASSERT_TRUE(
      (*collector)->Register("clicks", ProtocolKind::kMargPS, config).ok());

  auto ingest = IngestServer::Start(collector->get());
  ASSERT_TRUE(ingest.ok());
  auto stats_server = StatsServer::Start((*collector)->metrics());
  ASSERT_TRUE(stats_server.ok()) << stats_server.status().ToString();

  // Build one frame set, stream it from kClients concurrent clients.
  auto encoder = CreateProtocol(ProtocolKind::kMargPS, config);
  ASSERT_TRUE(encoder.ok());
  Rng rng(99);
  std::vector<uint8_t> stream;
  for (int i = 0; i < kFramesPerClient; ++i) {
    std::vector<Report> reports;
    for (size_t r = 0; r < kReportsPerFrame; ++r) {
      reports.push_back((*encoder)->Encode(rng() & 0x3F, rng));
    }
    auto frame = SerializeReportBatch(ProtocolKind::kMargPS, config, reports);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(AppendCollectionFrame("clicks", *frame, stream).ok());
  }
  std::atomic<uint64_t> reply_frames{0};
  std::atomic<uint64_t> reply_bytes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client = FrameClient::Connect(test::kHttpLoopback, (*ingest)->port());
      if (!client.ok() || !client->SendBytes(stream.data(), stream.size()).ok()) {
        ++failures;
        return;
      }
      auto reply = client->Finish();
      if (!reply.ok() || !reply->status.ok()) {
        ++failures;
        return;
      }
      reply_frames += reply->frames_routed;
      reply_bytes += reply->bytes_routed;
    });
  }
  for (auto& client : clients) client.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE((*collector)->Flush().ok());

  const std::string body = HttpGet(stats_server->get()->port(), "/stats");
  ASSERT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);

  // Net layer vs what the clients were told.
  EXPECT_EQ(SeriesValue(body, "ldpm_net_frames_routed_total"),
            static_cast<double>(reply_frames.load()));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_bytes_routed_total"),
            static_cast<double>(reply_bytes.load()));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_connections_accepted_total"),
            static_cast<double>(kClients));
  EXPECT_EQ(SeriesValue(body, "ldpm_net_connections_active"), 0.0);
  // Collector routing, labeled by collection.
  EXPECT_EQ(SeriesValue(body,
                        "ldpm_collector_frames_routed_total{"
                        "collection=\"clicks\"}"),
            static_cast<double>(kClients * kFramesPerClient));
  EXPECT_EQ(SeriesValue(body, "ldpm_collector_collections"), 1.0);
  // Engine layer: every report the clients sent was absorbed, and the
  // scrape agrees with the authoritative in-process count.
  const uint64_t expected_reports =
      static_cast<uint64_t>(kClients) * kFramesPerClient * kReportsPerFrame;
  auto absorbed = (*collector)
                      ->Handle("clicks")
                      .value()
                      .ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, expected_reports);
  EXPECT_EQ(SeriesValue(body,
                        "ldpm_engine_reports_absorbed_total{"
                        "collection=\"clicks\"}"),
            static_cast<double>(expected_reports));
  // Latency histograms observed real work.
  EXPECT_GT(SeriesValue(body, "ldpm_net_frame_route_latency_ns_count"), 0.0);
  EXPECT_GT(SeriesValue(
                body,
                "ldpm_engine_absorb_latency_ns_count{collection=\"clicks\"}"),
            0.0);

  ASSERT_TRUE((*ingest)->Stop().ok());
  // The graceful stop's drain duration lands in the histogram.
  const std::string after = HttpGet(stats_server->get()->port(), "/stats");
  EXPECT_GT(SeriesValue(after, "ldpm_net_drain_duration_ns_count"), 0.0);
}

}  // namespace
}  // namespace ldpm
