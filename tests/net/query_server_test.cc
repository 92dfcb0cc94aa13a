// The HTTP face of the query-serving plane: route dispatch, the
// byte-precise 4xx surface of /v1/marginal and /v1/model, and —
// centrally — that the JSON cells served over the wire are the *exact*
// IEEE doubles the library-level MarginalCache computes (the %.17g
// rendering round-trips, so string equality against a locally formatted
// expectation is a bitwise check).

#include "net/query_server.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/consistency.h"
#include "core/marginal.h"
#include "engine/collector.h"
#include "net/http_common.h"
#include "protocols/test_util.h"
#include "query/marginal_cache.h"

namespace ldpm {
namespace net {
namespace {

using test::HttpGet;
using test::MakeConfig;
using test::ResponseBody;
using test::SkewedRows;

std::string Format17g(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::CollectorOptions options;
    options.engine_defaults.num_shards = 2;
    auto collector = engine::Collector::Create(options);
    ASSERT_TRUE(collector.ok());
    collector_ = *std::move(collector);
    auto handle = collector_->Register("c", ProtocolKind::kInpHT,
                                       MakeConfig(4, 2));
    ASSERT_TRUE(handle.ok());
    handle_ = *std::move(handle);
    ASSERT_TRUE(handle_
                    .IngestPopulation(SkewedRows(4, 4000, 17),
                                      /*fast_path=*/false)
                    .ok());
    ASSERT_TRUE(handle_.Flush().ok());
    auto server = QueryServer::Start(collector_.get());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
  }

  std::string Get(const std::string& path) {
    return HttpGet(server_->port(), path);
  }

  std::unique_ptr<engine::Collector> collector_;
  engine::CollectionHandle handle_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(QueryServerTest, HealthzAndUnknownPath) {
  EXPECT_EQ(ResponseBody(Get("/healthz")), "ok\n");
  const std::string response = Get("/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(ResponseBody(response),
            "unknown path; try /v1/marginal, /v1/model, /v1/collections, or "
            "/healthz\n");
}

TEST_F(QueryServerTest, MarginalCellsAreBitwiseTheLibraryAnswer) {
  // The ground truth the server must serve: direct pipeline at the same
  // watermark (the reproducibility contract pins this bitwise).
  std::vector<MarginalTable> raw;
  const std::vector<uint64_t> selectors = FullKWaySelectors(4, 2);
  for (uint64_t beta : selectors) {
    auto table = collector_->Query("c", beta);
    ASSERT_TRUE(table.ok());
    raw.push_back(*std::move(table));
  }
  auto consistent = MakeConsistent(raw, 4);
  ASSERT_TRUE(consistent.ok());
  const MarginalTable* expected = nullptr;
  for (size_t i = 0; i < selectors.size(); ++i) {
    if (selectors[i] == 0b0101) expected = &(*consistent)[i];
  }
  ASSERT_NE(expected, nullptr);

  const std::string response = Get("/v1/marginal?collection=c&attrs=0,2");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  const std::string body = ResponseBody(response);
  EXPECT_NE(body.find("\"collection\":\"c\""), std::string::npos);
  EXPECT_NE(body.find("\"protocol\":\"InpHT\""), std::string::npos);
  EXPECT_NE(body.find("\"d\":4"), std::string::npos);
  EXPECT_NE(body.find("\"stale\":false"), std::string::npos);
  EXPECT_NE(body.find("\"attrs\":[0,2]"), std::string::npos);
  EXPECT_NE(body.find("\"beta\":5"), std::string::npos);
  EXPECT_NE(body.find("\"order\":2"), std::string::npos);
  EXPECT_NE(body.find("\"epoch\":1"), std::string::npos);
  std::string cells = "\"cells\":[";
  for (uint64_t i = 0; i < expected->size(); ++i) {
    if (i != 0) cells += ",";
    cells += Format17g(expected->at_compact(i));
  }
  cells += "]";
  EXPECT_NE(body.find(cells), std::string::npos)
      << "served cells are not bitwise the library answer: " << body;
}

TEST_F(QueryServerTest, WatermarkAndEpochAdvanceOverHttp) {
  const std::string first = ResponseBody(Get("/v1/marginal?collection=c&attrs=0"));
  EXPECT_NE(first.find("\"epoch\":1"), std::string::npos);
  // Same watermark: the cache hit keeps the epoch.
  const std::string second =
      ResponseBody(Get("/v1/marginal?collection=c&attrs=0,1"));
  EXPECT_NE(second.find("\"epoch\":1"), std::string::npos);
  // New ingest moves the watermark; the next request sees epoch 2.
  ASSERT_TRUE(
      handle_.IngestPopulation(SkewedRows(4, 500, 18), /*fast_path=*/false)
          .ok());
  ASSERT_TRUE(handle_.Flush().ok());
  const std::string third =
      ResponseBody(Get("/v1/marginal?collection=c&attrs=0"));
  EXPECT_NE(third.find("\"epoch\":2"), std::string::npos);
}

TEST_F(QueryServerTest, MarginalBadRequestSurfaceIsBytePrecise) {
  struct Case {
    const char* path;
    const char* status;
    const char* body;
  };
  const Case cases[] = {
      {"/v1/marginal", "HTTP/1.1 400",
       "missing required parameter: collection\n"},
      {"/v1/marginal?collection=", "HTTP/1.1 400",
       "missing required parameter: collection\n"},
      {"/v1/marginal?collection=ghost&attrs=0", "HTTP/1.1 404",
       "unknown collection: ghost\n"},
      {"/v1/marginal?collection=c", "HTTP/1.1 400",
       "missing required parameter: attrs\n"},
      {"/v1/marginal?collection=c&attrs=", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids\n"},
      {"/v1/marginal?collection=c&attrs=0,x", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"x\"\n"},
      {"/v1/marginal?collection=c&attrs=0,,2", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"\"\n"},
      {"/v1/marginal?collection=c&attrs=-1", "HTTP/1.1 400",
       "attrs: expected comma-separated attribute ids, got \"-1\"\n"},
      {"/v1/marginal?collection=c&attrs=9", "HTTP/1.1 400",
       "attrs: attribute 9 out of range [0, 4)\n"},
      {"/v1/marginal?collection=c&attrs=99999999999", "HTTP/1.1 400",
       "attrs: attribute 99999999999 out of range [0, 4)\n"},
      {"/v1/marginal?collection=c&attrs=1,1", "HTTP/1.1 400",
       "attrs: duplicate attribute 1\n"},
      {"/v1/marginal?collection=c&attrs=0,1,2", "HTTP/1.1 400",
       "attrs: order 3 exceeds cached maximum 2\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.path);
    const std::string response = Get(c.path);
    EXPECT_NE(response.find(c.status), std::string::npos) << response;
    EXPECT_EQ(ResponseBody(response), c.body);
  }
}

TEST_F(QueryServerTest, ModelEndpointServesTreeAndCpts) {
  const std::string response = Get("/v1/model?collection=c");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string body = ResponseBody(response);
  EXPECT_NE(body.find("\"collection\":\"c\""), std::string::npos);
  EXPECT_NE(body.find("\"d\":4"), std::string::npos);
  EXPECT_NE(body.find("\"total_mutual_information\":"), std::string::npos);
  // d-1 edges, d CPT entries, exactly one root (parent -1 with "p1").
  size_t edges = 0;
  for (size_t pos = 0; (pos = body.find("\"mutual_information\":", pos)) !=
                       std::string::npos;
       ++pos) {
    ++edges;
  }
  EXPECT_EQ(edges, 3u);
  size_t cpts = 0;
  for (size_t pos = 0;
       (pos = body.find("\"attribute\":", pos)) != std::string::npos; ++pos) {
    ++cpts;
  }
  EXPECT_EQ(cpts, 4u);
  EXPECT_NE(body.find("\"parent\":-1,\"p1\":"), std::string::npos);
  size_t conditionals = 0;
  for (size_t pos = 0; (pos = body.find("\"p1_given_parent\":[", pos)) !=
                       std::string::npos;
       ++pos) {
    ++conditionals;
  }
  EXPECT_EQ(conditionals, 3u);
}

TEST_F(QueryServerTest, ModelBadRequestSurface) {
  EXPECT_EQ(ResponseBody(Get("/v1/model")),
            "missing required parameter: collection\n");
  const std::string response = Get("/v1/model?collection=ghost");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(ResponseBody(response), "unknown collection: ghost\n");
}

TEST_F(QueryServerTest, CollectionsEndpointListsRegistrations) {
  ASSERT_TRUE(
      collector_->Register("d2", ProtocolKind::kMargPS, MakeConfig(3, 1))
          .ok());
  const std::string body = ResponseBody(Get("/v1/collections"));
  EXPECT_NE(body.find("{\"id\":\"c\",\"protocol\":\"InpHT\",\"d\":4,\"k\":2}"),
            std::string::npos);
  EXPECT_NE(
      body.find("{\"id\":\"d2\",\"protocol\":\"MargPS\",\"d\":3,\"k\":1}"),
      std::string::npos);
}

TEST_F(QueryServerTest, ControlBytesInCollectionIdsAreJsonEscaped) {
  // Register accepts any 1..N-byte id; every JSON echo of it must escape
  // control bytes (RFC 8259 §7) or the body stops being JSON.
  const std::string id = "a\tb\x01";
  auto handle = collector_->Register(id, ProtocolKind::kInpHT,
                                     MakeConfig(3, 1));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->IngestPopulation(SkewedRows(3, 500, 5),
                                       /*fast_path=*/false)
                  .ok());
  ASSERT_TRUE(handle->Flush().ok());
  const std::string escaped = "\"a\\tb\\u0001\"";

  const std::string collections = ResponseBody(Get("/v1/collections"));
  EXPECT_NE(collections.find("{\"id\":" + escaped + ",\"protocol\":"),
            std::string::npos)
      << collections;
  EXPECT_EQ(collections.find_first_of("\t\x01"), std::string::npos);

  // A conforming client percent-encodes the control bytes.
  const std::string marginal =
      Get("/v1/marginal?collection=a%09b%01&attrs=0");
  EXPECT_NE(marginal.find("HTTP/1.1 200 OK"), std::string::npos) << marginal;
  const std::string body = ResponseBody(marginal);
  EXPECT_EQ(body.rfind("{\"collection\":" + escaped + ",", 0), 0u) << body;
  EXPECT_EQ(body.find_first_of("\t\x01"), std::string::npos);
}

TEST_F(QueryServerTest, NonBinaryCategoricalCollectionIs400WithReadPathHint) {
  ProtocolConfig config = MakeConfig(2, 1);
  config.cardinalities = {3, 2};
  ASSERT_TRUE(
      collector_->Register("cat", ProtocolKind::kInpES, config).ok());
  const std::string response = Get("/v1/marginal?collection=cat&attrs=0");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(ResponseBody(response).find("non-binary categorical domain"),
            std::string::npos);
}

TEST_F(QueryServerTest, HttpRequestCounterCountsAllStatuses) {
  Get("/healthz");
  Get("/nope");
  Get("/v1/marginal?collection=c&attrs=0");
  EXPECT_EQ(collector_->metrics()->CounterValue("ldpm_query_http_requests_total"),
            3u);
}

}  // namespace
}  // namespace net
}  // namespace ldpm
