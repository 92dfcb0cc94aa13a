// Loopback end-to-end tests for the network ingest front-end.
//
// The acceptance invariant: N concurrent clients streaming interleaved
// mixed-kind collection frames into net::IngestServer yield query results
// bitwise-identical to the same bytes fed directly to
// Collector::IngestFrames. Plus the failure surface: preamble rejection,
// unknown collection ids with byte-precise offsets, oversized frames,
// kill-mid-stream partial-frame discard, connection shedding, graceful
// stop with shutdown-checkpoint durability (also against a client that
// never reads its acks), and budget backpressure.

#include "net/ingest_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame_client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using engine::EngineOptions;
using net::FrameClient;
using net::FrameClientOptions;
using net::IngestServer;
using net::IngestServerOptions;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

constexpr char kLoopback[] = "127.0.0.1";

std::string TempPath(const std::string& name) {
  // Process-unique: parallel test invocations must not share files.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

std::unique_ptr<Collector> MustCreate(const CollectorOptions& options = {}) {
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  return *std::move(collector);
}

/// The server's ldpm_net_* counters, read from the registry it publishes
/// into (the collector's, unless the options name another).
uint64_t NetCounter(const Collector& collector, const char* name) {
  return collector.metrics()->CounterValue(name);
}

/// Connections whose stream is still being served.
int64_t ActiveConnections(const Collector& collector) {
  return collector.metrics()->GaugeValue("ldpm_net_connections_active");
}

std::unique_ptr<IngestServer> MustStart(
    Collector* collector, const IngestServerOptions& options = {}) {
  auto server = IngestServer::Start(collector, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return *std::move(server);
}

/// Three mixed-kind collections (InpRR bitmap + MargPS + categorical-bearing
/// InpES) with per-client interleaved frame streams: client c's stream
/// carries every collection's frames round-robin, and all clients together
/// cover the full fixture.
struct NetFixture {
  struct Stream {
    std::string id;
    ProtocolKind kind;
    ProtocolConfig config;
    /// frames[c][i]: frame i of client c's share of this collection.
    std::vector<std::vector<std::vector<uint8_t>>> frames;
    size_t reports_total = 0;
  };
  std::vector<Stream> streams;
  /// client_streams[c]: the byte stream client c sends (interleaved
  /// collection frames, ready for SendBytes / IngestFrames).
  std::vector<std::vector<uint8_t>> client_streams;

  static NetFixture Build(int clients, int frames_per_client,
                          size_t reports_per_frame) {
    NetFixture f;
    f.streams = {
        {"bitmap", ProtocolKind::kInpRR, MakeConfig(5, 2), {}, 0},
        {"hadamard", ProtocolKind::kMargPS, MakeConfig(7, 2), {}, 0},
        {"efron-stein", ProtocolKind::kInpES, MakeConfig(6, 2), {}, 0},
    };
    Rng rng(1234);
    for (auto& stream : f.streams) {
      auto encoder = CreateProtocol(stream.kind, stream.config);
      EXPECT_TRUE(encoder.ok());
      stream.frames.resize(clients);
      const uint64_t mask = (uint64_t{1} << stream.config.d) - 1;
      for (int c = 0; c < clients; ++c) {
        for (int i = 0; i < frames_per_client; ++i) {
          std::vector<Report> reports;
          for (size_t r = 0; r < reports_per_frame; ++r) {
            reports.push_back((*encoder)->Encode(rng() & mask, rng));
          }
          auto frame =
              SerializeReportBatch(stream.kind, stream.config, reports);
          EXPECT_TRUE(frame.ok());
          stream.frames[c].push_back(*std::move(frame));
          stream.reports_total += reports_per_frame;
        }
      }
    }
    f.client_streams.resize(clients);
    for (int c = 0; c < clients; ++c) {
      for (int i = 0; i < frames_per_client; ++i) {
        for (const auto& stream : f.streams) {
          EXPECT_TRUE(AppendCollectionFrame(stream.id, stream.frames[c][i],
                                            f.client_streams[c])
                          .ok());
        }
      }
    }
    return f;
  }

  void RegisterAll(Collector* collector) const {
    for (const auto& stream : streams) {
      ASSERT_TRUE(
          collector->Register(stream.id, stream.kind, stream.config).ok());
    }
  }
};

// THE acceptance test: >= 3 concurrent clients, interleaved mixed-kind
// frames over loopback TCP, bitwise-identical to direct IngestFrames of
// the same bytes.
TEST(IngestServer, ConcurrentClientsMatchDirectIngestFramesBitwise) {
  constexpr int kClients = 4;
  const NetFixture fixture = NetFixture::Build(kClients, 5, 120);

  // Networked collector behind the server, with a real (small) shared
  // budget so the backpressure path runs.
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.max_pending_batches_total = 8;
  auto networked = MustCreate(options);
  fixture.RegisterAll(networked.get());
  auto server = MustStart(networked.get());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = FrameClient::Connect(kLoopback, server->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      // Stream in awkward slices so frames straddle socket reads.
      const std::vector<uint8_t>& stream = fixture.client_streams[c];
      const size_t slice = 1000 + 97 * static_cast<size_t>(c);
      for (size_t begin = 0; begin < stream.size(); begin += slice) {
        const size_t n = std::min(slice, stream.size() - begin);
        if (!client->SendBytes(stream.data() + begin, n).ok()) {
          ++failures;
          return;
        }
      }
      auto reply = client->Finish();
      if (!reply.ok() || !reply->status.ok()) {
        ++failures;
        return;
      }
      const size_t expected_frames =
          fixture.streams.size() * fixture.streams[0].frames[c].size();
      if (reply->frames_routed != expected_frames ||
          reply->bytes_routed != stream.size()) {
        ++failures;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(networked->Flush().ok());

  EXPECT_EQ(NetCounter(*networked, "ldpm_net_connections_accepted_total"),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(NetCounter(*networked, "ldpm_net_frames_routed_total"),
            static_cast<uint64_t>(kClients * 5 * fixture.streams.size()));
  ASSERT_TRUE(server->Stop().ok());

  // Reference collector fed the same bytes directly — different shard
  // count on purpose (merged state is shard-count invariant).
  CollectorOptions direct_options;
  direct_options.engine_defaults.num_shards = 3;
  auto direct = MustCreate(direct_options);
  fixture.RegisterAll(direct.get());
  for (const auto& stream : fixture.client_streams) {
    ASSERT_TRUE(direct->IngestFrames(stream).ok());
  }
  ASSERT_TRUE(direct->Flush().ok());

  for (const auto& stream : fixture.streams) {
    auto networked_handle = networked->Handle(stream.id);
    auto direct_handle = direct->Handle(stream.id);
    ASSERT_TRUE(networked_handle.ok());
    ASSERT_TRUE(direct_handle.ok());
    auto networked_merged = networked_handle->aggregator().Merged();
    auto direct_merged = direct_handle->aggregator().Merged();
    ASSERT_TRUE(networked_merged.ok());
    ASSERT_TRUE(direct_merged.ok());
    EXPECT_EQ((*networked_merged)->reports_absorbed(), stream.reports_total);
    ExpectBitwiseEqualEstimates(**networked_merged, **direct_merged);
  }
}

TEST(IngestServer, KillMidStreamKeepsWholeFramesAndShutdownCheckpointHasThem) {
  // A client dies mid-frame; every whole frame it sent stays ingested and
  // the partial tail is discarded. Then the collector shuts down with
  // checkpoint_on_shutdown (via the server's graceful stop -> Drain) and a
  // restarted collector restores every flushed batch — no tail loss.
  const std::string path = TempPath("ldpm_net_kill.ckpt");
  std::filesystem::remove(path);
  const ProtocolConfig config = MakeConfig(6, 2);
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  auto whole_batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                          EncodeReportStream(**encoder, 64, 9));
  ASSERT_TRUE(whole_batch.ok());
  std::vector<uint8_t> two_frames;
  ASSERT_TRUE(AppendCollectionFrame("clicks", *whole_batch, two_frames).ok());
  ASSERT_TRUE(AppendCollectionFrame("clicks", *whole_batch, two_frames).ok());

  uint64_t absorbed_before_restart = 0;
  {
    CollectorOptions options;
    options.checkpoint_path = path;
    options.checkpoint_on_shutdown = true;
    auto collector = MustCreate(options);
    auto handle = collector->Register("clicks", ProtocolKind::kInpHT, config);
    ASSERT_TRUE(handle.ok());
    auto server = MustStart(collector.get());

    auto client = FrameClient::Connect(kLoopback, server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->SendBytes(two_frames.data(), two_frames.size()).ok());
    // ... then die 10 bytes into a third frame.
    ASSERT_TRUE(client->SendBytes(two_frames.data(), 10).ok());
    client->Abort();

    // The server notices the dead peer and finishes the connection. Wait
    // for routed-then-finished, not just "no active connection" — the
    // connection may still be sitting in the accept backlog, or its
    // reader may not have started (the gauge counts running streams).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((NetCounter(*collector, "ldpm_net_frames_routed_total") < 2 ||
            ActiveConnections(*collector) > 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(NetCounter(*collector, "ldpm_net_connections_accepted_total"),
              1u);
    EXPECT_EQ(NetCounter(*collector, "ldpm_net_frames_routed_total"), 2u);
    EXPECT_EQ(ActiveConnections(*collector), 0);

    // Graceful stop: stop accepting -> drain readers -> Collector::Drain()
    // (which writes the shutdown checkpoint configured above).
    ASSERT_TRUE(server->Stop().ok());
    auto absorbed = handle->ReportsAbsorbed();
    ASSERT_TRUE(absorbed.ok());
    EXPECT_EQ(*absorbed, 128u);  // 2 whole frames; the partial one discarded
    absorbed_before_restart = *absorbed;
  }  // collector destructor: second (idempotent) shutdown checkpoint

  ASSERT_TRUE(std::filesystem::exists(path));
  auto restarted = MustCreate();
  auto handle = restarted->Register("clicks", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(restarted->RestoreFrom(path).ok());
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, absorbed_before_restart);
  std::filesystem::remove(path);
}

TEST(IngestServer, RejectsBadPreambleAndWrongVersion) {
  auto collector = MustCreate();
  auto server = MustStart(collector.get());

  {
    // Raw socket, wrong magic.
    auto socket = net::Socket::Connect(kLoopback, server->port());
    ASSERT_TRUE(socket.ok());
    const uint8_t junk[8] = {'N', 'O', 'T', 'L', 'D', 'P', 'M', 0x01};
    ASSERT_TRUE(socket->WriteAll(junk, sizeof(junk)).ok());
    ASSERT_TRUE(socket->ShutdownWrite().ok());
    uint8_t code = 0xFF;
    ASSERT_TRUE(socket->ReadExact(&code, 1).ok());
    EXPECT_EQ(code, net::kReplyError);
  }
  {
    // Right magic, unsupported version.
    auto socket = net::Socket::Connect(kLoopback, server->port());
    ASSERT_TRUE(socket.ok());
    uint8_t preamble[8];
    std::copy(std::begin(net::kPreamble), std::end(net::kPreamble),
              std::begin(preamble));
    preamble[7] = 0x7F;
    ASSERT_TRUE(socket->WriteAll(preamble, sizeof(preamble)).ok());
    ASSERT_TRUE(socket->ShutdownWrite().ok());
    uint8_t code = 0xFF;
    ASSERT_TRUE(socket->ReadExact(&code, 1).ok());
    EXPECT_EQ(code, net::kReplyError);
  }
  EXPECT_TRUE(server->Stop().ok());
}

TEST(IngestServer, UnknownCollectionIdGetsBytePreciseErrorAndPrefixStays) {
  const ProtocolConfig config = MakeConfig(6, 2);
  auto collector = MustCreate();
  auto handle = collector->Register("known", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  auto server = MustStart(collector.get());

  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  auto batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                    EncodeReportStream(**encoder, 32, 3));
  ASSERT_TRUE(batch.ok());

  auto client = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendFrame("known", *batch).ok());
  std::vector<uint8_t> rogue_frame;
  ASSERT_TRUE(AppendCollectionFrame("rogue", *batch, rogue_frame).ok());
  const uint64_t rogue_offset =
      6 + std::string("known").size() + batch->size();
  // The rogue frame and one more valid frame after it: nothing past the
  // rogue frame may be ingested.
  ASSERT_TRUE(client->SendBytes(rogue_frame.data(), rogue_frame.size()).ok());
  (void)client->SendFrame("known", *batch);  // may race the server's close
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_EQ(reply->stream_offset, rogue_offset);
  EXPECT_NE(reply->status.message().find("unknown collection id \"rogue\""),
            std::string::npos)
      << reply->status.ToString();

  EXPECT_TRUE(server->Stop().ok());
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 32u);  // the frame before the rogue one stayed
}

TEST(IngestServer, OversizedFrameIsRejectedBeforeBuffering) {
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("small", ProtocolKind::kInpHT, MakeConfig(6, 2))
          .ok());
  IngestServerOptions options;
  options.max_frame_bytes = 1024;
  auto server = MustStart(collector.get(), options);

  auto client = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(client.ok());
  // A frame header claiming a 1 MiB payload; the server must reject from
  // the header alone, before any payload arrives.
  std::vector<uint8_t> header;
  header.push_back(5);
  header.push_back(0);
  header.insert(header.end(), {'s', 'm', 'a', 'l', 'l'});
  const uint32_t huge = 1 << 20;
  for (int b = 0; b < 4; ++b) {
    header.push_back(static_cast<uint8_t>(huge >> (8 * b)));
  }
  ASSERT_TRUE(client->SendBytes(header.data(), header.size()).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_NE(reply->status.message().find("max_frame_bytes"),
            std::string::npos)
      << reply->status.ToString();
  EXPECT_TRUE(server->Stop().ok());
}

TEST(IngestServer, OversizedFrameArrivingWholeIsRejectedTheSameWay) {
  // The size cap must hold even when the whole over-cap frame lands in
  // one socket read (no pending-frame window to catch it in): same
  // stream, same rejection, regardless of TCP segmentation.
  const ProtocolConfig config = MakeConfig(6, 2);
  auto collector = MustCreate();
  auto handle = collector->Register("small", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  IngestServerOptions options;
  options.max_frame_bytes = 256;
  auto server = MustStart(collector.get(), options);

  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  // One whole frame over the cap, preceded by a small in-cap frame that
  // must still be ingested.
  auto small_batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                          EncodeReportStream(**encoder, 8, 6));
  auto big_batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                        EncodeReportStream(**encoder, 200, 7));
  ASSERT_TRUE(small_batch.ok());
  ASSERT_TRUE(big_batch.ok());
  ASSERT_GT(big_batch->size(), 256u);
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame("small", *small_batch, stream).ok());
  const size_t big_at = stream.size();
  ASSERT_TRUE(AppendCollectionFrame("small", *big_batch, stream).ok());

  auto client = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendBytes(stream.data(), stream.size()).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_EQ(reply->stream_offset, big_at);
  EXPECT_NE(reply->status.message().find("max_frame_bytes"),
            std::string::npos)
      << reply->status.ToString();
  EXPECT_TRUE(server->Stop().ok());
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 8u);  // the in-cap frame before it stayed
}

TEST(IngestServer, ShedsConnectionsBeyondTheCap) {
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("c", ProtocolKind::kInpHT, MakeConfig(6, 2)).ok());
  IngestServerOptions options;
  options.max_connections = 1;
  auto server = MustStart(collector.get(), options);

  auto first = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(first.ok());
  // Make sure the first connection is established server-side before the
  // second knocks (Connect returns before the accept thread registers it).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ActiveConnections(*collector) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ActiveConnections(*collector), 1);

  // A raw connection (sending nothing): the TCP accept succeeds but the
  // server immediately replies with the connection-limit error and closes.
  auto second = net::Socket::Connect(kLoopback, server->port());
  ASSERT_TRUE(second.ok());
  uint8_t header[11];  // code + u64 offset + u16 message length
  ASSERT_TRUE(second->ReadExact(header, sizeof(header)).ok());
  EXPECT_EQ(header[0], net::kReplyError);
  const size_t message_size = static_cast<size_t>(header[9]) |
                              static_cast<size_t>(header[10]) << 8;
  std::string message(message_size, '\0');
  ASSERT_TRUE(second
                  ->ReadExact(reinterpret_cast<uint8_t*>(message.data()),
                              message_size)
                  .ok());
  EXPECT_NE(message.find("connection limit"), std::string::npos) << message;
  EXPECT_EQ(NetCounter(*collector, "ldpm_net_connections_shed_total"), 1u);

  auto finish = first->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  EXPECT_TRUE(finish->status.ok());
  EXPECT_TRUE(server->Stop().ok());
}

TEST(IngestServer, StopWhileClientsStreamIsGracefulAndLosesNoRoutedFrame) {
  // Clients stream an endless sequence; Stop() lands mid-flight. Every
  // frame the server acked as routed must be absorbed, the readers must
  // all exit (no hang), and Stop must return the Drain status.
  const ProtocolConfig config = MakeConfig(6, 2);
  CollectorOptions options;
  options.engine_defaults.num_shards = 2;
  options.max_pending_batches_total = 4;  // small budget: stop-aware waits
  auto collector = MustCreate(options);
  auto handle = collector->Register("c", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  auto server = MustStart(collector.get());

  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  auto batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                    EncodeReportStream(**encoder, 50, 4));
  ASSERT_TRUE(batch.ok());

  std::atomic<bool> halt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      auto client = FrameClient::Connect(kLoopback, server->port());
      if (!client.ok()) return;
      while (!halt.load()) {
        if (!client->SendFrame("c", *batch).ok()) break;  // server stopped
      }
      client->Abort();
    });
  }
  // Let real traffic flow, then stop mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(server->Stop().ok());
  halt.store(true);
  for (auto& client : clients) client.join();

  // Everything the server counted as routed is absorbed (Stop drained).
  const uint64_t frames_routed =
      NetCounter(*collector, "ldpm_net_frames_routed_total");
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, frames_routed * 50u);
  EXPECT_GT(frames_routed, 0u);
}

TEST(IngestServer, StopEndsAReaderWaitingOnASaturatedBudget) {
  // Every shared-budget slot is held outside the server, so the reader
  // that has the frame parks in its stop-aware wait (re-probing every
  // kBudgetPoll). Stop() must still return promptly, and the client gets
  // the server-stopping verdict anchored before the unrouted frame.
  const ProtocolConfig config = MakeConfig(6, 2);
  CollectorOptions options;
  options.max_pending_batches_total = 2;
  auto collector = MustCreate(options);
  auto handle = collector->Register("c", ProtocolKind::kInpHT, config);
  ASSERT_TRUE(handle.ok());
  auto server = MustStart(collector.get());
  engine::IngestBudget* budget = collector->shared_budget().get();
  ASSERT_NE(budget, nullptr);
  ASSERT_TRUE(budget->TryAcquire());
  ASSERT_TRUE(budget->TryAcquire());

  auto encoder = CreateProtocol(ProtocolKind::kInpHT, config);
  ASSERT_TRUE(encoder.ok());
  auto batch = SerializeReportBatch(ProtocolKind::kInpHT, config,
                                    EncodeReportStream(**encoder, 16, 5));
  ASSERT_TRUE(batch.ok());
  auto client = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendFrame("c", *batch).ok());
  // Finish() blocks on the verdict, which only Stop() can produce.
  StatusOr<net::StreamReply> reply = Status::Internal("Finish not returned");
  std::thread finisher([&] { reply = client->Finish(); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ActiveConnections(*collector) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // EXPECT, not ASSERT: the finisher thread must be joined below.
  EXPECT_EQ(ActiveConnections(*collector), 1);
  // Give the reader a few poll periods in the wait. The verdict does not
  // depend on it: a reader not yet at the gate still reads the buffered
  // frame, then finds the stop flag set.
  std::this_thread::sleep_for(5 * IngestServer::kBudgetPoll);

  const auto stop_start = std::chrono::steady_clock::now();
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(2));
  finisher.join();
  budget->Release();
  budget->Release();

  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->status.ok());
  EXPECT_EQ(reply->stream_offset, 0u);
  EXPECT_NE(reply->status.message().find("IngestServer: server is stopping"),
            std::string::npos)
      << reply->status.ToString();
  EXPECT_EQ(
      NetCounter(*collector,
                 "ldpm_net_error_replies_total{code=\"FailedPrecondition\"}"),
      1u);
  EXPECT_EQ(NetCounter(*collector, "ldpm_net_frames_routed_total"), 0u);
  auto absorbed = handle->ReportsAbsorbed();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_EQ(*absorbed, 0u);
}

TEST(IngestServer, StopEndsAReaderBlockedOnAcksTheClientNeverReads) {
  // A v2 client with a tiny receive buffer streams empty-payload frames
  // and never reads: the acks fill its receive window and the server's
  // send buffer until the reader blocks in an ack write. Stop() must still
  // return promptly — the write gives up once the server is stopping.
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("c", ProtocolKind::kInpHT, MakeConfig(6, 2)).ok());
  auto server = MustStart(collector.get());

  net::Socket client(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(client.valid());
  const int receive_buffer = 4096;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                         sizeof(receive_buffer)),
            0);
  // No Nagle delay: every small frame goes out as its own segment.
  const int no_delay = 1;
  ASSERT_EQ(::setsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &no_delay,
                         sizeof(no_delay)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ASSERT_EQ(::inet_pton(AF_INET, kLoopback, &addr.sin_addr), 1);
  ASSERT_EQ(::connect(client.fd(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::vector<uint8_t> opening(net::kPreamble,
                               net::kPreamble + net::kPreambleBytes);
  opening.back() = net::kVersionResume;
  const uint8_t token[8] = {0x2A, 0, 0, 0, 0, 0, 0, 0};
  opening.insert(opening.end(), token, token + sizeof(token));
  ASSERT_TRUE(client.WriteAll(opening.data(), opening.size()).ok());

  std::vector<uint8_t> frame;
  ASSERT_TRUE(AppendCollectionFrame("c", nullptr, 0, frame).ok());
  // One frame per send, so each server read round routes little and acks.
  std::atomic<bool> done{false};
  std::thread streamer([&] {
    size_t at = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto n = client.WriteSome(frame.data() + at, frame.size() - at,
                                std::chrono::milliseconds(10));
      if (!n.ok()) return;  // the server reset the connection
      at = (at + *n) % frame.size();
    }
  });

  // The reader counts an ack before writing it, so a counter that stops
  // rising means the reader is blocked in an ack write.
  uint64_t acks = 0;
  int unchanged_polls = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (unchanged_polls < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now = NetCounter(*collector, "ldpm_net_acks_sent_total");
    unchanged_polls = (now == acks && now > 0) ? unchanged_polls + 1 : 0;
    acks = now;
  }
  EXPECT_EQ(unchanged_polls, 5) << "acks kept rising: " << acks;

  const auto stop_start = std::chrono::steady_clock::now();
  auto stopped = std::async(std::launch::async, [&] { return server->Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "Stop() is wedged on an ack write nobody reads";
  done.store(true, std::memory_order_release);
  streamer.join();
  // Closing with unread data resets the connection, which frees a reader
  // wedged in a deadline-free write; the assertion above already failed
  // in that case.
  client.CloseWithReset();
  EXPECT_TRUE(stopped.get().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(10));
}

TEST(IngestServer, EmptyStreamAndEmptyPayloadFramesAreFine) {
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("c", ProtocolKind::kInpHT, MakeConfig(6, 2)).ok());
  auto server = MustStart(collector.get());

  {
    // Preamble, then immediate clean end-of-stream.
    auto client = FrameClient::Connect(kLoopback, server->port());
    ASSERT_TRUE(client.ok());
    auto reply = client->Finish();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->status.ok());
    EXPECT_EQ(reply->frames_routed, 0u);
  }
  {
    // A frame with an empty payload routes (a keepalive shape).
    auto client = FrameClient::Connect(kLoopback, server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendFrame("c", nullptr, 0).ok());
    auto reply = client->Finish();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->status.ok());
    EXPECT_EQ(reply->frames_routed, 1u);
  }
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_EQ(NetCounter(*collector, "ldpm_net_batches_enqueued_total"), 0u);
}

TEST(ScanCompleteFrames, ReportsWholePrefixPendingSizeAndEmptyIdError) {
  std::vector<uint8_t> stream;
  ASSERT_TRUE(AppendCollectionFrame("a", std::vector<uint8_t>{1, 2, 3},
                                    stream)
                  .ok());
  ASSERT_TRUE(AppendCollectionFrame("bb", std::vector<uint8_t>{}, stream).ok());
  const size_t whole = stream.size();

  FrameStreamPrefix prefix;
  ASSERT_TRUE(ScanCompleteFrames(stream.data(), stream.size(), &prefix).ok());
  EXPECT_EQ(prefix.bytes, whole);
  EXPECT_EQ(prefix.frames, 2u);
  EXPECT_EQ(prefix.first_frame_bytes, 2u + 1u + 4u + 3u);  // frame "a"
  EXPECT_EQ(prefix.pending_frame_bytes, 0u);

  // A frame-size cap stops the scan at an over-cap frame even though it
  // is fully buffered: enforcement must not depend on how the transport
  // segmented the bytes. Frame "a" encodes to 10 bytes, frame "bb" to 8.
  ASSERT_TRUE(
      ScanCompleteFrames(stream.data(), stream.size(), &prefix, 9).ok());
  EXPECT_EQ(prefix.bytes, 0u);
  EXPECT_EQ(prefix.frames, 0u);
  EXPECT_EQ(prefix.pending_frame_bytes, 10u);  // the over-cap frame's size
  ASSERT_TRUE(
      ScanCompleteFrames(stream.data(), stream.size(), &prefix, 10).ok());
  EXPECT_EQ(prefix.bytes, whole);  // cap 10 admits both frames (10 and 8)
  EXPECT_EQ(prefix.frames, 2u);

  // Append a partial frame: whole header present, payload cut short.
  std::vector<uint8_t> with_tail = stream;
  ASSERT_TRUE(AppendCollectionFrame("c", std::vector<uint8_t>(100, 7),
                                    with_tail)
                  .ok());
  const size_t tail_frame_bytes = with_tail.size() - whole;
  with_tail.resize(whole + tail_frame_bytes - 40);
  ASSERT_TRUE(
      ScanCompleteFrames(with_tail.data(), with_tail.size(), &prefix).ok());
  EXPECT_EQ(prefix.bytes, whole);
  EXPECT_EQ(prefix.frames, 2u);
  EXPECT_EQ(prefix.pending_frame_bytes, tail_frame_bytes);

  // Every cut of the stream scans clean with a monotone prefix.
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    ASSERT_TRUE(ScanCompleteFrames(stream.data(), cut, &prefix).ok());
    EXPECT_LE(prefix.bytes, cut);
  }

  // An empty id is unrepairable: error, with the good prefix intact.
  std::vector<uint8_t> bad = stream;
  bad.push_back(0);
  bad.push_back(0);
  const Status status = ScanCompleteFrames(bad.data(), bad.size(), &prefix);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(prefix.bytes, whole);
  EXPECT_EQ(prefix.frames, 2u);
  EXPECT_NE(status.message().find("empty collection id"), std::string::npos);
}

TEST(IngestServer, IdleConnectionIsReapedByReadDeadline) {
  auto collector = MustCreate();
  ASSERT_TRUE(
      collector->Register("clicks", ProtocolKind::kInpHT, MakeConfig(6, 2))
          .ok());
  IngestServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = MustStart(collector.get(), options);

  // A connection that never sends a byte: the reaper must close it, not
  // hold the slot forever.
  auto silent = net::Socket::Connect(kLoopback, server->port());
  ASSERT_TRUE(silent.ok());
  uint8_t buf[256];
  // The server ends the connection within the deadline (error record or
  // plain close — either unblocks this read with data or EOF).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (NetCounter(*collector, "ldpm_net_connections_reaped_total") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "idle connection was never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (void)silent->ReadSome(buf, sizeof(buf),
                         std::chrono::milliseconds(2000));
  EXPECT_EQ(NetCounter(*collector, "ldpm_net_connections_reaped_total"), 1u);

  // A live client on the same server is unaffected by the reaper.
  auto client = FrameClient::Connect(kLoopback, server->port());
  ASSERT_TRUE(client.ok());
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  ASSERT_TRUE(encoder.ok());
  auto batch = SerializeReportBatch(ProtocolKind::kInpHT, MakeConfig(6, 2),
                                    EncodeReportStream(**encoder, 32, 3));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(client->SendFrame("clicks", *batch).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  ASSERT_TRUE(server->Stop().ok());
}

// The resumable (v2) session protocol end to end against the real server:
// acked frames, session counters in the final reply, and results bitwise
// equal to direct ingest. (Resume across connection drops is exercised in
// tests/integration/chaos_test.cc.)
TEST(IngestServer, ResumableSessionStreamsAndAcksEndToEnd) {
  const NetFixture fixture = NetFixture::Build(1, 4, 80);
  auto networked = MustCreate();
  fixture.RegisterAll(networked.get());
  auto server = MustStart(networked.get());

  FrameClientOptions options;
  options.resume = true;
  auto client = FrameClient::Connect(kLoopback, server->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_NE(client->session_token(), 0u);
  const std::vector<uint8_t>& stream = fixture.client_streams[0];
  ASSERT_TRUE(client->SendBytes(stream.data(), stream.size()).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
  EXPECT_EQ(reply->bytes_routed, stream.size());
  EXPECT_EQ(reply->frames_routed, 4u * fixture.streams.size());
  // Everything acked: nothing left in the replay buffer.
  EXPECT_EQ(client->unacked_bytes(), 0u);
  EXPECT_EQ(client->reconnects(), 0u);
  EXPECT_GT(NetCounter(*networked, "ldpm_net_acks_sent_total"), 0u);
  EXPECT_EQ(NetCounter(*networked, "ldpm_net_sessions_resumed_total"), 0u);
  ASSERT_TRUE(networked->Flush().ok());
  ASSERT_TRUE(server->Stop().ok());

  auto direct = MustCreate();
  fixture.RegisterAll(direct.get());
  ASSERT_TRUE(direct->IngestFrames(stream).ok());
  ASSERT_TRUE(direct->Flush().ok());
  for (const auto& s : fixture.streams) {
    auto networked_handle = networked->Handle(s.id);
    auto direct_handle = direct->Handle(s.id);
    ASSERT_TRUE(networked_handle.ok());
    ASSERT_TRUE(direct_handle.ok());
    auto networked_merged = networked_handle->aggregator().Merged();
    auto direct_merged = direct_handle->aggregator().Merged();
    ASSERT_TRUE(networked_merged.ok());
    ASSERT_TRUE(direct_merged.ok());
    ExpectBitwiseEqualEstimates(**networked_merged, **direct_merged);
  }
}

}  // namespace
}  // namespace ldpm
