// Chaos harness: the end-to-end failure-recovery acceptance tests. With
// failpoints firing — server-side connection drops on the accept and read
// paths, fsync failures under the checkpointer, a simulated crash between
// checkpoint rotation and install, a corrupted newest generation — the
// pipeline (resumable FrameClient -> IngestServer -> Collector ->
// generational checkpoints -> restore) must deliver every frame exactly
// once and restore query results bitwise-equal to an uninterrupted run.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/file_io.h"
#include "engine/collector.h"
#include "net/frame_client.h"
#include "net/ingest_server.h"
#include "obs/metrics.h"
#include "protocols/test_util.h"
#include "protocols/wire.h"

namespace ldpm {
namespace {

using engine::Collector;
using engine::CollectorOptions;
using net::FrameClient;
using net::FrameClientOptions;
using net::IngestServer;
using net::IngestServerOptions;
using test::EncodeReportStream;
using test::ExpectBitwiseEqualEstimates;
using test::MakeConfig;

constexpr char kLoopback[] = "127.0.0.1";
constexpr char kCollection[] = "clicks";

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Failpoints are process-global state; every chaos test starts and ends
/// with a clean registry even on assertion failure.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

std::unique_ptr<Collector> MustCreate(const CollectorOptions& options = {}) {
  auto collector = Collector::Create(options);
  EXPECT_TRUE(collector.ok()) << collector.status().ToString();
  return *std::move(collector);
}

std::unique_ptr<IngestServer> MustStart(
    Collector* collector, const IngestServerOptions& options = {}) {
  auto server = IngestServer::Start(collector, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return *std::move(server);
}

/// A stream of `frames` collection frames for kCollection, kInpHT(6,2),
/// `reports_per_frame` reports each, deterministic in `seed`.
std::vector<uint8_t> BuildStream(int frames, size_t reports_per_frame,
                                 uint64_t seed) {
  auto encoder = CreateProtocol(ProtocolKind::kInpHT, MakeConfig(6, 2));
  EXPECT_TRUE(encoder.ok());
  Rng rng(seed);
  std::vector<uint8_t> stream;
  for (int i = 0; i < frames; ++i) {
    std::vector<Report> reports;
    const uint64_t mask = (uint64_t{1} << 6) - 1;
    for (size_t r = 0; r < reports_per_frame; ++r) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    auto frame = SerializeReportBatch(ProtocolKind::kInpHT, MakeConfig(6, 2),
                                      reports);
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(AppendCollectionFrame(kCollection, *frame, stream).ok());
  }
  return stream;
}

std::unique_ptr<Collector> RegisteredCollector(
    const CollectorOptions& options = {}) {
  auto collector = MustCreate(options);
  EXPECT_TRUE(collector
                  ->Register(kCollection, ProtocolKind::kInpHT,
                             MakeConfig(6, 2))
                  .ok());
  return collector;
}

uint64_t ReportsAbsorbed(Collector& collector) {
  auto handle = collector.Handle(kCollection);
  EXPECT_TRUE(handle.ok());
  auto absorbed = handle->ReportsAbsorbed();
  EXPECT_TRUE(absorbed.ok());
  return *absorbed;
}

void ExpectCollectorsBitwiseEqual(Collector& a, Collector& b) {
  auto ha = a.Handle(kCollection);
  auto hb = b.Handle(kCollection);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  auto ma = ha->aggregator().Merged();
  auto mb = hb->aggregator().Merged();
  ASSERT_TRUE(ma.ok()) << ma.status().ToString();
  ASSERT_TRUE(mb.ok()) << mb.status().ToString();
  EXPECT_EQ((*ma)->reports_absorbed(), (*mb)->reports_absorbed());
  ExpectBitwiseEqualEstimates(**ma, **mb);
}

// THE chaos acceptance test: the server drops connections on both the
// accept path and mid-stream reads while a resumable client streams; the
// client reconnects and replays, and the result is bitwise-identical to an
// uninterrupted direct ingest of the same bytes — every frame routed
// exactly once, none lost, none duplicated.
TEST_F(ChaosTest, ConnectionDropsResumeToBitwiseEqualExactlyOnceDelivery) {
  const std::vector<uint8_t> stream = BuildStream(40, 100, 12345);

  auto networked = RegisteredCollector();
  IngestServerOptions server_options;
  server_options.read_chunk_bytes = 4096;  // many reads -> many fault sites
  auto server = MustStart(networked.get(), server_options);

  // Drop the first fresh connection at accept (the client's initial
  // connect must retry through pure connection churn)...
  failpoint::Spec accept_drop;
  accept_drop.mode = failpoint::Mode::kError;
  accept_drop.count = 1;
  failpoint::Arm("net.server.accept", accept_drop);
  // ...and stall the replacement connection's first body read for long
  // enough that the client buffers the whole stream into the kernel ahead
  // of the server. A drop injected after that stall is then guaranteed to
  // strand sent-but-unrouted frames — the replay path, deterministically.
  failpoint::Spec read_stall;
  read_stall.mode = failpoint::Mode::kDelay;
  read_stall.delay = std::chrono::milliseconds(300);
  read_stall.count = 1;
  failpoint::Arm("net.server.read", read_stall);

  FrameClientOptions client_options;
  client_options.resume = true;
  client_options.retry.max_attempts = 10;
  client_options.retry.initial_backoff = std::chrono::milliseconds(5);
  client_options.retry.max_backoff = std::chrono::milliseconds(50);
  auto client = FrameClient::Connect(kLoopback, server->port(),
                                     client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // While the server reader sleeps, re-arm the site to drop the
  // connection after two more routed chunks (the hit count registers
  // before the sleep, so this lands within the stall window).
  std::thread rearm([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (failpoint::HitCount("net.server.read") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    failpoint::Spec read_drop;
    read_drop.mode = failpoint::Mode::kError;
    read_drop.skip = 2;
    read_drop.count = 1;
    failpoint::Arm("net.server.read", read_drop);
  });

  // One SendBytes for the whole stream: the client splits it into frames
  // internally and streams them while the server reader stalls.
  const Status send = client->SendBytes(stream.data(), stream.size());
  ASSERT_TRUE(send.ok()) << send.ToString();
  rearm.join();
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();

  // The chaos actually happened: one accept drop, one read stall plus one
  // mid-stream drop (hits survive the re-arm)...
  EXPECT_EQ(failpoint::HitCount("net.server.accept"), 1u);
  EXPECT_EQ(failpoint::HitCount("net.server.read"), 2u);
  // The mid-stream drop always forces a reconnect. The accept drop may or
  // may not add one: its reset can race the connect poll itself, in which
  // case the failed connect never counts as a connection to re-do.
  EXPECT_GE(client->reconnects(), 1u);
  EXPECT_GT(client->frames_replayed(), 0u);
  const obs::MetricsRegistry& metrics = *networked->metrics();
  EXPECT_GE(metrics.CounterValue("ldpm_net_sessions_resumed_total"), 1u);
  // ...and the stream still arrived exactly once, byte-complete.
  EXPECT_EQ(reply->bytes_routed, stream.size());
  EXPECT_EQ(reply->frames_routed, 40u);
  EXPECT_EQ(metrics.CounterValue("ldpm_net_frames_routed_total"), 40u);
  ASSERT_TRUE(networked->Flush().ok());
  ASSERT_TRUE(server->Stop().ok());

  auto direct = RegisteredCollector();
  ASSERT_TRUE(direct->IngestFrames(stream).ok());
  ASSERT_TRUE(direct->Flush().ok());
  EXPECT_EQ(ReportsAbsorbed(*networked), 40u * 100u);
  ExpectCollectorsBitwiseEqual(*direct, *networked);
}

// Checkpoint durability under fsync faults: the injected failures surface
// in LastCheckpointError, the write eventually lands once the fault
// clears, the sticky error resets, and the file restores.
TEST_F(ChaosTest, FsyncFaultsSurfaceThenCheckpointLandsAndStickyErrorClears) {
  const std::string path = TempPath("chaos_fsync.ckpt");
  std::filesystem::remove(path);
  auto collector = RegisteredCollector();
  const std::vector<uint8_t> stream = BuildStream(5, 200, 777);
  ASSERT_TRUE(collector->IngestFrames(stream).ok());
  ASSERT_TRUE(collector->Flush().ok());

  failpoint::Spec fsync_fault;
  fsync_fault.mode = failpoint::Mode::kError;
  fsync_fault.count = 2;
  failpoint::Arm("file_io.fsync", fsync_fault);
  EXPECT_FALSE(collector->CheckpointTo(path).ok());
  EXPECT_FALSE(collector->LastCheckpointError().ok());
  EXPECT_FALSE(collector->CheckpointTo(path).ok());
  // Fault budget exhausted: the next attempt goes through and clears the
  // sticky error.
  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  EXPECT_TRUE(collector->LastCheckpointError().ok());
  EXPECT_EQ(failpoint::HitCount("file_io.fsync"), 2u);

  auto reloaded = RegisteredCollector();
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  ExpectCollectorsBitwiseEqual(*collector, *reloaded);
  std::filesystem::remove(path);
}

// Kill-mid-checkpoint: a crash in the window between generation rotation
// and the install of the new image (simulated by an injected rename
// failure) leaves no newest file — restore must fall back to the previous
// generation, which the rotation preserved at path.1.
TEST_F(ChaosTest, CrashBetweenRotationAndInstallRestoresPriorGeneration) {
  const std::string dir = TempPath("chaos_crash_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  CollectorOptions options;
  options.checkpoint_generations = 2;
  auto collector = RegisteredCollector(options);
  ASSERT_TRUE(collector->IngestFrames(BuildStream(4, 150, 31)).ok());
  ASSERT_TRUE(collector->Flush().ok());
  ASSERT_TRUE(collector->CheckpointTo(path).ok());
  const uint64_t cut1_reports = ReportsAbsorbed(*collector);

  ASSERT_TRUE(collector->IngestFrames(BuildStream(2, 150, 37)).ok());
  ASSERT_TRUE(collector->Flush().ok());
  // The install rename dies mid-checkpoint; rotation already moved the
  // old newest to path.1.
  failpoint::Spec rename_fault;
  rename_fault.mode = failpoint::Mode::kError;
  rename_fault.count = 1;
  failpoint::Arm("file_io.rename", rename_fault);
  EXPECT_FALSE(collector->CheckpointTo(path).ok());
  failpoint::DisarmAll();
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".1"));

  CollectorOptions restore_options;
  restore_options.checkpoint_generations = 2;
  auto reloaded = RegisteredCollector(restore_options);
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  EXPECT_EQ(ReportsAbsorbed(*reloaded), cut1_reports);
  std::filesystem::remove_all(dir);
}

// A real kill, not a simulated one: the abort-mode failpoint takes the
// whole process down (SIGABRT) mid-checkpoint — in the rotation/install
// window — in a forked child. The parent reaps the corpse, verifies the
// crash left no installed newest generation, and restores the surviving
// prior generation bitwise-equal to a collector that only ever saw the
// checkpointed prefix.
TEST_F(ChaosTest, AbortFailpointKillsProcessMidCheckpointSurvivorRestores) {
  const std::string dir = TempPath("chaos_abort_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  const std::vector<uint8_t> stream1 = BuildStream(4, 150, 51);
  const std::vector<uint8_t> stream2 = BuildStream(3, 150, 53);

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: plain control flow, no gtest — any pre-abort failure exits
    // with a distinct code so the parent can tell it from the kill.
    CollectorOptions options;
    options.checkpoint_generations = 2;
    auto collector = Collector::Create(options);
    if (!collector.ok()) ::_exit(10);
    if (!(*collector)
             ->Register(kCollection, ProtocolKind::kInpHT, MakeConfig(6, 2))
             .ok()) {
      ::_exit(11);
    }
    if (!(*collector)->IngestFrames(stream1).ok()) ::_exit(12);
    if (!(*collector)->Flush().ok()) ::_exit(13);
    if (!(*collector)->CheckpointTo(path).ok()) ::_exit(14);
    if (!(*collector)->IngestFrames(stream2).ok()) ::_exit(15);
    if (!(*collector)->Flush().ok()) ::_exit(16);
    failpoint::Spec kill_spec;
    kill_spec.mode = failpoint::Mode::kAbort;
    kill_spec.count = 1;
    failpoint::Arm("file_io.rename", kill_spec);
    (void)(*collector)->CheckpointTo(path);  // SIGABRT at the install rename
    ::_exit(17);  // reached only if the abort failpoint never fired
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited instead of dying: code "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  // The crash window is real: rotation preserved the prior generation,
  // the new image was never installed.
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".1"));

  CollectorOptions restore_options;
  restore_options.checkpoint_generations = 2;
  auto reloaded = RegisteredCollector(restore_options);
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  EXPECT_EQ(ReportsAbsorbed(*reloaded), 4u * 150u);

  auto prefix_only = RegisteredCollector();
  ASSERT_TRUE(prefix_only->IngestFrames(stream1).ok());
  ASSERT_TRUE(prefix_only->Flush().ok());
  ExpectCollectorsBitwiseEqual(*prefix_only, *reloaded);
  std::filesystem::remove_all(dir);
}

// Corrupt-newest-generation fallback through the whole pipeline: stream
// over the network, checkpoint twice with generations, corrupt the newest
// file, restart, restore (falls back + quarantines), re-stream the lost
// tail over the network — final state bitwise-equal to an uninterrupted
// run that never crashed.
TEST_F(ChaosTest, CorruptNewestGenerationFallsBackAndReingestConverges) {
  const std::string dir = TempPath("chaos_gen_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/ckpt.bin";
  const std::vector<uint8_t> stream1 = BuildStream(8, 120, 41);
  const std::vector<uint8_t> stream2 = BuildStream(6, 120, 43);

  FrameClientOptions client_options;
  client_options.resume = true;
  CollectorOptions options;
  options.checkpoint_generations = 2;
  {
    auto collector = RegisteredCollector(options);
    auto server = MustStart(collector.get());
    auto client = FrameClient::Connect(kLoopback, server->port(),
                                       client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->SendBytes(stream1.data(), stream1.size()).ok());
    auto reply = client->Finish();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->status.ok());
    ASSERT_TRUE(collector->Flush().ok());
    ASSERT_TRUE(collector->CheckpointTo(path).ok());  // cut 1: stream1

    auto client2 = FrameClient::Connect(kLoopback, server->port(),
                                        client_options);
    ASSERT_TRUE(client2.ok());
    ASSERT_TRUE(client2->SendBytes(stream2.data(), stream2.size()).ok());
    auto reply2 = client2->Finish();
    ASSERT_TRUE(reply2.ok());
    ASSERT_TRUE(reply2->status.ok());
    ASSERT_TRUE(collector->Flush().ok());
    ASSERT_TRUE(collector->CheckpointTo(path).ok());  // cut 2: both
    ASSERT_TRUE(server->Stop().ok());
  }

  // Bit rot takes the newest generation.
  auto bytes = ReadBinaryFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteBinaryFileAtomic(path, *bytes).ok());

  // Restart: restore falls back to cut 1 and quarantines the corrupt
  // file; the client re-streams the tail the fallback lost.
  auto reloaded = RegisteredCollector(options);
  ASSERT_TRUE(reloaded->RestoreFrom(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_EQ(reloaded->metrics()->CounterValue(
                "ldpm_collector_checkpoint_quarantined_total"),
            1u);
  EXPECT_EQ(ReportsAbsorbed(*reloaded), 8u * 120u);
  auto server = MustStart(reloaded.get());
  auto client = FrameClient::Connect(kLoopback, server->port(),
                                     client_options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendBytes(stream2.data(), stream2.size()).ok());
  auto reply = client->Finish();
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->status.ok());
  ASSERT_TRUE(reloaded->Flush().ok());
  ASSERT_TRUE(server->Stop().ok());

  // The uninterrupted run: both streams, no crash, no corruption.
  auto uninterrupted = RegisteredCollector();
  ASSERT_TRUE(uninterrupted->IngestFrames(stream1).ok());
  ASSERT_TRUE(uninterrupted->IngestFrames(stream2).ok());
  ASSERT_TRUE(uninterrupted->Flush().ok());
  ExpectCollectorsBitwiseEqual(*uninterrupted, *reloaded);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ldpm
