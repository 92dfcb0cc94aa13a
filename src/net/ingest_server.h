// Blocking-socket network ingest front-end for the Collector.
//
// The paper's deployment model is millions of users each sending one
// perturbed report to an aggregator; this server is that aggregator's
// listening edge. Each accepted TCP connection carries one preamble-tagged
// stream of collection frames (protocols/wire.h) which a dedicated reader
// thread routes through Collector::IngestFrames into the zero-copy wire
// path — one socket can interleave every registered collection.
//
// Design points:
//
//   * Blocking sockets, one reader thread per connection. The scaling
//     unit is the collector's shard worker pool, not the connection
//     count: readers only move bytes and route frames; all protocol work
//     happens on shard workers.
//   * Backpressure, not buffering. A reader ingests the whole frames its
//     receive buffer holds before reading more, so when the collector is
//     saturated the reader stops consuming the socket and the kernel's
//     TCP flow control pushes back on the client. With a shared
//     IngestBudget configured, readers additionally gate on budget
//     headroom with stop-aware timed probes (IngestBudget::AcquireFor)
//     every kBudgetPoll — a saturated collector stalls its readers (and,
//     through TCP, its clients) but never wedges server shutdown.
//   * Byte-precise failure. A mid-stream violation (unknown collection
//     id, malformed frame, oversized frame) stops the connection with an
//     error reply naming the exact stream offset of the first unconsumed
//     byte; frames before it stay ingested (the Collector's documented
//     partial-stream semantics, surfaced by IngestFramesResult).
//   * Resumable sessions. A v2 client names its stream with a session
//     token; the server remembers how many session-stream bytes it has
//     routed, tells a reconnecting client exactly where to resume (hello
//     record), and acks progress as it routes — exactly-once frame
//     delivery through connection churn (see net/protocol.h).
//   * Idle reaping. With idle_timeout set, a connection that delivers no
//     bytes within the deadline is reaped with an error reply instead of
//     holding a connection-cap slot forever (half-open clients); the same
//     deadline bounds the server's hello, ack and reply writes.
//   * Graceful stop. Stop() stops accepting, wakes and joins every
//     reader at a frame boundary, then runs Collector::Drain() — so a
//     server shutdown flushes every queued batch and (when configured)
//     writes the shutdown checkpoint. Every server write runs in
//     kBudgetPoll slices and gives up once Stop() has begun, so a client
//     that never reads its acks or reply cannot wedge its reader or
//     Stop(). The destructor calls Stop().
//
// The Collector must outlive the server. See docs/wire-format.md
// ("Network stream framing") for the connection protocol bytes and
// net::FrameClient for the matching client.

#ifndef LDPM_NET_INGEST_SERVER_H_
#define LDPM_NET_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "engine/collector.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

/// Tuning knobs for an IngestServer. The defaults run a loopback server
/// on an ephemeral port with generous frame and connection bounds.
struct IngestServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Live connection cap; connections beyond it are shed at accept with
  /// an error reply. 0 = unbounded.
  int max_connections = 64;
  /// A single collection frame larger than this rejects its connection
  /// (the bound on per-connection receive buffering).
  size_t max_frame_bytes = 64 * 1024 * 1024;
  /// Socket read size per recv call.
  size_t read_chunk_bytes = 64 * 1024;
  /// When > 0: the connection's deadline in both directions. A connection
  /// that delivers no bytes for this long is reaped — its reader sends a
  /// DeadlineExceeded error reply and closes, so half-open or stalled
  /// clients cannot hold connection-cap slots forever (applies to the
  /// preamble/handshake reads too) — and a hello or ack write that cannot
  /// complete within it ends the connection. 0 = wait indefinitely.
  std::chrono::milliseconds idle_timeout{0};
};

/// The listening front-end (see the file comment).
class IngestServer {
 public:
  /// Slice of the stop-aware budget wait: while the collector's shared
  /// IngestBudget has no headroom, readers re-probe at this period and
  /// re-check the server's stop flag in between.
  static constexpr std::chrono::milliseconds kBudgetPoll{20};
  /// Cap on remembered v2 resume sessions; creating one past the cap
  /// evicts the least-recently-used inactive session (a client resuming
  /// an evicted session restarts at offset 0 and fails its replay loudly).
  static constexpr size_t kMaxSessions = 1024;

  /// Binds, listens, and starts the accept thread. The collector must
  /// outlive the returned server.
  static StatusOr<std::unique_ptr<IngestServer>> Start(
      engine::Collector* collector,
      const IngestServerOptions& options = IngestServerOptions());

  /// Stop(), ignoring its Status (call Stop() first when it matters).
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Graceful stop: stop accepting, wake and join every connection
  /// reader, then Drain() the collector. Idempotent; every call returns
  /// the first stop's drain Status. Safe to call while
  /// clients are mid-stream: their connections end with a server-stopping
  /// error reply (best effort — a client still blasting may observe the
  /// closing reset before reading it) and everything already routed
  /// stays ingested.
  Status Stop() LDPM_EXCLUDES(stop_mu_, connections_mu_);

  /// True once Stop() has begun (readers observe this between blocking
  /// operations).
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

 private:
  struct Connection {
    explicit Connection(Socket s) : socket(std::move(s)) {}
    Socket socket;
    std::thread reader;
    std::atomic<bool> finished{false};
  };

  /// A reader's verdict on its stream: OK for a clean end-of-stream, or
  /// the error to report, anchored at the stream offset of the first
  /// unconsumed frame byte (counted from after the preamble) — plus what
  /// this connection routed, for the reply record.
  struct StreamOutcome {
    Status status;
    uint64_t stream_offset = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;
  };

  /// One v2 resume session: how far into the session's logical frame
  /// stream the server has routed. Lives in server memory — it survives
  /// connection churn (its purpose), not server restarts.
  struct Session {
    uint64_t routed_bytes = 0;
    uint64_t routed_frames = 0;
    /// A connection currently owns this session; its socket (valid while
    /// the owning reader runs) lets a superseding reconnect wake it.
    bool active = false;
    Socket* owner = nullptr;
    uint64_t last_used = 0;  // logical tick for LRU eviction
  };

  /// Where a (re)attached stream starts: the session's routed state.
  struct StreamContext {
    uint64_t token = 0;  // 0 = one-shot v1 stream, no session
    uint64_t start_offset = 0;
    uint64_t start_frames = 0;
  };

  IngestServer(engine::Collector* collector,
               const IngestServerOptions& options);

  void AcceptLoop();
  void ServeConnection(Connection& connection);
  StreamOutcome ServeStream(Socket& socket);
  StreamOutcome ServeStreamBody(Socket& socket, const StreamContext& context);
  /// Claims the session for `socket`, waking and waiting out a half-open
  /// previous owner. Fills `context` on success.
  Status AcquireSession(uint64_t token, Socket& socket, StreamContext* context)
      LDPM_EXCLUDES(sessions_mu_);
  void ReleaseSession(uint64_t token) LDPM_EXCLUDES(sessions_mu_);
  /// Publishes the owning reader's routing progress into the session the
  /// instant a frame is routed — the exactly-once line a reconnect
  /// resumes from.
  void RecordSessionProgress(uint64_t token, uint64_t routed_bytes,
                             uint64_t frames_delta)
      LDPM_EXCLUDES(sessions_mu_);
  /// Waits (stop-aware) until the collector's shared budget shows
  /// headroom; FailedPrecondition once the server is stopping.
  Status GateOnBudget();
  void SendReply(Socket& socket, const StreamOutcome& outcome,
                 uint64_t frames, uint64_t bytes);
  /// Writes all `size` bytes in kBudgetPoll slices, re-checking the stop
  /// flag after each slice that leaves bytes unsent: FailedPrecondition
  /// once the server is stopping, DeadlineExceeded past a positive
  /// idle_timeout.
  Status WriteUnlessStopping(Socket& socket, const uint8_t* data,
                             size_t size);
  /// Joins and drops connections whose readers have finished (called from
  /// the accept thread so a long-lived server does not accumulate them).
  void ReapFinishedLocked() LDPM_REQUIRES(connections_mu_);

  engine::Collector* const collector_;
  const IngestServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  /// True once Start fully succeeded; a half-constructed server's Stop()
  /// must not Drain() the collector.
  bool started_ = false;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  core::Mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      LDPM_GUARDED_BY(connections_mu_);

  core::Mutex sessions_mu_;
  core::CondVar sessions_cv_;  // signaled on session release
  std::map<uint64_t, Session> sessions_ LDPM_GUARDED_BY(sessions_mu_);
  uint64_t session_tick_ LDPM_GUARDED_BY(sessions_mu_) = 0;

  core::Mutex stop_mu_;  // serializes Stop(); guards stopped_/stop_status_
  bool stopped_ LDPM_GUARDED_BY(stop_mu_) = false;
  Status stop_status_ LDPM_GUARDED_BY(stop_mu_);

  /// Server metrics, owned by the collector's registry. They are the
  /// server's only counts: tests and tools read them back through the
  /// registry, as /stats does.
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_shed_ = nullptr;
  obs::Counter* frames_routed_ = nullptr;
  obs::Counter* batches_enqueued_ = nullptr;
  obs::Counter* bytes_routed_ = nullptr;
  obs::Counter* connections_reaped_ = nullptr;
  obs::Counter* sessions_resumed_ = nullptr;
  obs::Counter* acks_sent_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Histogram* route_latency_ = nullptr;
  obs::Histogram* drain_duration_ = nullptr;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_INGEST_SERVER_H_
