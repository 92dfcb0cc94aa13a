#include "net/ingest_server.h"

#include <cstring>
#include <utility>

#include "core/failpoint.h"
#include "net/protocol.h"
#include "protocols/wire.h"

namespace ldpm {
namespace net {

namespace {

/// Kernel accept backlog of the listening socket.
constexpr int kAcceptBacklog = 64;

void AppendU64(uint64_t value, std::vector<uint8_t>& out) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<uint8_t>(value >> (8 * b)));
  }
}

uint64_t ReadU64(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int b = 0; b < 8; ++b) value |= uint64_t{bytes[b]} << (8 * b);
  return value;
}

void WriteU64(uint64_t value, uint8_t* bytes) {
  for (int b = 0; b < 8; ++b) bytes[b] = uint8_t(value >> (8 * b));
}

}  // namespace

IngestServer::IngestServer(engine::Collector* collector,
                           const IngestServerOptions& options)
    : collector_(collector), options_(options) {
  obs::MetricsRegistry* metrics = collector_->metrics();
  connections_accepted_ =
      metrics->GetCounter("ldpm_net_connections_accepted_total",
                           "TCP connections accepted and handed a reader");
  connections_shed_ = metrics->GetCounter(
      "ldpm_net_connections_shed_total",
      "Connections rejected at accept by the max_connections cap");
  frames_routed_ =
      metrics->GetCounter("ldpm_net_frames_routed_total",
                           "Whole collection frames routed into the collector");
  batches_enqueued_ = metrics->GetCounter(
      "ldpm_net_batches_enqueued_total",
      "Wire batches handed to engines (empty-payload frames route without "
      "enqueueing work)");
  bytes_routed_ = metrics->GetCounter(
      "ldpm_net_bytes_routed_total",
      "Bytes of routed frames (excluding preambles and partial tails)");
  connections_active_ = metrics->GetGauge(
      "ldpm_net_connections_active", "Connections currently being served");
  route_latency_ = metrics->GetHistogram(
      "ldpm_net_frame_route_latency_ns", obs::LatencyBuckets(),
      "Per-frame latency of Collector::IngestFrames from a reader thread");
  connections_reaped_ = metrics->GetCounter(
      "ldpm_net_connections_reaped_total",
      "Idle connections reaped by the read deadline");
  sessions_resumed_ = metrics->GetCounter(
      "ldpm_net_sessions_resumed_total",
      "v2 resume sessions re-attached by a reconnecting client");
  acks_sent_ = metrics->GetCounter("ldpm_net_acks_sent_total",
                                    "Ack records written to v2 clients");
  drain_duration_ = metrics->GetHistogram(
      "ldpm_net_drain_duration_ns", obs::LatencyBuckets(),
      "Graceful-stop duration: accept join, reader drain, collector drain");
  LDPM_CHECK(connections_accepted_ && connections_shed_ && frames_routed_ &&
             batches_enqueued_ && bytes_routed_ && connections_reaped_ &&
             sessions_resumed_ && acks_sent_ && connections_active_ &&
             route_latency_ && drain_duration_);
}

StatusOr<std::unique_ptr<IngestServer>> IngestServer::Start(
    engine::Collector* collector, const IngestServerOptions& options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("IngestServer: collector must not be null");
  }
  if (options.read_chunk_bytes == 0 || options.max_frame_bytes == 0) {
    return Status::InvalidArgument(
        "IngestServer: read_chunk_bytes and max_frame_bytes must be > 0");
  }
  auto listener =
      Socket::Listen(options.bind_address, options.port, kAcceptBacklog);
  if (!listener.ok()) return listener.status();
  auto port = listener->local_port();
  if (!port.ok()) return port.status();
  std::unique_ptr<IngestServer> server(new IngestServer(collector, options));
  server->listener_ = *std::move(listener);
  server->port_ = *port;
  // Only a server that actually served may Drain() the collector on
  // Stop(): an error return from here must not flush/checkpoint a shared
  // collector as a side effect of its destructor.
  server->started_ = true;
  server->accept_thread_ =
      std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

IngestServer::~IngestServer() { (void)Stop(); }

Status IngestServer::Stop() {
  // The graceful-stop sequence: stop accepting -> wake and drain every
  // reader -> Drain() the collector. Serialized so concurrent/second
  // Stop() calls observe the first one's result.
  core::MutexLock stop_lock(stop_mu_);
  if (stopped_) return stop_status_;
  obs::ScopedTimer drain_timer(drain_duration_);
  stopping_.store(true, std::memory_order_release);
  // Wakes the accept thread out of its blocking accept.
  (void)listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is joined, so connections_ can no longer grow: move
  // the list out under its lock and run the whole drain on the local copy,
  // so no reader is joined with connections_mu_ held.
  std::vector<std::unique_ptr<Connection>> to_drain;
  {
    core::MutexLock lock(connections_mu_);
    // Wake readers blocked in recv with a READ-side half-close only: the
    // write side must stay usable so each reader can still deliver its
    // 'server is stopping' error reply (offset + message) before closing.
    // Readers waiting on the ingest budget observe stopping_ at their
    // next timed probe.
    for (auto& connection : connections_) {
      (void)connection->socket.ShutdownRead();
    }
    to_drain.swap(connections_);
  }
  for (auto& connection : to_drain) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  // Abortive close (RST), not a graceful FIN: a mid-stream client
  // blocked in send() against our now-unread receive window must be
  // woken immediately — after the shutdown above, a graceful close
  // would leave it probing a zero window until the kernel's orphan
  // timeout, a minute-scale stall for every saturated client.
  for (auto& connection : to_drain) {
    connection->socket.CloseWithReset();
  }
  to_drain.clear();
  listener_.Close();
  stop_status_ = started_ ? collector_->Drain() : Status::OK();
  stopped_ = true;
  return stop_status_;
}

void IngestServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping()) return;
      // Transient accept failures (EMFILE, aborted handshakes) must not
      // spin the thread hot; anything persistent repeats through here.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Status accept_fault;
    LDPM_FAILPOINT_STATUS("net.server.accept", accept_fault);
    if (!accept_fault.ok()) {
      // Chaos hook: the accept path drops the fresh connection on the
      // floor (reset, no reply) — the client sees pure connection churn.
      accepted->CloseWithReset();
      continue;
    }
    // Hold connections_mu_ only for the membership decision: the shed
    // path's socket I/O and the reader spawn below run without it (a
    // stopping server must never wait on a slow shed peer). Spawning
    // outside the lock is safe because Stop() joins this thread before it
    // touches connections_.
    Connection* connection = nullptr;
    {
      core::MutexLock lock(connections_mu_);
      if (stopping()) return;
      ReapFinishedLocked();
      if (options_.max_connections <= 0 ||
          connections_.size() <
              static_cast<size_t>(options_.max_connections)) {
        connections_.push_back(
            std::make_unique<Connection>(*std::move(accepted)));
        connection = connections_.back().get();
      }
    }
    if (connection == nullptr) {
      // Shed at the door: an explicit rejection beats an accepted
      // connection nobody will ever read. Consume what the client already
      // sent (typically its preamble) before replying and again before
      // closing — closing with unread data resets the connection, which
      // can destroy the reply in flight. Non-blocking and capped: the
      // accept thread must never stall on a shed peer, so a client that
      // keeps blasting can still race the close; best effort by design.
      const auto drain_available = [&accepted] {
        uint8_t sink[4096];
        size_t total = 0;
        while (total < sizeof(sink) * 16) {
          auto n = accepted->ReadAvailable(sink, sizeof(sink));
          if (!n.ok() || *n == 0) break;
          total += *n;
        }
      };
      drain_available();
      StreamOutcome outcome;
      outcome.status = Status::ResourceExhausted(
          "IngestServer: connection limit (" +
          std::to_string(options_.max_connections) + ") reached");
      // Count before replying: a client that has read the rejection must
      // already see it in /metrics.
      connections_shed_->Increment();
      SendReply(*accepted, outcome, 0, 0);
      drain_available();
      continue;
    }
    // Count before the reader exists: it is the reader's hello and replies
    // that make the acceptance visible to the client.
    connections_accepted_->Increment();
    connection->reader = std::thread(
        [this, connection] { ServeConnection(*connection); });
  }
}

void IngestServer::ReapFinishedLocked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      // A finished flag means the reader is past its last shared access;
      // the join returns as soon as the thread unwinds.
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void IngestServer::ServeConnection(Connection& connection) {
  connections_active_->Add(1);
  const StreamOutcome outcome = ServeStream(connection.socket);
  if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
    connections_reaped_->Increment();
  }
  // The stream is over once its outcome is known; drop the gauge before
  // the reply, so a client that has read its reply never sees itself as
  // still active.
  connections_active_->Add(-1);
  if (outcome.status.code() == StatusCode::kUnavailable) {
    // The transport itself failed (peer reset, injected connection drop):
    // there is no one to reply to, and a reply record would read as a
    // server verdict to a resuming client. Reset and move on.
    connection.socket.CloseWithReset();
    connection.finished.store(true, std::memory_order_release);
    return;
  }
  SendReply(connection.socket, outcome, outcome.frames, outcome.bytes);
  if (!outcome.status.ok()) {
    // On a mid-stream rejection the peer usually has more frames in
    // flight. Closing with unread data makes TCP send a reset, which can
    // destroy the reply sitting in the peer's receive buffer before it is
    // read — so sip the remainder until the peer reacts (EOF) or a cap.
    // Stop() still wakes this recv via the socket shutdown.
    uint8_t sink[4096];
    size_t drained = 0;
    constexpr size_t kMaxErrorDrainBytes = 1 << 20;
    while (drained < kMaxErrorDrainBytes) {
      auto n = connection.socket.ReadSome(sink, sizeof(sink));
      if (!n.ok() || *n == 0) break;
      drained += *n;
    }
  }
  (void)connection.socket.Shutdown();
  connection.finished.store(true, std::memory_order_release);
}

Status IngestServer::GateOnBudget() {
  engine::IngestBudget* budget = collector_->shared_budget().get();
  if (budget == nullptr) return Status::OK();
  // The probe (acquire-then-release) costs one slot for an instant and
  // answers "is there headroom right now". It keeps readers responsive:
  // the engines' own internal Acquire blocks indefinitely, but after a
  // successful probe it is nearly always immediate, and in the worst race
  // it is bounded by the shard workers draining one item. Between probes
  // the reader re-checks the stop flag, so a saturated collector can
  // never wedge Stop().
  if (budget->TryAcquire()) {
    budget->Release();
    return Status::OK();
  }
  while (!stopping()) {
    if (budget->AcquireFor(kBudgetPoll)) {
      budget->Release();
      return Status::OK();
    }
  }
  return Status::FailedPrecondition("IngestServer: server is stopping");
}

Status IngestServer::AcquireSession(uint64_t token, Socket& socket,
                                    StreamContext* context) {
  core::MutexLock lock(sessions_mu_);
  const auto busy_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    auto it = sessions_.find(token);
    if (it == sessions_.end()) {
      if (sessions_.size() >= kMaxSessions) {
        auto victim = sessions_.end();
        for (auto s = sessions_.begin(); s != sessions_.end(); ++s) {
          if (!s->second.active &&
              (victim == sessions_.end() ||
               s->second.last_used < victim->second.last_used)) {
            victim = s;
          }
        }
        if (victim == sessions_.end()) {
          return Status::ResourceExhausted(
              "IngestServer: session table full (" +
              std::to_string(kMaxSessions) +
              " sessions, all active)");
        }
        sessions_.erase(victim);
      }
      Session& session = sessions_[token];
      session.active = true;
      session.owner = &socket;
      session.last_used = ++session_tick_;
      context->token = token;
      context->start_offset = 0;
      context->start_frames = 0;
      return Status::OK();
    }
    Session& session = it->second;
    if (!session.active) {
      session.active = true;
      session.owner = &socket;
      session.last_used = ++session_tick_;
      context->token = token;
      context->start_offset = session.routed_bytes;
      context->start_frames = session.routed_frames;
      sessions_resumed_->Increment();
      return Status::OK();
    }
    // The session is owned by another connection — almost always a
    // half-open predecessor the client already gave up on. Wake its
    // reader (EOF) and wait for it to publish final progress and release;
    // only then is the resume offset authoritative.
    if (session.owner != nullptr) (void)session.owner->Shutdown();
    if (stopping()) {
      return Status::FailedPrecondition("IngestServer: server is stopping");
    }
    if (std::chrono::steady_clock::now() >= busy_deadline) {
      return Status::ResourceExhausted(
          "IngestServer: session " + std::to_string(token) +
          " is still owned by another connection");
    }
    sessions_cv_.WaitFor(sessions_mu_, std::chrono::milliseconds(50));
  }
}

void IngestServer::ReleaseSession(uint64_t token) {
  {
    core::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(token);
    if (it != sessions_.end()) {
      it->second.active = false;
      it->second.owner = nullptr;
      it->second.last_used = ++session_tick_;
    }
  }
  sessions_cv_.NotifyAll();
}

void IngestServer::RecordSessionProgress(uint64_t token,
                                         uint64_t routed_bytes,
                                         uint64_t frames_delta) {
  core::MutexLock lock(sessions_mu_);
  auto it = sessions_.find(token);
  if (it == sessions_.end()) return;
  it->second.routed_bytes = routed_bytes;
  it->second.routed_frames += frames_delta;
}

IngestServer::StreamOutcome IngestServer::ServeStream(Socket& socket) {
  StreamOutcome outcome;

  // Connection preamble: 7 magic bytes + 1 version byte. The idle
  // deadline applies from the first byte — a connection that never even
  // sends its preamble is exactly the half-open client the reaper exists
  // for.
  uint8_t preamble[kPreambleBytes];
  Status read =
      socket.ReadExact(preamble, kPreambleBytes, options_.idle_timeout);
  if (!read.ok()) {
    outcome.status =
        read.code() == StatusCode::kDeadlineExceeded
            ? Status::DeadlineExceeded(
                  "idle connection: no preamble within " +
                  std::to_string(options_.idle_timeout.count()) +
                  "ms; reaping")
            : Status(read.code(),
                     "reading connection preamble: " + read.message());
    return outcome;
  }
  if (std::memcmp(preamble, kPreambleMagic, sizeof(kPreambleMagic)) != 0) {
    outcome.status = Status::InvalidArgument(
        "connection preamble does not start with \"LDPMNET\"");
    return outcome;
  }
  const uint8_t version = preamble[kPreambleBytes - 1];
  if (version == kVersionOneShot) {
    return ServeStreamBody(socket, StreamContext{});
  }
  if (version != kVersionResume) {
    outcome.status = Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version) +
        " (expected " + std::to_string(kVersionOneShot) + " or " +
        std::to_string(kVersionResume) + ")");
    return outcome;
  }

  // v2: session token, then our hello record naming the resume offset.
  uint8_t token_bytes[8];
  Status token_read =
      socket.ReadExact(token_bytes, sizeof(token_bytes), options_.idle_timeout);
  if (!token_read.ok()) {
    outcome.status = Status(
        token_read.code(), "reading session token: " + token_read.message());
    return outcome;
  }
  const uint64_t token = ReadU64(token_bytes);
  if (token == 0) {
    outcome.status =
        Status::InvalidArgument("session token must be nonzero");
    return outcome;
  }
  StreamContext context;
  Status acquired = AcquireSession(token, socket, &context);
  if (!acquired.ok()) {
    outcome.status = std::move(acquired);
    return outcome;
  }
  uint8_t hello[9];
  hello[0] = kReplyHello;
  WriteU64(context.start_offset, hello + 1);
  Status hello_write = WriteUnlessStopping(socket, hello, sizeof(hello));
  if (!hello_write.ok()) {
    ReleaseSession(token);
    outcome.status = Status::Unavailable("writing hello record: " +
                                         hello_write.message());
    outcome.stream_offset = context.start_offset;
    return outcome;
  }
  outcome = ServeStreamBody(socket, context);
  ReleaseSession(token);
  return outcome;
}

IngestServer::StreamOutcome IngestServer::ServeStreamBody(
    Socket& socket, const StreamContext& context) {
  StreamOutcome outcome;
  outcome.frames = context.start_frames;
  outcome.bytes = context.start_offset;

  std::vector<uint8_t> buffer;
  // Session-absolute offset of the stream bytes fully routed and
  // discarded (v1 streams start at 0, so it is the plain stream offset).
  uint64_t consumed = context.start_offset;
  for (;;) {
    const size_t old_size = buffer.size();
    buffer.resize(old_size + options_.read_chunk_bytes);
    Status read_fault;
    LDPM_FAILPOINT_STATUS("net.server.read", read_fault);
    auto n = read_fault.ok()
                 ? socket.ReadSome(buffer.data() + old_size,
                                   options_.read_chunk_bytes,
                                   options_.idle_timeout)
                 : StatusOr<size_t>(read_fault);
    if (!n.ok()) {
      buffer.resize(old_size);
      if (stopping()) {
        outcome.status =
            Status::FailedPrecondition("IngestServer: server is stopping");
      } else if (n.status().code() == StatusCode::kDeadlineExceeded) {
        outcome.status = Status::DeadlineExceeded(
            "idle connection: no bytes for " +
            std::to_string(options_.idle_timeout.count()) + "ms; reaping");
      } else {
        outcome.status = n.status();
      }
      outcome.stream_offset = consumed;
      return outcome;
    }
    buffer.resize(old_size + *n);

    // Route every whole frame the buffer now holds, one frame at a time
    // with a budget-headroom gate before each, keeping the partial tail;
    // reading no further until the collector absorbed these is the whole
    // backpressure story. Per-frame gating matters: a frame is exactly
    // one wire batch (one budget slot), so each engine-side acquisition
    // is preceded by its own stop-aware probe — a reader never commits to
    // a long run of stop-unaware engine waits off one probe. One scan per
    // read finds the whole-frame prefix; a frame reader then walks its
    // (already structurally validated) frames linearly.
    FrameStreamPrefix prefix;
    const Status scan =
        ScanCompleteFrames(buffer.data(), buffer.size(), &prefix,
                           options_.max_frame_bytes);
    size_t routed = 0;  // bytes of this buffer already routed
    CollectionFrameReader frames(buffer.data(), prefix.bytes);
    std::string_view frame_id;
    const uint8_t* frame_payload = nullptr;
    size_t frame_payload_size = 0;
    while (frames.Next(frame_id, frame_payload, frame_payload_size)) {
      Status gate = GateOnBudget();
      if (!gate.ok()) {
        outcome.status = std::move(gate);
        outcome.stream_offset = consumed + routed;
        return outcome;
      }
      engine::Collector::IngestFramesResult result;
      Status ingest;
      {
        obs::ScopedTimer route_timer(route_latency_);
        ingest = collector_->IngestFrames(
            buffer.data() + frames.frame_offset(),
            frames.frame_end_offset() - frames.frame_offset(), &result);
      }
      outcome.frames += result.frames_routed;
      outcome.bytes += result.bytes_consumed;
      frames_routed_->Increment(result.frames_routed);
      batches_enqueued_->Increment(result.batches_enqueued);
      bytes_routed_->Increment(result.bytes_consumed);
      if (!ingest.ok()) {
        // Anchor the message at the stream-absolute frame start: the
        // collector saw a one-frame slice, so its own offsets are
        // frame-relative (the reply's stream_offset field is always the
        // authoritative absolute anchor either way).
        outcome.status = Status(
            ingest.code(),
            "frame at stream byte " + std::to_string(consumed + routed) +
                ": " + ingest.message());
        outcome.stream_offset = consumed + routed;
        return outcome;
      }
      routed = frames.frame_end_offset();
      if (context.token != 0) {
        // Publish progress the instant the frame is routed: if this
        // connection dies right now, the resume offset already covers the
        // frame and the client will not replay it.
        RecordSessionProgress(context.token, consumed + routed,
                              result.frames_routed);
      }
    }
    buffer.erase(buffer.begin(), buffer.begin() + routed);
    consumed += routed;
    if (context.token != 0 && routed > 0) {
      // Ack the routing round so the client can trim its replay buffer.
      uint8_t ack[9];
      ack[0] = kReplyAck;
      WriteU64(consumed, ack + 1);
      // Count before writing, so the counter never trails an ack the
      // client holds; a failed write ends the connection right below.
      acks_sent_->Increment();
      Status ack_write = WriteUnlessStopping(socket, ack, sizeof(ack));
      if (!ack_write.ok()) {
        outcome.status =
            Status::Unavailable("writing ack record: " + ack_write.message());
        outcome.stream_offset = consumed;
        return outcome;
      }
    }
    if (!scan.ok()) {
      // Structurally unrepairable (empty collection id): the offending
      // frame starts right where the routed prefix ended — rewrite the
      // scanner's buffer-relative anchor as a stream-absolute one.
      outcome.status = Status(
          scan.code(), "collection frame at stream byte " +
                           std::to_string(consumed) + ": " + scan.message());
      outcome.stream_offset = consumed;
      return outcome;
    }
    if (prefix.pending_frame_bytes > options_.max_frame_bytes) {
      // The scan stops at an over-cap frame whether or not it arrived
      // whole, so this rejection is independent of TCP segmentation.
      outcome.status = Status::InvalidArgument(
          "collection frame of " +
          std::to_string(prefix.pending_frame_bytes) +
          " bytes exceeds the server's max_frame_bytes (" +
          std::to_string(options_.max_frame_bytes) + ")");
      outcome.stream_offset = consumed;
      return outcome;
    }

    if (*n == 0) {
      if (!buffer.empty()) {
        outcome.status = Status::InvalidArgument(
            "connection closed mid-frame with " +
            std::to_string(buffer.size()) + " unconsumed bytes");
        outcome.stream_offset = consumed;
        return outcome;
      }
      if (stopping()) {
        // Indistinguishable from a clean end (the shutdown wake reads as
        // EOF) — report the stop; everything routed stays ingested.
        outcome.status =
            Status::FailedPrecondition("IngestServer: server is stopping");
        outcome.stream_offset = consumed;
        return outcome;
      }
      outcome.status = Status::OK();
      outcome.stream_offset = consumed;
      return outcome;
    }
  }
}

void IngestServer::SendReply(Socket& socket, const StreamOutcome& outcome,
                             uint64_t frames, uint64_t bytes) {
  // Best effort throughout: the peer may already be gone, and the reply
  // is advisory — ingested frames stay ingested either way.
  std::vector<uint8_t> reply;
  if (outcome.status.ok()) {
    reply.push_back(kReplyOk);
    AppendU64(frames, reply);
    AppendU64(bytes, reply);
  } else {
    // Error replies are rare (one per failed connection), so the
    // per-code counter lookup takes the registry path instead of a cache.
    obs::Counter* errors = collector_->metrics()->GetCounter(
        obs::WithLabels("ldpm_net_error_replies_total",
                        {{"code", StatusCodeToString(outcome.status.code())}}),
        "Error replies sent to clients, by status code");
    if (errors != nullptr) errors->Increment();
    reply.push_back(kReplyError);
    AppendU64(outcome.stream_offset, reply);
    std::string message = outcome.status.message();
    if (message.size() > kMaxReplyMessageBytes) {
      message.resize(kMaxReplyMessageBytes);
    }
    reply.push_back(static_cast<uint8_t>(message.size() & 0xFF));
    reply.push_back(static_cast<uint8_t>(message.size() >> 8));
    reply.insert(reply.end(), message.begin(), message.end());
  }
  (void)WriteUnlessStopping(socket, reply.data(), reply.size());
}

Status IngestServer::WriteUnlessStopping(Socket& socket, const uint8_t* data,
                                         size_t size) {
  const auto start = std::chrono::steady_clock::now();
  size_t sent = 0;
  for (;;) {
    auto n = socket.WriteSome(data + sent, size - sent, kBudgetPoll);
    if (!n.ok()) return n.status();
    sent += *n;
    if (sent == size) return Status::OK();
    if (stopping()) {
      return Status::FailedPrecondition("IngestServer: server is stopping");
    }
    if (options_.idle_timeout.count() > 0 &&
        std::chrono::steady_clock::now() - start >= options_.idle_timeout) {
      return Status::DeadlineExceeded(
          "send: timed out after " +
          std::to_string(options_.idle_timeout.count()) + "ms with " +
          std::to_string(size - sent) + " of " + std::to_string(size) +
          " bytes unsent");
    }
  }
}

}  // namespace net
}  // namespace ldpm
