// Client side of the network ingest stream: connects to a
// net::IngestServer, streams collection frames, and reads the server's
// close reply.
//
// Two modes share the API (see net/protocol.h for the wire formats):
//
//  - One-shot (Connect(address, port)): a thin framing layer over one
//    blocking socket. Callers bring their own wire batches exactly as they
//    would hand them to Collector::IngestFrames, and the kernel's TCP flow
//    control is the only queue: a saturated server makes Send block,
//    pushing the backpressure all the way into the producer. Any transport
//    failure kills the stream — the caller owns recovery.
//
//  - Resumable (Connect(address, port, options) with options.resume): the
//    client opens a v2 session named by a token, buffers every sent frame
//    until the server acks it, and on any transport failure reconnects
//    with capped-exponential-backoff-plus-jitter, replaying exactly the
//    frames the server's resume offset says were never routed. Whole
//    frames are the ingest unit and the server's offsets are byte-precise,
//    so a stream delivered through any number of connection drops routes
//    each frame exactly once. Server verdicts (rejected stream, shed,
//    unknown collection) are never retried — only transport failures
//    without a verdict are.
//
// All operations honor the configured connect/send/recv deadlines, so a
// stalled or half-open peer surfaces as DeadlineExceeded instead of a hang.

#ifndef LDPM_NET_FRAME_CLIENT_H_
#define LDPM_NET_FRAME_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "net/reply_parser.h"
#include "net/socket.h"

namespace ldpm {
namespace net {

/// Reconnect/backoff schedule for resumable streams: attempt k (k >= 1)
/// sleeps initial_backoff * FrameClient::kBackoffMultiplier^(k-1), capped
/// at max_backoff, then scaled by a uniform factor in
/// [1 - FrameClient::kBackoffJitter, 1 + FrameClient::kBackoffJitter] so a
/// fleet of clients dropped by one server event does not reconnect in
/// lockstep. The jitter PRNG is seeded from the session token.
struct RetryPolicy {
  /// Total attempts per operation (first try included); <= 1 disables
  /// retry.
  int max_attempts = 5;
  std::chrono::milliseconds initial_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
};

struct FrameClientOptions {
  /// Deadline for each TCP connect (0 = block indefinitely).
  std::chrono::milliseconds connect_timeout{5000};
  /// Deadline for each whole-frame send against a stalled peer.
  std::chrono::milliseconds send_timeout{30000};
  /// Deadline for each wait on a server ack or final reply.
  std::chrono::milliseconds recv_timeout{30000};
  RetryPolicy retry;
  /// True: v2 resumable session (buffer + replay) under a random session
  /// token (session_token() reads it back). False: v1 one-shot with the
  /// deadlines above but no retry beyond the initial connect.
  bool resume = true;
};

// StreamReply — the server's close reply, decoded — lives in
// net/reply_parser.h next to the record parser that produces it.

/// One logical ingest stream (see the file comment). Move-only; not
/// thread-safe — one streaming thread per client.
class FrameClient {
 public:
  /// Growth factor of the reconnect backoff per completed attempt.
  static constexpr double kBackoffMultiplier = 2.0;
  /// Fractional jitter applied to every reconnect backoff.
  static constexpr double kBackoffJitter = 0.2;
  /// A resumable stream pauses sends once this many stream bytes are
  /// unacked, waiting for acks (the bound on the replay buffer).
  static constexpr size_t kMaxUnackedBytes = size_t{64} << 20;

  FrameClient() = default;
  FrameClient(FrameClient&&) = default;
  FrameClient& operator=(FrameClient&&) = default;

  /// One-shot v1 stream: connects (blocking, no deadline, no retry) and
  /// sends the protocol preamble. The original API, byte-compatible.
  static StatusOr<FrameClient> Connect(const std::string& address,
                                       uint16_t port);

  /// Deadline- and retry-aware connect; options.resume selects the
  /// resumable v2 session protocol. The connect itself retries transport
  /// failures per options.retry.
  static StatusOr<FrameClient> Connect(const std::string& address,
                                       uint16_t port,
                                       FrameClientOptions options);

  bool connected() const { return socket_.valid(); }

  /// Frames `payload` (a wire batch, possibly empty) for `collection_id`
  /// and streams it. Blocks while the server applies backpressure. On a
  /// resumable stream this also absorbs acks, enforces the unacked-byte
  /// cap, and transparently reconnects + replays on transport failure; a
  /// server verdict (error reply) is returned as-is and ends the stream.
  Status SendFrame(std::string_view collection_id, const uint8_t* payload,
                   size_t payload_size);
  Status SendFrame(std::string_view collection_id,
                   const std::vector<uint8_t>& payload);

  /// Streams pre-framed stream bytes verbatim (a concatenation of
  /// collection frames, e.g. a spooled mux file). One-shot streams pass
  /// anything through (the server rejects violations with a byte-precise
  /// error); resumable streams require whole frames — replay is
  /// frame-granular — and reject a partial trailing frame client-side.
  Status SendBytes(const uint8_t* data, size_t size);

  /// Marks end-of-stream (half-close), waits for the server to absorb
  /// everything, and returns its decoded reply. On a resumable stream this
  /// retries through transport failures until a verdict arrives or
  /// attempts run out. The connection is done afterwards.
  StatusOr<StreamReply> Finish();

  /// Hard-closes without end-of-stream — the "client died mid-stream"
  /// path. Whole frames already received stay ingested; a partial
  /// trailing frame is discarded by the server.
  void Abort();

  /// The v2 session token in use (0 on one-shot streams).
  uint64_t session_token() const { return session_token_; }
  /// Successful reconnects after the initial connect.
  uint64_t reconnects() const { return reconnects_; }
  /// Frames retransmitted during resume (each counted per retransmission).
  uint64_t frames_replayed() const { return frames_replayed_; }
  /// Stream bytes sent but not yet acked (resumable streams).
  uint64_t unacked_bytes() const { return next_offset_ - acked_offset_; }

 private:
  explicit FrameClient(Socket socket) : socket_(std::move(socket)) {}

  // --- resumable-mode machinery (all no-ops in one-shot mode) ---
  Status EnsureConnected();
  Status Handshake();
  Status TransmitPending();
  Status PumpWithRetry();
  Status PumpOnce();
  Status FinishOnce();
  Status AbsorbReplyBytes(const uint8_t* data, size_t size);
  Status PollAcksNonBlocking();
  Status WaitForReply(std::chrono::milliseconds timeout);
  void TrySalvageVerdict();
  void TrimAcked();
  Status AppendPendingFrame(std::vector<uint8_t> frame);
  std::chrono::milliseconds BackoffFor(int completed_attempts);
  uint64_t NextRand();
  void DropConnection();

  Socket socket_;
  FrameClientOptions options_;
  bool resume_ = false;
  bool finished_ = false;
  std::string address_;
  uint16_t port_ = 0;
  uint64_t session_token_ = 0;
  uint64_t rng_state_ = 0;

  /// Sent-but-unacked whole frames, oldest first; pending_base_ is the
  /// session-stream offset of the front frame's first byte.
  std::deque<std::vector<uint8_t>> pending_;
  uint64_t pending_base_ = 0;
  /// Session offset one past the last appended frame.
  uint64_t next_offset_ = 0;
  /// Session offset transmitted on the *current* connection (frame-aligned).
  uint64_t sent_offset_ = 0;
  /// Highest server-acked session offset.
  uint64_t acked_offset_ = 0;
  /// High-water transmitted offset across all connections (replay stats).
  uint64_t high_water_ = 0;

  /// Decodes the server's reply records (acks can split across reads);
  /// reset on reconnect — a new connection starts a new reply stream.
  StreamReplyParser reply_parser_;
  /// Set once the server's final ok/error record arrives.
  std::optional<StreamReply> final_reply_;

  uint64_t connects_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t frames_replayed_ = 0;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_FRAME_CLIENT_H_
