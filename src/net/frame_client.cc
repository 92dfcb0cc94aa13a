#include "net/frame_client.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "net/protocol.h"
#include "protocols/wire.h"

namespace ldpm {
namespace net {

namespace {

uint64_t ReadU64(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int b = 0; b < 8; ++b) value |= uint64_t{bytes[b]} << (8 * b);
  return value;
}

void WriteU64(uint64_t value, uint8_t* bytes) {
  for (int b = 0; b < 8; ++b) bytes[b] = uint8_t(value >> (8 * b));
}

/// Transport failures worth a reconnect: the peer vanished (Unavailable),
/// stalled past a deadline (DeadlineExceeded), or closed without a verdict
/// (FailedPrecondition, the socket layer's clean-EOF/default category).
/// Everything else — server verdicts, protocol violations, bad arguments —
/// is final.
bool RetryableTransport(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

uint64_t RandomToken() {
  std::random_device rd;
  uint64_t token = (uint64_t{rd()} << 32) ^ rd();
  return token == 0 ? 1 : token;
}

Status AfterAttempts(Status status, int attempts) {
  if (attempts <= 1) return status;
  return Status(status.code(), status.message() + " (after " +
                                   std::to_string(attempts) + " attempts)");
}

}  // namespace

StatusOr<FrameClient> FrameClient::Connect(const std::string& address,
                                           uint16_t port) {
  // The original one-shot API: blocking connect, no deadlines, no retry.
  FrameClientOptions options;
  options.connect_timeout = std::chrono::milliseconds(0);
  options.send_timeout = std::chrono::milliseconds(0);
  options.recv_timeout = std::chrono::milliseconds(0);
  options.retry.max_attempts = 1;
  options.resume = false;
  return Connect(address, port, options);
}

StatusOr<FrameClient> FrameClient::Connect(const std::string& address,
                                           uint16_t port,
                                           FrameClientOptions options) {
  FrameClient client;
  client.options_ = options;
  client.resume_ = options.resume;
  client.address_ = address;
  client.port_ = port;
  if (client.resume_) client.session_token_ = RandomToken();
  client.rng_state_ = client.session_token_ | 1;
  const int attempts = std::max(1, options.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(client.BackoffFor(attempt));
    Status status = client.EnsureConnected();
    if (status.ok()) return std::move(client);
    if (!RetryableTransport(status)) return status;
    last = std::move(status);
    client.DropConnection();
  }
  return AfterAttempts(std::move(last), attempts);
}

Status FrameClient::EnsureConnected() {
  if (socket_.valid()) return Status::OK();
  auto socket = Socket::Connect(address_, port_, options_.connect_timeout);
  if (!socket.ok()) return socket.status();
  socket_ = *std::move(socket);
  reply_parser_.Reset();
  ++connects_;
  if (connects_ > 1) ++reconnects_;
  Status status = Handshake();
  if (!status.ok()) socket_.Close();
  return status;
}

Status FrameClient::Handshake() {
  if (!resume_) {
    return socket_.WriteAll(kPreamble, kPreambleBytes, options_.send_timeout);
  }
  uint8_t preamble[16];
  std::memcpy(preamble, kPreambleMagic, sizeof(kPreambleMagic));
  preamble[7] = kVersionResume;
  WriteU64(session_token_, preamble + 8);
  LDPM_RETURN_IF_ERROR(
      socket_.WriteAll(preamble, sizeof(preamble), options_.send_timeout));
  uint8_t code = 0;
  LDPM_RETURN_IF_ERROR(socket_.ReadExact(&code, 1, options_.recv_timeout));
  if (code == kReplyError) {
    // The server refused the session outright (e.g. overload shedding):
    // that is a verdict, decoded exactly like a final error reply.
    uint8_t header[10];
    LDPM_RETURN_IF_ERROR(
        socket_.ReadExact(header, sizeof(header), options_.recv_timeout));
    StreamReply reply;
    reply.stream_offset = ReadU64(header);
    const size_t message_size =
        static_cast<size_t>(header[8]) | static_cast<size_t>(header[9]) << 8;
    std::string message(message_size, '\0');
    LDPM_RETURN_IF_ERROR(
        socket_.ReadExact(reinterpret_cast<uint8_t*>(message.data()),
                          message_size, options_.recv_timeout));
    reply.status = Status::InvalidArgument(
        "server rejected stream at byte " +
        std::to_string(reply.stream_offset) + ": " + message);
    final_reply_ = std::move(reply);
    return final_reply_->status;
  }
  if (code != kReplyHello) {
    return Status::InvalidArgument(
        "FrameClient: expected hello record, got reply code " +
        std::to_string(code));
  }
  uint8_t offset_bytes[8];
  LDPM_RETURN_IF_ERROR(socket_.ReadExact(offset_bytes, sizeof(offset_bytes),
                                         options_.recv_timeout));
  const uint64_t resume_offset = ReadU64(offset_bytes);
  // The server's routed offset is authoritative; everything before it is
  // ingested and must never be resent, everything after it must be. It can
  // only fall behind our trimmed buffer if the server lost the session
  // (restart, eviction) — then replay is impossible and the stream is lost.
  if (resume_offset > next_offset_) {
    return Status::Internal(
        "FrameClient: server resume offset " + std::to_string(resume_offset) +
        " is past the " + std::to_string(next_offset_) + " bytes ever sent");
  }
  if (resume_offset < pending_base_) {
    return Status::Internal(
        "FrameClient: server resume offset " + std::to_string(resume_offset) +
        " precedes already-acked offset " + std::to_string(pending_base_) +
        " (session lost on server?); cannot replay");
  }
  // Whole frames are the ingest unit, so the offset must land on one of
  // our frame boundaries.
  uint64_t boundary = pending_base_;
  for (const auto& frame : pending_) {
    if (boundary >= resume_offset) break;
    boundary += frame.size();
  }
  if (boundary != resume_offset && resume_offset != next_offset_) {
    return Status::Internal("FrameClient: server resume offset " +
                            std::to_string(resume_offset) +
                            " is not on a frame boundary");
  }
  if (resume_offset > acked_offset_) {
    acked_offset_ = resume_offset;
    TrimAcked();
  }
  sent_offset_ = resume_offset;
  return Status::OK();
}

void FrameClient::DropConnection() { socket_.Close(); }

void FrameClient::TrimAcked() {
  while (!pending_.empty() &&
         pending_base_ + pending_.front().size() <= acked_offset_) {
    pending_base_ += pending_.front().size();
    pending_.pop_front();
  }
}

Status FrameClient::AbsorbReplyBytes(const uint8_t* data, size_t size) {
  // Decode is delegated to the pure StreamReplyParser; this shim applies
  // what it learned to the client's replay state. The parser's
  // acked_offset never decreases and Reset() preserves it, so a straight
  // max-merge is correct across reconnects.
  Status status = reply_parser_.Feed(data, size);
  if (reply_parser_.acked_offset() > acked_offset_) {
    acked_offset_ = reply_parser_.acked_offset();
    TrimAcked();
  }
  if (reply_parser_.final_reply().has_value() && !final_reply_) {
    final_reply_ = *reply_parser_.final_reply();
  }
  return status;
}

Status FrameClient::PollAcksNonBlocking() {
  uint8_t buf[4096];
  while (!final_reply_) {
    auto n = socket_.ReadAvailable(buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::OK();
    LDPM_RETURN_IF_ERROR(AbsorbReplyBytes(buf, *n));
  }
  return Status::OK();
}

Status FrameClient::WaitForReply(std::chrono::milliseconds timeout) {
  uint8_t buf[4096];
  auto n = socket_.ReadSome(buf, sizeof(buf), timeout);
  if (!n.ok()) return n.status();
  if (*n == 0) {
    return Status::FailedPrecondition(
        "recv: connection closed while waiting for server reply");
  }
  return AbsorbReplyBytes(buf, *n);
}

void FrameClient::TrySalvageVerdict() {
  // A failed send often means the server already shipped its error record
  // and closed; read it so the caller gets the verdict, not a retry storm.
  // Bounded (bytes and per-read deadline) because the peer may be gone.
  size_t total = 0;
  uint8_t buf[4096];
  while (!final_reply_ && total < (64u << 10)) {
    auto n = socket_.ReadSome(buf, sizeof(buf), std::chrono::milliseconds(250));
    if (!n.ok() || *n == 0) return;
    total += *n;
    if (!AbsorbReplyBytes(buf, *n).ok()) return;
  }
}

Status FrameClient::TransmitPending() {
  for (;;) {
    // Re-locate the next unsent frame each round: ack processing may have
    // trimmed the deque since the last iteration.
    uint64_t offset = pending_base_;
    size_t index = 0;
    while (index < pending_.size() &&
           offset + pending_[index].size() <= sent_offset_) {
      offset += pending_[index].size();
      ++index;
    }
    if (index == pending_.size()) return Status::OK();
    const std::vector<uint8_t>& frame = pending_[index];
    if (offset < high_water_) ++frames_replayed_;
    Status status =
        socket_.WriteAll(frame.data(), frame.size(), options_.send_timeout);
    if (!status.ok()) {
      TrySalvageVerdict();
      if (final_reply_ && !final_reply_->status.ok()) {
        return final_reply_->status;
      }
      return status;
    }
    sent_offset_ = offset + frame.size();
    high_water_ = std::max(high_water_, sent_offset_);
    LDPM_RETURN_IF_ERROR(PollAcksNonBlocking());
    if (final_reply_) {
      // A verdict mid-send ends the stream; ok-before-EOF is impossible,
      // so a non-error verdict here is itself a protocol violation.
      return final_reply_->status.ok()
                 ? Status::InvalidArgument(
                       "FrameClient: server sent ok reply mid-stream")
                 : final_reply_->status;
    }
  }
}

Status FrameClient::PumpOnce() {
  LDPM_RETURN_IF_ERROR(EnsureConnected());
  LDPM_RETURN_IF_ERROR(TransmitPending());
  while (!final_reply_ && next_offset_ - acked_offset_ > kMaxUnackedBytes) {
    LDPM_RETURN_IF_ERROR(WaitForReply(options_.recv_timeout));
  }
  if (final_reply_ && !final_reply_->status.ok()) return final_reply_->status;
  return Status::OK();
}

Status FrameClient::PumpWithRetry() {
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(BackoffFor(attempt));
    Status status = PumpOnce();
    if (status.ok()) return status;
    if (!RetryableTransport(status) ||
        (final_reply_ && !final_reply_->status.ok())) {
      return status;
    }
    last = std::move(status);
    DropConnection();
  }
  return AfterAttempts(std::move(last), attempts);
}

Status FrameClient::AppendPendingFrame(std::vector<uint8_t> frame) {
  next_offset_ += frame.size();
  pending_.push_back(std::move(frame));
  return PumpWithRetry();
}

Status FrameClient::SendFrame(std::string_view collection_id,
                              const uint8_t* payload, size_t payload_size) {
  if (!resume_) {
    if (!connected()) {
      return Status::FailedPrecondition("FrameClient: not connected");
    }
    std::vector<uint8_t> frame;
    LDPM_RETURN_IF_ERROR(
        AppendCollectionFrame(collection_id, payload, payload_size, frame));
    return socket_.WriteAll(frame.data(), frame.size(),
                            options_.send_timeout);
  }
  if (finished_ || final_reply_) {
    return final_reply_ && !final_reply_->status.ok()
               ? final_reply_->status
               : Status::FailedPrecondition(
                     "FrameClient: stream already finished");
  }
  std::vector<uint8_t> frame;
  LDPM_RETURN_IF_ERROR(
      AppendCollectionFrame(collection_id, payload, payload_size, frame));
  return AppendPendingFrame(std::move(frame));
}

Status FrameClient::SendFrame(std::string_view collection_id,
                              const std::vector<uint8_t>& payload) {
  return SendFrame(collection_id, payload.data(), payload.size());
}

Status FrameClient::SendBytes(const uint8_t* data, size_t size) {
  if (!resume_) {
    if (!connected()) {
      return Status::FailedPrecondition("FrameClient: not connected");
    }
    return socket_.WriteAll(data, size, options_.send_timeout);
  }
  if (finished_ || final_reply_) {
    return final_reply_ && !final_reply_->status.ok()
               ? final_reply_->status
               : Status::FailedPrecondition(
                     "FrameClient: stream already finished");
  }
  // Replay is frame-granular, so a resumable stream only accepts whole
  // frames; split the buffer at frame boundaries and buffer each one.
  CollectionFrameReader reader(data, size);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  size_t consumed = 0;
  while (reader.Next(id, payload, payload_size)) {
    std::vector<uint8_t> frame(data + reader.frame_offset(),
                               data + reader.frame_end_offset());
    consumed = reader.frame_end_offset();
    LDPM_RETURN_IF_ERROR(AppendPendingFrame(std::move(frame)));
  }
  LDPM_RETURN_IF_ERROR(reader.status());
  if (consumed != size) {
    return Status::InvalidArgument(
        "FrameClient: SendBytes on a resumable stream requires whole "
        "frames; trailing " +
        std::to_string(size - consumed) + " bytes are a partial frame");
  }
  return Status::OK();
}

Status FrameClient::FinishOnce() {
  LDPM_RETURN_IF_ERROR(EnsureConnected());
  Status status = TransmitPending();
  if (final_reply_) return Status::OK();
  if (!status.ok()) return status;
  LDPM_RETURN_IF_ERROR(socket_.ShutdownWrite());
  while (!final_reply_) {
    LDPM_RETURN_IF_ERROR(WaitForReply(options_.recv_timeout));
  }
  return Status::OK();
}

StatusOr<StreamReply> FrameClient::Finish() {
  if (!resume_) {
    if (!connected()) {
      return Status::FailedPrecondition("FrameClient: not connected");
    }
    LDPM_RETURN_IF_ERROR(socket_.ShutdownWrite());
    uint8_t code = 0;
    LDPM_RETURN_IF_ERROR(socket_.ReadExact(&code, 1, options_.recv_timeout));
    StreamReply reply;
    if (code == kReplyOk) {
      uint8_t counters[16];
      LDPM_RETURN_IF_ERROR(socket_.ReadExact(counters, sizeof(counters),
                                             options_.recv_timeout));
      reply.frames_routed = ReadU64(counters);
      reply.bytes_routed = ReadU64(counters + 8);
    } else if (code == kReplyError) {
      uint8_t header[10];
      LDPM_RETURN_IF_ERROR(
          socket_.ReadExact(header, sizeof(header), options_.recv_timeout));
      reply.stream_offset = ReadU64(header);
      const size_t message_size = static_cast<size_t>(header[8]) |
                                  static_cast<size_t>(header[9]) << 8;
      std::string message(message_size, '\0');
      LDPM_RETURN_IF_ERROR(
          socket_.ReadExact(reinterpret_cast<uint8_t*>(message.data()),
                            message_size, options_.recv_timeout));
      reply.status = Status::InvalidArgument(
          "server rejected stream at byte " +
          std::to_string(reply.stream_offset) + ": " + message);
    } else {
      return Status::InvalidArgument("FrameClient: unknown reply code " +
                                     std::to_string(code));
    }
    socket_.Close();
    return reply;
  }
  if (finished_) {
    return Status::FailedPrecondition("FrameClient: stream already finished");
  }
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < attempts && !final_reply_; ++attempt) {
    if (attempt > 0) {
      DropConnection();
      std::this_thread::sleep_for(BackoffFor(attempt));
    }
    Status status = FinishOnce();
    if (final_reply_) break;
    if (!status.ok() && !RetryableTransport(status)) return status;
    if (!status.ok()) last = std::move(status);
  }
  if (!final_reply_) return AfterAttempts(std::move(last), attempts);
  finished_ = true;
  socket_.Close();
  return *final_reply_;
}

void FrameClient::Abort() {
  socket_.Close();
  pending_.clear();
  finished_ = true;
}

std::chrono::milliseconds FrameClient::BackoffFor(int completed_attempts) {
  const RetryPolicy& retry = options_.retry;
  double ms = static_cast<double>(retry.initial_backoff.count());
  for (int i = 1; i < completed_attempts; ++i) ms *= kBackoffMultiplier;
  ms = std::min(ms, static_cast<double>(retry.max_backoff.count()));
  const double unit = static_cast<double>(NextRand() % 1000) / 999.0;  // [0, 1]
  ms *= 1.0 + kBackoffJitter * (2.0 * unit - 1.0);
  return std::chrono::milliseconds(
      ms > 0 ? static_cast<int64_t>(ms) : int64_t{0});
}

uint64_t FrameClient::NextRand() {
  uint64_t x = rng_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_state_ = x;
  return x;
}

}  // namespace net
}  // namespace ldpm
