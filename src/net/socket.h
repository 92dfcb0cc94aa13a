// Minimal RAII wrapper over blocking POSIX TCP sockets.
//
// The net layer deliberately runs blocking sockets with one thread per
// connection: the ingest server's scaling unit is the collector's shard
// worker pool, not the connection count, and blocking reads give the
// simplest possible backpressure story (a reader that stops consuming
// stalls the peer through the kernel's socket buffers — no user-space
// queue to bound). Only numeric IPv4 addresses are supported; the intended
// deployments are loopback and pod-internal listeners.

#ifndef LDPM_NET_SOCKET_H_
#define LDPM_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "core/status.h"

namespace ldpm {
namespace net {

/// A connected or listening TCP socket owning its file descriptor.
/// Move-only; the destructor closes. All operations are blocking.
///
/// Thread-safety: distinct Sockets are independent. On one Socket,
/// concurrent Read/Write from two threads is the usual full-duplex TCP
/// contract, and Shutdown() may be called from another thread to wake a
/// blocked Read/Accept (the basis of graceful server stop) — but Close()
/// must not race in-flight operations (the fd could be reused).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Connects to a numeric IPv4 address ("127.0.0.1") and port. With a
  /// positive `timeout` the connect races a deadline (non-blocking connect
  /// + poll) and a slow peer surfaces as DeadlineExceeded; <= 0 blocks
  /// indefinitely. A refused/reset/unreachable peer is Unavailable — the
  /// retryable transport category (see RetryPolicy in net/frame_client.h).
  static StatusOr<Socket> Connect(
      const std::string& address, uint16_t port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  /// Binds and listens on a numeric IPv4 address; port 0 picks an
  /// ephemeral port (read it back with local_port()).
  static StatusOr<Socket> Listen(const std::string& address, uint16_t port,
                                 int backlog);

  /// Accepts one connection; blocks. After Shutdown() (from any thread)
  /// the blocked call returns FailedPrecondition — the stop signal.
  StatusOr<Socket> Accept();

  /// Reads up to `size` bytes; blocks until at least one byte, EOF, or an
  /// error. Returns the byte count, 0 at EOF.
  StatusOr<size_t> ReadSome(uint8_t* data, size_t size);

  /// ReadSome racing a deadline: DeadlineExceeded when no byte (and no
  /// EOF) arrives within `timeout`. <= 0 blocks indefinitely — the
  /// deadline-free overload above. The connection stays usable after a
  /// timeout (nothing was consumed); callers decide whether a deadline
  /// miss reaps the connection (net::IngestServer's idle reaper) or just
  /// retries (net::FrameClient ack polling).
  StatusOr<size_t> ReadSome(uint8_t* data, size_t size,
                            std::chrono::milliseconds timeout);

  /// Non-blocking read: whatever is available right now, possibly 0 (also
  /// 0 at EOF). Never blocks; errors other than would-block surface as a
  /// Status.
  StatusOr<size_t> ReadAvailable(uint8_t* data, size_t size);

  /// Reads exactly `size` bytes or fails (FailedPrecondition on a clean
  /// EOF mid-buffer).
  Status ReadExact(uint8_t* data, size_t size);

  /// ReadExact under one overall deadline across all the reads it takes.
  /// <= 0 blocks indefinitely.
  Status ReadExact(uint8_t* data, size_t size,
                   std::chrono::milliseconds timeout);

  /// Writes all `size` bytes (handling short writes). A peer that closed
  /// or shut down its read side surfaces as a Status, never a SIGPIPE.
  Status WriteAll(const uint8_t* data, size_t size);

  /// WriteAll under an overall deadline (non-blocking sends + poll):
  /// DeadlineExceeded when the whole buffer is not accepted by the kernel
  /// within `timeout` — the guard against a peer that stopped reading and
  /// left our send buffer full. <= 0 blocks indefinitely. After a timeout
  /// an unknown prefix is in flight; the stream is no longer frame-aligned
  /// and the caller should close.
  Status WriteAll(const uint8_t* data, size_t size,
                  std::chrono::milliseconds timeout);

  /// Writes a prefix of the buffer: waits up to `timeout` for send-buffer
  /// space (<= 0: without limit), then hands the kernel whatever fits.
  /// Returns the bytes accepted, 0 when the send buffer stayed full for
  /// the whole timeout. Lets a caller write in slices and re-check its own
  /// stop condition between them (net::IngestServer's replies).
  StatusOr<size_t> WriteSome(const uint8_t* data, size_t size,
                             std::chrono::milliseconds timeout);

  /// Half-closes the write side (the client's end-of-stream marker).
  Status ShutdownWrite();

  /// Half-closes the read side: local reads return EOF from now on,
  /// waking a thread blocked in Read — while the write side stays usable
  /// (the server's stop path wakes a reader this way so it can still
  /// send its final reply).
  Status ShutdownRead();

  /// Shuts down both directions, waking any thread blocked in
  /// Read/Accept on this socket. The fd stays open until Close().
  Status Shutdown();

  /// The locally bound port (after Listen with port 0: the ephemeral one).
  StatusOr<uint16_t> local_port() const;

  void Close();

  /// Close that sends an immediate TCP reset (SO_LINGER 0) instead of a
  /// graceful FIN. A peer blocked in send() against this socket's closed
  /// receive window is woken by the reset at once; a graceful close would
  /// leave it probing the zero window until the kernel's orphan timeout
  /// (a minute or more). The abortive path for forced teardown.
  void CloseWithReset();

 private:
  int fd_ = -1;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_SOCKET_H_
