#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/failpoint.h"

namespace ldpm {
namespace net {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  // Transient transport failures — the peer vanished, refused, or reset —
  // are Unavailable so retry layers (net::FrameClient's RetryPolicy) can
  // distinguish them from protocol violations without string matching.
  switch (err) {
    case ECONNREFUSED:
    case ECONNRESET:
    case ECONNABORTED:
    case EPIPE:
    case ETIMEDOUT:
    case EHOSTUNREACH:
    case ENETUNREACH:
    case ENETDOWN:
      return Status::Unavailable(what + ": " + std::strerror(err));
    default:
      return Status::FailedPrecondition(what + ": " + std::strerror(err));
  }
}

/// Waits until `fd` is ready for `events`; timeout <= 0 waits forever.
Status WaitReady(int fd, short events, std::chrono::milliseconds timeout,
                 const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int wait_ms = -1;
    if (timeout.count() > 0) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait_ms = remaining.count() > 0 ? static_cast<int>(remaining.count()) : 0;
    }
    pollfd p{fd, events, 0};
    const int n = ::poll(&p, 1, wait_ms);
    if (n > 0) return Status::OK();
    if (n == 0) {
      return Status::DeadlineExceeded(std::string(what) + ": timed out after " +
                                      std::to_string(timeout.count()) + "ms");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus(what, errno);
  }
}

/// One non-blocking send; when the send buffer is full, waits up to
/// `timeout` (<= 0: without limit) for space and tries once more. Returns
/// the bytes the kernel accepted, 0 if the buffer stayed full.
StatusOr<size_t> SendWithin(int fd, const uint8_t* data, size_t size,
                            std::chrono::milliseconds timeout) {
  bool waited = false;
  for (;;) {
    // MSG_NOSIGNAL: a peer that vanished must surface as a Status the
    // caller can handle, not a process-wide SIGPIPE.
    const ssize_t n =
        ::send(fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return ErrnoStatus("send", errno);
    }
    if (waited) return size_t{0};
    const Status ready = WaitReady(fd, POLLOUT, timeout, "send");
    if (ready.code() == StatusCode::kDeadlineExceeded) return size_t{0};
    if (!ready.ok()) return ready;
    waited = true;
  }
}

Status SetNonBlocking(int fd, bool non_blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  const int want = non_blocking ? flags | O_NONBLOCK : flags & ~O_NONBLOCK;
  if (flags != want && ::fcntl(fd, F_SETFL, want) < 0) {
    return ErrnoStatus("fcntl(F_SETFL)", errno);
  }
  return Status::OK();
}

StatusOr<sockaddr_in> MakeAddress(const std::string& address, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "Socket: \"" + address + "\" is not a numeric IPv4 address");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::Connect(const std::string& address, uint16_t port,
                                 std::chrono::milliseconds timeout) {
  LDPM_FAILPOINT("net.socket.connect");
  auto addr = MakeAddress(address, port);
  if (!addr.ok()) return addr.status();
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return ErrnoStatus("socket", errno);
  const std::string what =
      "connect to " + address + ":" + std::to_string(port);
  if (timeout.count() > 0) {
    // Deadline-bounded connect: non-blocking connect, poll for writability,
    // then read the handshake result out of SO_ERROR.
    LDPM_RETURN_IF_ERROR(SetNonBlocking(socket.fd(), true));
    if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&*addr),
                  sizeof(*addr)) != 0) {
      if (errno != EINPROGRESS) return ErrnoStatus(what, errno);
      LDPM_RETURN_IF_ERROR(
          WaitReady(socket.fd(), POLLOUT, timeout, what.c_str()));
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) !=
          0) {
        return ErrnoStatus("getsockopt(SO_ERROR)", errno);
      }
      if (so_error != 0) return ErrnoStatus(what, so_error);
    }
    LDPM_RETURN_IF_ERROR(SetNonBlocking(socket.fd(), false));
  } else if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&*addr),
                       sizeof(*addr)) != 0) {
    return ErrnoStatus(what, errno);
  }
  // The ingest stream is built of already-batched frames; coalescing
  // delays (Nagle) only add latency between a client's last frame and the
  // server's reply.
  const int one = 1;
  (void)::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
  return socket;
}

StatusOr<Socket> Socket::Listen(const std::string& address, uint16_t port,
                                int backlog) {
  auto addr = MakeAddress(address, port);
  if (!addr.ok()) return addr.status();
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return ErrnoStatus("socket", errno);
  const int one = 1;
  (void)::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return ErrnoStatus("bind to " + address + ":" + std::to_string(port),
                       errno);
  }
  if (::listen(socket.fd(), backlog) != 0) {
    return ErrnoStatus("listen", errno);
  }
  return socket;
}

StatusOr<Socket> Socket::Accept() {
  LDPM_FAILPOINT("net.socket.accept");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // EINVAL is how Linux reports accept on a listener another thread
    // Shutdown() — the normal stop path, same message either way.
    return ErrnoStatus("accept", errno);
  }
}

StatusOr<size_t> Socket::ReadSome(uint8_t* data, size_t size) {
  LDPM_FAILPOINT("net.socket.read");
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return ErrnoStatus("recv", errno);
  }
}

StatusOr<size_t> Socket::ReadSome(uint8_t* data, size_t size,
                                  std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return ReadSome(data, size);
  LDPM_FAILPOINT("net.socket.read");
  LDPM_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, timeout, "recv"));
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return ErrnoStatus("recv", errno);
  }
}

StatusOr<size_t> Socket::ReadAvailable(uint8_t* data, size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return ErrnoStatus("recv", errno);
  }
}

Status Socket::ReadExact(uint8_t* data, size_t size) {
  return ReadExact(data, size, std::chrono::milliseconds(0));
}

Status Socket::ReadExact(uint8_t* data, size_t size,
                         std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  size_t have = 0;
  while (have < size) {
    std::chrono::milliseconds remaining{0};
    if (timeout.count() > 0) {
      remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded(
            "recv: timed out after " + std::to_string(timeout.count()) +
            "ms with " + std::to_string(have) + " of " +
            std::to_string(size) + " bytes read");
      }
    }
    auto n = ReadSome(data + have, size - have, remaining);
    if (!n.ok()) return n.status();
    if (*n == 0) {
      return Status::FailedPrecondition(
          "recv: connection closed after " + std::to_string(have) + " of " +
          std::to_string(size) + " bytes");
    }
    have += *n;
  }
  return Status::OK();
}

Status Socket::WriteAll(const uint8_t* data, size_t size) {
  LDPM_FAILPOINT("net.socket.write");
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that vanished must surface as a Status the
    // caller can handle, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send", errno);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::WriteAll(const uint8_t* data, size_t size,
                        std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return WriteAll(data, size);
  LDPM_FAILPOINT("net.socket.write");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  size_t sent = 0;
  while (sent < size) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Status::DeadlineExceeded(
          "send: timed out after " + std::to_string(timeout.count()) +
          "ms with " + std::to_string(size - sent) + " of " +
          std::to_string(size) + " bytes unsent");
    }
    auto n = SendWithin(fd_, data + sent, size - sent, remaining);
    if (!n.ok()) return n.status();
    sent += *n;
  }
  return Status::OK();
}

StatusOr<size_t> Socket::WriteSome(const uint8_t* data, size_t size,
                                   std::chrono::milliseconds timeout) {
  LDPM_FAILPOINT("net.socket.write");
  return SendWithin(fd_, data, size, timeout);
}

Status Socket::ShutdownWrite() {
  if (::shutdown(fd_, SHUT_WR) != 0) return ErrnoStatus("shutdown", errno);
  return Status::OK();
}

Status Socket::ShutdownRead() {
  if (::shutdown(fd_, SHUT_RD) != 0) return ErrnoStatus("shutdown", errno);
  return Status::OK();
}

Status Socket::Shutdown() {
  if (::shutdown(fd_, SHUT_RDWR) != 0) return ErrnoStatus("shutdown", errno);
  return Status::OK();
}

StatusOr<uint16_t> Socket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname", errno);
  }
  return ntohs(addr.sin_port);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::CloseWithReset() {
  if (fd_ >= 0) {
    const linger reset{1, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  }
  Close();
}

}  // namespace net
}  // namespace ldpm
