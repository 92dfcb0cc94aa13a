#include "http_get.h"

#include <chrono>
#include <cstdlib>

#include "net/socket.h"
#include "trace.h"

namespace perfbench {

HttpResult HttpGet(uint16_t port, const std::string& path, int timeout_ms) {
  HttpResult result;
  const std::chrono::milliseconds timeout(timeout_ms);
  const int64_t t0 = NowNs();
  auto connected = ldpm::net::Socket::Connect("127.0.0.1", port, timeout);
  if (!connected.ok()) return result;
  ldpm::net::Socket socket = *std::move(connected);
  const int64_t t1 = NowNs();
  result.connect_ns = t1 - t0;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (!socket
           .WriteAll(reinterpret_cast<const uint8_t*>(request.data()),
                     request.size(), timeout)
           .ok()) {
    return result;
  }
  const int64_t t2 = NowNs();
  std::string response;
  uint8_t chunk[16384];
  for (;;) {
    auto n = socket.ReadSome(chunk, sizeof(chunk), timeout);
    if (!n.ok()) return result;
    if (*n == 0) break;
    if (response.empty()) result.ttfb_ns = NowNs() - t2;
    response.append(reinterpret_cast<const char*>(chunk), *n);
  }
  result.total_ns = NowNs() - t0;
  // The server closes first; resetting our end once its FIN is read keeps
  // the server's end out of TIME_WAIT. Without it tens of thousands of
  // TIME_WAIT sockets pile up per run and slow every later connect() --
  // this run's and the next run's.
  socket.CloseWithReset();
  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 || response.size() < 12) {
    return result;
  }
  result.status = std::atoi(response.c_str() + 9);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return result;
  result.body = response.substr(head_end + 4);
  result.ok = true;
  return result;
}

bool JsonUint(const std::string& body, const char* key, uint64_t* value) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  const char* p = body.c_str() + at + needle.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *value = v;
  return true;
}

}  // namespace perfbench
