// A one-shot HTTP/1.1 GET over a fresh loopback connection, timed by phase.
// The ldpm HTTP plane answers one request per connection and closes, so
// the response is read to EOF; the client then resets its end (see
// http_get.cc) so the generator leaves no TIME_WAIT sockets behind.

#ifndef PERFBENCH_HTTP_GET_H_
#define PERFBENCH_HTTP_GET_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpResult {
  bool ok = false;   ///< transport succeeded and a status line was parsed
  int status = 0;
  std::string body;
  int64_t connect_ns = 0;  ///< net::Socket::Connect
  int64_t ttfb_ns = 0;     ///< request written -> first response byte
  int64_t total_ns = 0;    ///< connect through EOF
};

/// GET `path` from 127.0.0.1:port over a net::Socket; connect, write and
/// each read give up after timeout_ms.
HttpResult HttpGet(uint16_t port, const std::string& path, int timeout_ms);

/// Integer value of `"key":<digits>` in a flat JSON body; false if absent.
bool JsonUint(const std::string& body, const char* key, uint64_t* value);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_GET_H_
