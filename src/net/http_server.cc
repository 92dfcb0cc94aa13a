#include "net/http_server.h"

#include <string>
#include <utility>

namespace ldpm {
namespace net {

namespace {

/// Kernel accept backlog (requests queue here while one is served).
constexpr int kAcceptBacklog = 16;

/// Extracts method and path+query from "METHOD SP TARGET SP VERSION...".
/// Returns false on anything that does not parse as a request line.
bool ParseRequestLine(std::string_view request, std::string_view& method,
                      std::string_view& target) {
  const size_t line_end = request.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? request : request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  method = line.substr(0, sp1);
  target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return !method.empty() && !target.empty();
}

}  // namespace

Status ParseHttpRequestHead(std::string_view head, HttpRequest* out) {
  std::string_view method, target;
  if (!ParseRequestLine(head, method, target)) {
    return Status::InvalidArgument("malformed request");
  }
  out->method = std::string(method);
  const size_t q = target.find('?');
  out->path = std::string(target.substr(0, q));
  if (q != std::string_view::npos) {
    out->query = std::string(target.substr(q + 1));
  } else {
    out->query.clear();
  }
  if (out->path.empty()) return Status::InvalidArgument("malformed request");
  size_t bad_offset = 0;
  if (!PercentDecode(out->query, &bad_offset).has_value()) {
    return Status::InvalidArgument(
        "malformed percent-escape at query byte " +
        std::to_string(bad_offset));
  }
  return Status::OK();
}

std::optional<std::string> PercentDecode(std::string_view text,
                                         size_t* bad_offset) {
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    const int high = i + 1 < text.size() ? hex(text[i + 1]) : -1;
    const int low = i + 2 < text.size() ? hex(text[i + 2]) : -1;
    if (high < 0 || low < 0) {
      if (bad_offset != nullptr) *bad_offset = i;
      return std::nullopt;
    }
    out.push_back(static_cast<char>(high * 16 + low));
    i += 2;
  }
  return out;
}

std::optional<std::string> HttpRequest::Param(std::string_view key) const {
  const auto decoded = [](std::string_view component) {
    auto text = PercentDecode(component);
    return text.has_value() ? *std::move(text) : std::string(component);
  };
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (decoded(name) == key) {
      return eq == std::string_view::npos ? std::string()
                                          : decoded(pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

std::string_view HttpReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string RenderHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.code) + " ";
  out += HttpReasonPhrase(response.code);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer(HttpHandler handler, const HttpServerOptions& options)
    : handler_(std::move(handler)), options_(options) {}

StatusOr<std::unique_ptr<HttpServer>> HttpServer::Start(
    HttpHandler handler, const HttpServerOptions& options) {
  if (handler == nullptr) {
    return Status::InvalidArgument("HttpServer: handler must not be null");
  }
  if (options.max_request_bytes == 0) {
    return Status::InvalidArgument("HttpServer: max_request_bytes must be > 0");
  }
  auto listener =
      Socket::Listen(options.bind_address, options.port, kAcceptBacklog);
  if (!listener.ok()) return listener.status();
  auto port = listener->local_port();
  if (!port.ok()) return port.status();
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(handler), options));
  server->listener_ = *std::move(listener);
  server->port_ = *port;
  server->serve_thread_ =
      std::thread([raw = server.get()] { raw->ServeLoop(); });
  return server;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Stop() {
  core::MutexLock stop_lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  (void)listener_.Shutdown();
  {
    // Wake a serve blocked reading a stalled client's request.
    core::MutexLock lock(active_mu_);
    if (active_ != nullptr) (void)active_->Shutdown();
  }
  if (serve_thread_.joinable()) serve_thread_.join();
  listener_.Close();
  stopped_ = true;
}

void HttpServer::ServeLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure; the listener persists
    }
    ServeOne(*std::move(accepted));
  }
}

void HttpServer::ServeOne(Socket socket) {
  {
    core::MutexLock lock(active_mu_);
    active_ = &socket;
  }
  // Read until the end of the request head (bodies are never read: the
  // plumbing is GET-only), a cap, an idle deadline, EOF, or stop. Bytes
  // past the first head terminator — a pipelined second request — are
  // collected but ignored; this server answers one request per
  // connection and closes.
  std::string request;
  uint8_t chunk[1024];
  bool complete = false;
  bool timed_out = false;
  bool oversized = false;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (request.size() >= options_.max_request_bytes) {
      oversized = true;
      break;
    }
    auto n = options_.idle_timeout.count() > 0
                 ? socket.ReadSome(chunk, sizeof(chunk), options_.idle_timeout)
                 : socket.ReadSome(chunk, sizeof(chunk));
    if (!n.ok()) {
      timed_out = n.status().code() == StatusCode::kDeadlineExceeded;
      break;
    }
    if (*n == 0) break;  // EOF
    request.append(reinterpret_cast<const char*>(chunk), *n);
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }

  HttpResponse response;
  HttpRequest parsed;
  if (oversized) {
    response = {400, "text/plain", "request too large\n"};
  } else if (timed_out) {
    response = {408, "text/plain", "request timed out\n"};
  } else if (!complete) {
    response = {400, "text/plain", "malformed request\n"};
  } else if (Status head = ParseHttpRequestHead(request, &parsed);
             !head.ok()) {
    response = {400, "text/plain", head.message() + "\n"};
  } else if (parsed.method != "GET") {
    response = {405, "text/plain", "only GET is supported\n"};
  } else {
    response = handler_(parsed);
  }
  const std::string rendered = RenderHttpResponse(response);
  // Count before writing: a client holding the response must already see
  // its request in the registry counter.
  if (options_.requests_counter != nullptr) {
    options_.requests_counter->Increment();
  }
  (void)socket.WriteAll(reinterpret_cast<const uint8_t*>(rendered.data()),
                        rendered.size());
  {
    core::MutexLock lock(active_mu_);
    active_ = nullptr;
  }
  (void)socket.Shutdown();
}

}  // namespace net
}  // namespace ldpm
