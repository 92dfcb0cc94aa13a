#include "net/stats_server.h"

#include <utility>

namespace ldpm {
namespace net {

StatusOr<std::unique_ptr<StatsServer>> StatsServer::Start(
    obs::MetricsRegistry* registry, const HttpServerOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("StatsServer: registry must not be null");
  }
  HttpServerOptions http_options = options;
  http_options.requests_counter = registry->GetCounter(
      "ldpm_stats_requests_total", "Requests the /stats endpoint answered");
  auto http = HttpServer::Start(
      [registry](const HttpRequest& request) -> HttpResponse {
        if (request.path == "/stats" || request.path == "/metrics") {
          return {200, "text/plain; version=0.0.4; charset=utf-8",
                  registry->TextExposition()};
        }
        if (request.path == "/healthz") {
          return {200, "text/plain", "ok\n"};
        }
        return {404, "text/plain", "unknown path; try /stats or /healthz\n"};
      },
      http_options);
  if (!http.ok()) return http.status();
  return std::unique_ptr<StatsServer>(new StatsServer(*std::move(http)));
}

}  // namespace net
}  // namespace ldpm
