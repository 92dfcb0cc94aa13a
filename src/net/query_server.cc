#include "net/query_server.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "protocols/factory.h"

namespace ldpm {
namespace net {

namespace {

/// Renders a double with 17 significant digits — enough for the decimal
/// text to round-trip the exact IEEE value, which the bitwise-equality
/// smoke diffs (server_demo --query) rely on.
std::string JsonDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// A JSON string literal (RFC 8259 §7): quote, backslash and every
/// control byte below 0x20 are escaped; other bytes pass through.
std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escape;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

HttpResponse Json(int code, std::string body) {
  return {code, "application/json", std::move(body)};
}

HttpResponse BadRequest(std::string message) {
  return {400, "text/plain", std::move(message) + "\n"};
}

HttpResponse NotFound(std::string message) {
  return {404, "text/plain", std::move(message) + "\n"};
}

/// Parses "0,2,5" into ascending-unique attribute ids and the selector
/// mask. On failure returns the byte-precise 400 via `error`.
bool ParseAttrs(const std::string& raw, int d, std::vector<int>& attrs,
                uint64_t& beta, HttpResponse& error) {
  attrs.clear();
  beta = 0;
  if (raw.empty()) {
    error = BadRequest("attrs: expected comma-separated attribute ids");
    return false;
  }
  size_t pos = 0;
  while (pos <= raw.size()) {
    const size_t comma = raw.find(',', pos);
    const std::string token =
        raw.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    pos = comma == std::string::npos ? raw.size() + 1 : comma + 1;
    if (token.empty() || token.find_first_not_of("0123456789") !=
                             std::string::npos) {
      error = BadRequest("attrs: expected comma-separated attribute ids, got \"" +
                         token + "\"");
      return false;
    }
    if (token.size() > 9) {
      error = BadRequest("attrs: attribute " + token + " out of range [0, " +
                         std::to_string(d) + ")");
      return false;
    }
    const int attribute = std::stoi(token);
    if (attribute >= d) {
      error = BadRequest("attrs: attribute " + std::to_string(attribute) +
                         " out of range [0, " + std::to_string(d) + ")");
      return false;
    }
    const uint64_t bit = uint64_t{1} << attribute;
    if (beta & bit) {
      error = BadRequest("attrs: duplicate attribute " +
                         std::to_string(attribute));
      return false;
    }
    beta |= bit;
    attrs.push_back(attribute);
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<QueryServer>> QueryServer::Start(
    engine::Collector* collector, const HttpServerOptions& options) {
  if (collector == nullptr) {
    return Status::InvalidArgument("QueryServer: collector must not be null");
  }
  std::unique_ptr<QueryServer> server(new QueryServer(collector));
  HttpServerOptions http_options = options;
  http_options.requests_counter = collector->metrics()->GetCounter(
      "ldpm_query_http_requests_total",
      "Requests the query endpoint answered (any status)");
  auto http = HttpServer::Start(
      [raw = server.get()](const HttpRequest& request) {
        return raw->Handle(request);
      },
      http_options);
  if (!http.ok()) return http.status();
  server->http_ = *std::move(http);
  return server;
}

StatusOr<query::MarginalCache*> QueryServer::CacheFor(
    const std::string& collection) {
  {
    core::MutexLock lock(caches_mu_);
    auto it = caches_.find(collection);
    if (it != caches_.end()) return it->second.get();
  }
  // Built outside the lock: Create validates the collection against the
  // collector and precomputes the full selector set, and one slow
  // first-touch must not block queries against every other collection.
  auto cache = query::MarginalCache::Create(collector_, collection);
  if (!cache.ok()) return cache.status();
  core::MutexLock lock(caches_mu_);
  // Two first-touch requests can race the build; emplace keeps the winner
  // and both callers serve from the installed instance.
  auto [it, inserted] = caches_.emplace(collection, *std::move(cache));
  (void)inserted;
  return it->second.get();
}

HttpResponse QueryServer::Handle(const HttpRequest& request) {
  if (request.path == "/v1/marginal") return HandleMarginal(request);
  if (request.path == "/v1/model") return HandleModel(request);
  if (request.path == "/v1/collections") return HandleCollections();
  if (request.path == "/healthz") return {200, "text/plain", "ok\n"};
  return NotFound(
      "unknown path; try /v1/marginal, /v1/model, /v1/collections, or "
      "/healthz");
}

HttpResponse QueryServer::HandleMarginal(const HttpRequest& request) {
  const auto collection = request.Param("collection");
  if (!collection.has_value() || collection->empty()) {
    return BadRequest("missing required parameter: collection");
  }
  auto cache = CacheFor(*collection);
  if (!cache.ok()) {
    if (cache.status().code() == StatusCode::kNotFound) {
      return NotFound("unknown collection: " + *collection);
    }
    return BadRequest(cache.status().message());
  }
  const auto attrs_param = request.Param("attrs");
  if (!attrs_param.has_value()) {
    return BadRequest("missing required parameter: attrs");
  }
  std::vector<int> attrs;
  uint64_t beta = 0;
  HttpResponse error;
  if (!ParseAttrs(*attrs_param, (*cache)->dimensions(), attrs, beta, error)) {
    return error;
  }
  if (static_cast<int>(attrs.size()) > (*cache)->max_order()) {
    return BadRequest("attrs: order " + std::to_string(attrs.size()) +
                      " exceeds cached maximum " +
                      std::to_string((*cache)->max_order()));
  }
  auto answer = (*cache)->Marginal(beta);
  if (!answer.ok()) return BadRequest(answer.status().message());

  std::string body = "{\"collection\":" + JsonString(*collection);
  body += ",\"protocol\":\"";
  body += ProtocolKindName((*cache)->kind());
  body += "\"";
  body += ",\"d\":" + std::to_string(answer->table.dimensions());
  body += ",\"watermark\":" + std::to_string(answer->watermark);
  body += ",\"epoch\":" + std::to_string(answer->epoch);
  body += std::string(",\"stale\":") + (answer->stale ? "true" : "false");
  body += ",\"attrs\":[";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) body += ",";
    body += std::to_string(attrs[i]);
  }
  body += "],\"beta\":" + std::to_string(beta);
  body += ",\"order\":" + std::to_string(attrs.size());
  body += ",\"cells\":[";
  for (uint64_t i = 0; i < answer->table.size(); ++i) {
    if (i != 0) body += ",";
    body += JsonDouble(answer->table.at_compact(i));
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

HttpResponse QueryServer::HandleModel(const HttpRequest& request) {
  const auto collection = request.Param("collection");
  if (!collection.has_value() || collection->empty()) {
    return BadRequest("missing required parameter: collection");
  }
  auto cache = CacheFor(*collection);
  if (!cache.ok()) {
    if (cache.status().code() == StatusCode::kNotFound) {
      return NotFound("unknown collection: " + *collection);
    }
    return BadRequest(cache.status().message());
  }
  auto snapshot = (*cache)->Get();
  if (!snapshot.ok()) return BadRequest(snapshot.status().message());
  auto model = (*snapshot)->Model();
  if (!model.ok()) return BadRequest(model.status().message());

  const ChowLiuTree& tree = (*model)->tree();
  std::string body = "{\"collection\":" + JsonString(*collection);
  body += ",\"d\":" + std::to_string((*model)->dimensions());
  body += ",\"watermark\":" + std::to_string((*snapshot)->watermark());
  body += ",\"epoch\":" + std::to_string((*snapshot)->epoch());
  body += ",\"total_mutual_information\":" +
          JsonDouble(tree.total_mutual_information);
  body += ",\"edges\":[";
  for (size_t i = 0; i < tree.edges.size(); ++i) {
    if (i != 0) body += ",";
    body += "{\"a\":" + std::to_string(tree.edges[i].a);
    body += ",\"b\":" + std::to_string(tree.edges[i].b);
    body += ",\"mutual_information\":" +
            JsonDouble(tree.edges[i].mutual_information) + "}";
  }
  body += "],\"cpts\":[";
  const auto cpts = (*model)->Cpts();
  for (size_t i = 0; i < cpts.size(); ++i) {
    if (i != 0) body += ",";
    body += "{\"attribute\":" + std::to_string(cpts[i].attribute);
    body += ",\"parent\":" + std::to_string(cpts[i].parent);
    if (cpts[i].parent < 0) {
      body += ",\"p1\":" + JsonDouble(cpts[i].p_root);
    } else {
      body += ",\"p1_given_parent\":[" + JsonDouble(cpts[i].p_given_parent[0]) +
              "," + JsonDouble(cpts[i].p_given_parent[1]) + "]";
    }
    body += "}";
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

HttpResponse QueryServer::HandleCollections() {
  std::string body = "{\"collections\":[";
  bool first = true;
  for (const std::string& id : collector_->CollectionIds()) {
    auto handle = collector_->Handle(id);
    if (!handle.ok()) continue;  // unregistered between list and lookup
    if (!first) body += ",";
    first = false;
    body += "{\"id\":" + JsonString(id);
    body += ",\"protocol\":\"";
    body += ProtocolKindName(handle->kind());
    body += "\",\"d\":" + std::to_string(handle->config().d);
    body += ",\"k\":" + std::to_string(handle->config().k) + "}";
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

}  // namespace net
}  // namespace ldpm
