#include "obs/admin.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/instruments.hpp"

namespace e2e::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Route label for e2e_obs_admin_requests_total: the closed route set or
/// "other", so an adversarial scraper cannot mint series.
std::string path_label(const std::string& path) {
  static const char* kKnown[] = {"/metrics", "/metrics.json", "/healthz",
                                 "/readyz",  "/statz",        "/tracez"};
  for (const char* known : kKnown) {
    if (path == known) return known;
  }
  return "other";
}

}  // namespace

bool http_head_complete(const std::string& buffer) {
  return buffer.find("\r\n\r\n") != std::string::npos ||
         buffer.find("\n\n") != std::string::npos;
}

AdminRequest parse_http_request(const std::string& head) {
  AdminRequest request;
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string line =
      eol == std::string::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return request;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  std::string target =
      sp2 == std::string::npos ? line.substr(sp1 + 1)
                               : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return request;
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  request.method = line.substr(0, sp1);
  request.path = std::move(target);
  return request;
}

std::string render_http_response(const AdminResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string tracez_json(const SpanCollector& collector,
                        std::size_t max_traces) {
  std::vector<std::string> ids = collector.trace_ids();
  if (ids.size() > max_traces) {
    ids.erase(ids.begin(),
              ids.begin() + static_cast<std::ptrdiff_t>(ids.size() -
                                                        max_traces));
  }
  std::string out = "{\"traces\":[";
  bool first_trace = true;
  for (const std::string& id : ids) {
    const std::vector<CollectedSpan> spans = collector.flatten(id);
    if (spans.empty()) continue;
    if (!first_trace) out += ",";
    first_trace = false;
    out += "{\"trace_id\":\"" + json_escape(id) + "\",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const CollectedSpan& node = spans[i];
      if (i > 0) out += ",";
      out += "{\"domain\":\"" + json_escape(node.domain) + "\"";
      out += ",\"depth\":" + std::to_string(node.depth);
      out += ",\"id\":" + std::to_string(node.span.id);
      out += ",\"parent\":" + std::to_string(node.span.parent);
      out += ",\"name\":\"" + json_escape(node.span.name) + "\"";
      out += ",\"start_us\":" + std::to_string(node.span.start);
      out += ",\"end_us\":" + std::to_string(node.span.end);
      out += node.span.failed ? ",\"failed\":true" : ",\"failed\":false";
      out += ",\"attributes\":{";
      for (std::size_t a = 0; a < node.span.attributes.size(); ++a) {
        if (a > 0) out += ",";
        out += "\"" + json_escape(node.span.attributes[a].first) +
               "\":\"" + json_escape(node.span.attributes[a].second) + "\"";
      }
      out += "}}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

AdminPlane::AdminPlane(MetricsRegistry& registry, Providers providers,
                       std::chrono::milliseconds snapshot_ttl,
                       WallClockFn clock)
    : registry_(registry),
      providers_(std::move(providers)),
      snapshot_ttl_(snapshot_ttl),
      clock_(std::move(clock)) {}

std::string AdminPlane::cached_snapshot(bool json) {
  const std::uint64_t now = clock_();
  const bool fresh =
      cache_valid_ &&
      now - cached_at_ms_ <
          static_cast<std::uint64_t>(std::max<std::int64_t>(
              snapshot_ttl_.count(), 0));
  if (!fresh) {
    if (providers_.refresh) providers_.refresh(now);
    // Render both formats per refresh so alternating text/json scrapers
    // still cost one registry walk each per TTL, not per request.
    cached_text_ = registry_.to_text();
    cached_json_ = registry_.to_json();
    cached_at_ms_ = now;
    cache_valid_ = true;
    registry_.counter(kObsSnapshotCacheTotal, {{"result", "refresh"}})
        .increment();
  } else {
    registry_.counter(kObsSnapshotCacheTotal, {{"result", "hit"}})
        .increment();
  }
  return json ? cached_json_ : cached_text_;
}

AdminResponse AdminPlane::handle(const AdminRequest& request) {
  registry_.counter(kObsAdminRequestsTotal,
                    {{"path", path_label(request.path)}})
      .increment();
  AdminResponse response;
  if (request.method.empty() || request.path.empty()) {
    response.status = 400;
    response.body = "malformed request\n";
    return response;
  }
  if (request.method != "GET") {
    response.status = 405;
    response.body = "only GET is served\n";
    return response;
  }
  if (request.path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = cached_snapshot(/*json=*/false);
    return response;
  }
  if (request.path == "/metrics.json") {
    response.content_type = "application/json";
    response.body = cached_snapshot(/*json=*/true);
    return response;
  }
  if (request.path == "/healthz" || request.path == "/readyz") {
    Health health;
    health.live = true;
    health.ready = true;
    if (providers_.health) health = providers_.health();
    const bool ok =
        request.path == "/healthz" ? health.live : health.ready;
    response.status = ok ? 200 : 503;
    response.body = ok ? (request.path == "/healthz" ? "ok\n" : "ready\n")
                       : (health.detail.empty() ? "unavailable\n"
                                                : health.detail + "\n");
    return response;
  }
  if (request.path == "/statz") {
    response.content_type = "application/json";
    response.body =
        providers_.statz_json ? providers_.statz_json() : "{}";
    return response;
  }
  if (request.path == "/tracez") {
    response.content_type = "application/json";
    response.body =
        providers_.tracez_json ? providers_.tracez_json() : "{\"traces\":[]}";
    return response;
  }
  response.status = 404;
  response.body = "unknown path " + request.path + "\n";
  return response;
}

}  // namespace e2e::obs
