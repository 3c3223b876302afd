// The daemon admin telemetry plane, transport-agnostic half.
//
// bbd's --admin listener (docs/DAEMON.md "Live operations") serves a
// deliberately minimal HTTP/1.0 surface: every exchange is one GET, one
// response, connection closed. This module owns everything about that
// surface except the sockets — request parsing, routing, the scrape-safe
// registry snapshot cache, and the /tracez serialization — so the whole
// plane is unit-testable without an event loop
// (tests/obs_admin_test.cpp) and the net layer only shuttles bytes.
//
// Routes (the wire format is contract-documented in OBSERVABILITY.md):
//   GET /metrics       Prometheus text exposition (registry.to_text())
//   GET /metrics.json  the registry's JSON snapshot (registry.to_json())
//   GET /healthz       liveness: 200 "ok" — answering is being live
//   GET /readyz        readiness: world built, not draining
//   GET /statz         per-connection introspection JSON
//   GET /tracez        recent reservation trace trees, collector-
//                      compatible JSON (tools/tracedump --from-json)
//
// Scrape safety: /metrics and /metrics.json render through a cached
// snapshot with a short TTL, so a scraper herd costs one registry walk
// per TTL. In bbd that walk runs on the request loop, between requests.
// Cache behavior is observable via
// e2e_obs_snapshot_cache_total{result=hit|refresh}.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"

namespace e2e::obs {

/// One parsed admin request (only the head matters; bodies are ignored).
struct AdminRequest {
  std::string method;
  std::string path;  // query string stripped
};

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// True once `buffer` holds a complete request head (blank line seen).
bool http_head_complete(const std::string& buffer);

/// Parse the request line out of a complete head. Malformed heads yield
/// method/path empty (the router answers 400).
AdminRequest parse_http_request(const std::string& head);

/// Render a full HTTP/1.0 response (status line, minimal headers,
/// Connection: close, body).
std::string render_http_response(const AdminResponse& response);

/// Serialize collected traces for /tracez: the TraceRecorder::to_json
/// span shape, extended with each span's exporting "domain" and merged-
/// tree "depth", wrapped as {"traces":[{"trace_id":...,"spans":[...]}]}.
/// At most the `max_traces` most recent trace ids are included.
std::string tracez_json(const SpanCollector& collector,
                        std::size_t max_traces);

class AdminPlane {
 public:
  struct Health {
    bool live = false;    // the serving loop answered
    bool ready = false;   // world built, not draining
    std::string detail;   // short human-readable reason when not ready
  };

  /// Data the hosting daemon plugs in. Every callback runs on the thread
  /// that calls handle() — in bbd, the request loop, between requests.
  struct Providers {
    std::function<Health()> health;
    std::function<std::string()> statz_json;
    std::function<std::string()> tracez_json;
    /// Invoked before a fresh registry snapshot is rendered (cache
    /// refresh only, never on a cache hit) — the daemon publishes its
    /// window/burn-rate gauges here so scrapes see current values.
    std::function<void(std::uint64_t now_ms)> refresh;
  };

  AdminPlane(MetricsRegistry& registry, Providers providers,
             std::chrono::milliseconds snapshot_ttl =
                 std::chrono::milliseconds(250),
             WallClockFn clock = steady_wall_clock());

  /// Route one request. Not synchronized: one thread serves the plane.
  AdminResponse handle(const AdminRequest& request);

 private:
  std::string cached_snapshot(bool json);

  MetricsRegistry& registry_;
  Providers providers_;
  std::chrono::milliseconds snapshot_ttl_;
  WallClockFn clock_;

  std::uint64_t cached_at_ms_ = 0;
  bool cache_valid_ = false;
  std::string cached_text_;
  std::string cached_json_;
};

}  // namespace e2e::obs
