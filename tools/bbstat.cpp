// bbstat — top for a running bbd daemon.
//
// Polls a bbd admin endpoint (bbd --admin ..., docs/DAEMON.md "Live
// operations") and renders a live operator view: health, RPC throughput
// and wall-clock latency quantiles, SLO burn rate and per-connection IO.
// One-shot by default; --watch N redraws every N seconds like top(1).
// --get PATH fetches one admin route and prints the raw body (scripting /
// piping into tracedump).
//
// Usage:
//   bbstat <tcp:HOST:PORT|unix:/PATH> [--watch SECONDS] [--iterations N]
//          [--get /metrics|/metrics.json|/healthz|/readyz|/statz|/tracez]
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hpp"
#include "net/stream_socket.hpp"

namespace {

using e2e::net::Endpoint;
using e2e::net::StreamSocket;

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One admin exchange: connect, GET, read to EOF (the plane closes after
/// every response).
e2e::Result<HttpReply> fetch(const Endpoint& endpoint,
                             const std::string& path) {
  auto socket = StreamSocket::connect(endpoint);
  if (!socket.ok()) return socket.error();
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (auto sent = socket.value().send_raw(e2e::BytesView(
          reinterpret_cast<const std::uint8_t*>(request.data()),
          request.size()));
      !sent.ok()) {
    return sent.error();
  }
  std::string wire;
  char chunk[16384];
  while (true) {
    const ssize_t n = ::read(socket.value().fd(), chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return e2e::make_error(e2e::ErrorCode::kUnavailable,
                             std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos || wire.rfind("HTTP/", 0) != 0) {
    return e2e::make_error(e2e::ErrorCode::kBadMessage,
                           "malformed admin response");
  }
  HttpReply reply;
  const std::size_t sp = wire.find(' ');
  reply.status = sp == std::string::npos
                     ? 0
                     : std::atoi(wire.c_str() + sp + 1);
  reply.body = wire.substr(head_end + 4);
  return reply;
}

/// A flat view of one Prometheus text exposition: "family{labels}" -> v.
using MetricSeries = std::map<std::string, double>;

MetricSeries parse_metrics_text(const std::string& text) {
  MetricSeries series;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    series[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return series;
}

/// Sum of every series in `family` (exact braces-prefix match).
double family_sum(const MetricSeries& series, const std::string& family) {
  double total = 0;
  for (const auto& [key, value] : series) {
    if (key == family || key.rfind(family + "{", 0) == 0) total += value;
  }
  return total;
}

double series_value(const MetricSeries& series, const std::string& key) {
  const auto it = series.find(key);
  return it == series.end() ? 0 : it->second;
}

const e2e::json::Value* object_array(const e2e::json::Value& doc,
                                     const char* key) {
  const e2e::json::Value* member = doc.find(key);
  return member != nullptr && member->is_array() ? member : nullptr;
}

double number_or(const e2e::json::Value& object, const char* key,
                 double fallback) {
  const e2e::json::Value* member = object.find(key);
  return member != nullptr && member->is_number() ? member->number
                                                  : fallback;
}

std::string string_or(const e2e::json::Value& object, const char* key,
                      const char* fallback) {
  const e2e::json::Value* member = object.find(key);
  return member != nullptr && member->is_string() ? member->string
                                                  : fallback;
}

void render(const Endpoint& endpoint, const HttpReply& healthz,
            const MetricSeries& now, const MetricSeries& prev,
            double interval_s, const std::string& statz) {
  std::printf("bbd @ %s — %s\n", endpoint.to_string().c_str(),
              healthz.status == 200 ? "healthy" : "UNHEALTHY");
  const double frames_rx =
      series_value(now, "e2e_net_frames_total{dir=\"rx\"}");
  const double frames_tx =
      series_value(now, "e2e_net_frames_total{dir=\"tx\"}");
  const double prev_rx =
      series_value(prev, "e2e_net_frames_total{dir=\"rx\"}");
  const double prev_tx =
      series_value(prev, "e2e_net_frames_total{dir=\"tx\"}");
  std::printf(
      "conns %.0f  frames rx/tx %.0f/%.0f  bytes rx+tx %.0f  queued %.0f\n",
      series_value(now, "e2e_net_conns_active"),
      frames_rx, frames_tx,
      family_sum(now, "e2e_net_stream_bytes_total"),
      series_value(now, "e2e_net_write_queue_bytes"));
  if (interval_s > 0 && !prev.empty()) {
    std::printf("rate  rx %.1f/s  tx %.1f/s\n",
                (frames_rx - prev_rx) / interval_s,
                (frames_tx - prev_tx) / interval_s);
  }
  std::printf(
      "rpc wall  p50 %.0fus  p95 %.0fus  p99 %.0fus   burn %.2fx (alerts "
      "%.0f)\n",
      series_value(now,
                   "e2e_slo_latency_quantile_us{objective=\"bbd.rpc.wall\","
                   "quantile=\"p50\"}"),
      series_value(now,
                   "e2e_slo_latency_quantile_us{objective=\"bbd.rpc.wall\","
                   "quantile=\"p95\"}"),
      series_value(now,
                   "e2e_slo_latency_quantile_us{objective=\"bbd.rpc.wall\","
                   "quantile=\"p99\"}"),
      series_value(now,
                   "e2e_slo_burn_rate{objective=\"bbd.rpc\",window=\"60s\"}"),
      family_sum(now, "e2e_slo_burn_alerts_total"));

  auto parsed = e2e::json::parse(statz);
  if (!parsed.ok()) {
    std::printf("statz: unparseable (%s)\n",
                parsed.error().to_text().c_str());
    return;
  }
  if (const auto* conns = object_array(parsed.value(), "connections")) {
    std::printf("%-6s %-6s %10s %10s %8s %8s %8s\n", "CONN", "VIA",
                "BYTES_RX", "BYTES_TX", "FR_RX", "FR_TX", "QUEUED");
    for (const auto& conn : conns->array) {
      std::printf("%-6.0f %-6s %10.0f %10.0f %8.0f %8.0f %8.0f\n",
                  number_or(conn, "id", 0),
                  string_or(conn, "transport", "?").c_str(),
                  number_or(conn, "bytes_rx", 0),
                  number_or(conn, "bytes_tx", 0),
                  number_or(conn, "frames_rx", 0),
                  number_or(conn, "frames_tx", 0),
                  number_or(conn, "queued_bytes", 0));
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <tcp:HOST:PORT|unix:/PATH> [--watch SECONDS]"
               " [--iterations N] [--get PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  auto endpoint = Endpoint::parse(argv[1]);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "bbstat: bad endpoint '%s': %s\n", argv[1],
                 endpoint.error().to_text().c_str());
    return 2;
  }
  double watch_s = 0;
  long iterations = -1;  // -1 = forever (watch) / once (no watch)
  std::string get_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--watch") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      watch_s = std::atof(value);
    } else if (arg == "--iterations") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      iterations = std::atol(value);
    } else if (arg == "--get") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      get_path = value;
    } else {
      return usage(argv[0]);
    }
  }

  if (!get_path.empty()) {
    auto reply = fetch(endpoint.value(), get_path);
    if (!reply.ok()) {
      std::fprintf(stderr, "bbstat: %s\n",
                   reply.error().to_text().c_str());
      return 1;
    }
    std::fwrite(reply.value().body.data(), 1, reply.value().body.size(),
                stdout);
    return reply.value().status == 200 ? 0 : 1;
  }

  MetricSeries prev;
  long remaining = iterations;
  while (true) {
    auto healthz = fetch(endpoint.value(), "/healthz");
    auto metrics = fetch(endpoint.value(), "/metrics");
    auto statz = fetch(endpoint.value(), "/statz");
    if (!healthz.ok() || !metrics.ok() || !statz.ok()) {
      const e2e::Error& error = !healthz.ok()  ? healthz.error()
                                : !metrics.ok() ? metrics.error()
                                                : statz.error();
      std::fprintf(stderr, "bbstat: scrape failed: %s\n",
                   error.to_text().c_str());
      return 1;
    }
    const MetricSeries now = parse_metrics_text(metrics.value().body);
    if (watch_s > 0) std::printf("\x1b[H\x1b[2J");
    render(endpoint.value(), healthz.value(), now, prev, watch_s,
           statz.value().body);
    std::fflush(stdout);
    prev = now;
    if (watch_s <= 0) break;
    if (remaining > 0 && --remaining == 0) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(watch_s));
  }
  return 0;
}
