// bbd — the standalone bandwidth-broker daemon.
//
// Hosts a deterministic ChainWorld behind real sockets (TCP and/or
// UNIX-domain) speaking the sealed TLV RPC of docs/DAEMON.md. Prints one
// "listening on <endpoint>" line per bound listener on stdout (ephemeral
// TCP ports resolved), then serves until SIGINT/SIGTERM or a kShutdown
// request.
//
// With --admin, a plaintext listener on the same event loop serves the
// telemetry plane (GET /metrics, /metrics.json, /healthz, /readyz,
// /statz, /tracez — see docs/OBSERVABILITY.md) and prints one "admin on <endpoint>" line per
// bound admin listener. On graceful drain the daemon appends an audit
// "shutdown" record and writes a final metrics snapshot to --metrics-out
// (default bbd.metrics.json; pass an empty string to disable).
//
// Usage:
//   bbd [--listen tcp:HOST:PORT | --listen unix:/PATH]...
//       [--admin tcp:HOST:PORT | --admin unix:/PATH]...
//       [--domains N] [--seed N]
//       [--durability-dir DIR] [--recover]
//       [--metrics-out PATH] [--idle-timeout-ms N] [--auth-seed N]
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/bbd_service.hpp"

namespace {

e2e::net::BbdService* g_service = nullptr;

void on_signal(int) {
  if (g_service != nullptr) g_service->shutdown_gracefully();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen tcp:HOST:PORT|unix:/PATH]..."
               " [--admin tcp:HOST:PORT|unix:/PATH]... [--domains N]"
               " [--seed N]"
               " [--durability-dir DIR] [--recover] [--metrics-out PATH]"
               " [--idle-timeout-ms N] [--auth-seed N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::net::BbdService::Options options;
  // Tool-level default; the embedding service default stays "disabled" so
  // in-process harnesses never drop files. --metrics-out '' opts out.
  options.metrics_out = "bbd.metrics.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--listen") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      auto endpoint = e2e::net::Endpoint::parse(value);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "bbd: bad endpoint '%s': %s\n", value,
                     endpoint.error().to_text().c_str());
        return 2;
      }
      options.listen_on.push_back(endpoint.value());
    } else if (arg == "--admin") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      auto endpoint = e2e::net::Endpoint::parse(value);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "bbd: bad admin endpoint '%s': %s\n", value,
                     endpoint.error().to_text().c_str());
        return 2;
      }
      options.admin_on.push_back(endpoint.value());
    } else if (arg == "--metrics-out") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.metrics_out = value;
    } else if (arg == "--domains") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.world.domains = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.world.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--durability-dir") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.durability_dir = value;
    } else if (arg == "--recover") {
      options.recover = true;
    } else if (arg == "--idle-timeout-ms") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.idle_timeout =
          std::chrono::milliseconds(std::strtoll(value, nullptr, 10));
    } else if (arg == "--auth-seed") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      options.auth_seed = std::strtoull(value, nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (options.listen_on.empty()) {
    auto endpoint = e2e::net::Endpoint::parse("tcp:127.0.0.1:0");
    options.listen_on.push_back(endpoint.value());
  }

  e2e::net::BbdService service(std::move(options));
  if (auto started = service.start(); !started.ok()) {
    std::fprintf(stderr, "bbd: start failed: %s\n",
                 started.error().to_text().c_str());
    return 1;
  }
  g_service = &service;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  for (const auto& endpoint : service.bound_endpoints()) {
    std::printf("listening on %s\n", endpoint.to_string().c_str());
  }
  for (const auto& endpoint : service.admin_endpoints()) {
    std::printf("admin on %s\n", endpoint.to_string().c_str());
  }
  std::fflush(stdout);
  service.wait();
  g_service = nullptr;
  return 0;
}
