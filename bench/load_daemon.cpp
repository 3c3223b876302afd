// Daemon throughput under a pipelined client fleet (ISSUE 10).
//
// load_broker prices admission with the engine in-process; this bench
// prices the same RAR churn through the full daemon stack — sealed TLV
// framing and the event loop that executes every request — and measures
// what wire pipelining buys. A fleet of C connections (one BbdClient per
// thread) drives mini-batches of tunnel-flow RARs against a forked bbd:
//
//   serial     every call is one synchronous round trip (pipeline_depth
//              1, the serial wire);
//   pipelined  the client opens with pipeline_depth D and each batch keeps
//              D sealed requests in flight per connection
//              (call_async/wait).
//
// Both modes run the identical operation sequence: per batch, D
// kTunnelReserve flows into the connection's own established aggregate
// tunnel, then the D matching kTunnelRelease ops. Throughput is RAR ops/s
// across the fleet (a reserve and a release each count once); latencies
// are per-op wall-clock from call_async() to its wait() returning, so
// pipelined numbers include queueing — that is the operator-visible
// number.
//
// The RESULT line `daemon_pipeline_x=` (pipelined / serial RARs/s) is
// gated by scripts/bench_snapshot.sh — >= 3x on hosts with >= 4 cores,
// > 1x sanity on 2-3 cores, recorded-only on a single core (the client
// fleet and the daemon's loop thread all contend for one CPU, so the
// ratio measures oversubscription, not pipelining; same policy as
// load_broker's scaling gate).
//
// Usage: load_daemon [--smoke] [--json-out PATH]
//   --smoke     2 connections x depth 4, 50 batches (CI-sized)
//   --json-out  machine-readable summary; bench_snapshot.sh folds it into
//               BENCH_daemon.json under "load" (docs/PERFORMANCE.md)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "daemon_harness.hpp"
#include "net/bbd_client.hpp"
#include "sig/message.hpp"

using namespace e2e;
namespace bu = e2e::benchutil;

namespace {

struct Quantiles {
  double p50_us = 0;
  double p99_us = 0;
};

Quantiles quantiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  Quantiles q;
  q.p50_us = samples[samples.size() / 2];
  q.p99_us =
      samples[std::min(samples.size() - 1, (samples.size() * 99) / 100)];
  return q;
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

net::BbdRequest tunnel_reserve_request(const std::string& tunnel_id,
                                       const std::string& user_dn) {
  net::BbdRequest req;
  req.op = net::BbdOp::kTunnelReserve;
  req.stra = tunnel_id;
  req.strb = user_dn;
  req.f64a = 1e6;
  req.u64a = 0;
  req.u64b = static_cast<std::uint64_t>(seconds(600));
  req.f64b = static_cast<double>(seconds(2));
  return req;
}

net::BbdRequest tunnel_release_request(const std::string& tunnel_id,
                                       const std::string& sub_id) {
  net::BbdRequest req;
  req.op = net::BbdOp::kTunnelRelease;
  req.stra = tunnel_id;
  req.strb = sub_id;
  return req;
}

struct FleetResult {
  double rars_per_sec = 0;
  Quantiles latency;
  std::uint64_t ops = 0;
};

/// One connection's share of the load: establish a private aggregate
/// tunnel, then run `batches` mini-batches of `depth` reserve ops
/// followed by their `depth` releases. Both modes issue the identical
/// sequence through call_async/wait; `window` is the client's
/// pipeline_depth — with window 1 every call_async pumps its predecessor
/// to completion first, which is exactly the serial wire.
void run_connection(const bu::DaemonHarness& harness, std::size_t index,
                    std::uint64_t window, std::uint64_t depth,
                    std::size_t batches, std::atomic<bool>* failed,
                    std::vector<double>* samples) {
  auto connected = harness.connect(window);
  if (!connected.ok()) {
    failed->store(true);
    return;
  }
  net::BbdClient client = std::move(connected.value());
  if (!client.hello(false).ok()) {
    failed->store(true);
    return;
  }
  const auto dn = client.make_user("u" + std::to_string(index), 0);
  if (!dn.ok()) {
    failed->store(true);
    return;
  }
  net::BbdClient::ReserveArgs agg;
  agg.user = "u" + std::to_string(index);
  agg.rate = 1e9;
  agg.interval = {0, seconds(36000)};
  agg.is_tunnel = true;
  agg.at = seconds(1);
  const auto established = client.reserve(agg);
  if (!established.ok() || !established->reply.granted) {
    failed->store(true);
    return;
  }
  const std::string tunnel_id = established->reply.tunnel_id;

  samples->reserve(batches * depth * 2);
  std::vector<net::BbdClient::Call> calls(depth);
  std::vector<std::chrono::steady_clock::time_point> starts(depth);
  std::vector<std::string> sub_ids(depth);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::uint64_t k = 0; k < depth; ++k) {
      starts[k] = std::chrono::steady_clock::now();
      auto call =
          client.call_async(tunnel_reserve_request(tunnel_id, dn.value()));
      if (!call.ok()) {
        failed->store(true);
        return;
      }
      calls[k] = call.value();
    }
    for (std::uint64_t k = 0; k < depth; ++k) {
      auto res = client.wait(calls[k]);
      if (!res.ok()) {
        failed->store(true);
        return;
      }
      samples->push_back(elapsed_us(starts[k]));
      auto reply = sig::RarReply::decode(res.value().bytes);
      if (!reply.ok() || !reply->granted || reply->handles.empty()) {
        failed->store(true);
        return;
      }
      sub_ids[k] = reply->handles[0].second;
    }
    for (std::uint64_t k = 0; k < depth; ++k) {
      starts[k] = std::chrono::steady_clock::now();
      auto call =
          client.call_async(tunnel_release_request(tunnel_id, sub_ids[k]));
      if (!call.ok()) {
        failed->store(true);
        return;
      }
      calls[k] = call.value();
    }
    for (std::uint64_t k = 0; k < depth; ++k) {
      auto res = client.wait(calls[k]);
      if (!res.ok()) {
        failed->store(true);
        return;
      }
      samples->push_back(elapsed_us(starts[k]));
    }
  }
}

/// Fork a fresh daemon, run the fleet, shut the daemon down. Each mode
/// gets its own daemon so the serial numbers are never polluted by the
/// pipelined run's world state.
FleetResult run_fleet(std::size_t connections, std::uint64_t window,
                      std::uint64_t depth, std::size_t batches) {
  bu::DaemonHarness harness = bu::DaemonHarness::launch();

  // Control connection: size the world before the fleet dials in.
  auto control = harness.connect();
  if (!control.ok()) std::abort();
  if (!control->configure(3, 0, 0, 10e9, 10e9).ok()) std::abort();

  std::atomic<bool> failed{false};
  std::vector<std::vector<double>> samples(connections);
  std::vector<std::thread> fleet;
  fleet.reserve(connections);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    fleet.emplace_back(run_connection, std::cref(harness), c, window, depth,
                       batches, &failed, &samples[c]);
  }
  for (auto& t : fleet) t.join();
  const double wall_us = elapsed_us(start);
  if (failed.load()) std::abort();
  if (!control->shutdown_daemon().ok()) std::abort();

  FleetResult result;
  std::vector<double> merged;
  for (auto& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  result.ops = merged.size();  // one sample per RAR op
  result.rars_per_sec =
      wall_us > 0 ? static_cast<double>(result.ops) / (wall_us / 1e6) : 0;
  result.latency = quantiles(std::move(merged));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t connections = 4;
  std::uint64_t depth = 8;
  std::size_t batches = 100;
  bool smoke = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      connections = 2;
      depth = 4;
      batches = 50;
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  bu::heading("load_daemon",
              "daemon RAR throughput: serial vs pipelined client fleet");
  bu::note(std::to_string(connections) + " connections x depth " +
           std::to_string(depth) + ", " + std::to_string(batches) +
           " tunnel-flow batches per connection; identical op sequence "
           "both modes.");

  const FleetResult serial = run_fleet(connections, 1, depth, batches);
  const FleetResult pipelined = run_fleet(connections, depth, depth, batches);

  bu::row("%-12s %-8s %12s %10s %10s", "mode", "depth", "RARs/s", "p50(us)",
          "p99(us)");
  bu::rule();
  bu::row("%-12s %-8d %12.0f %10.0f %10.0f", "serial", 1,
          serial.rars_per_sec, serial.latency.p50_us, serial.latency.p99_us);
  bu::row("%-12s %-8llu %12.0f %10.0f %10.0f", "pipelined",
          static_cast<unsigned long long>(depth), pipelined.rars_per_sec,
          pipelined.latency.p50_us, pipelined.latency.p99_us);
  bu::rule();

  const double pipeline_x =
      serial.rars_per_sec > 0 ? pipelined.rars_per_sec / serial.rars_per_sec
                              : 0;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("RESULT daemon_pipeline_x=%.2f cores=%u\n", pipeline_x, cores);

  bool ok = true;
  ok &= bu::check(serial.ops == pipelined.ops && serial.ops > 0,
                  "both modes completed the identical op count");
  // Core-aware gate, mirroring load_broker's scaling policy: the ratio
  // only measures pipelining when the fleet and the daemon's loop thread
  // actually run in parallel.
  if (cores >= 4) {
    ok &= bu::check(pipeline_x >= 3.0,
                    "depth-" + std::to_string(depth) +
                        " pipeline >= 3x serial RARs/s");
  } else if (cores >= 2) {
    ok &= bu::check(pipeline_x > 1.0, "pipeline beats serial (2-3 cores)");
  } else {
    bu::note("pipeline gate skipped: 1 core; recorded only");
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << " \"bench\": \"load_daemon\",\n"
        << " \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << " \"connections\": " << connections << ",\n"
        << " \"batches\": " << batches << ",\n"
        << " \"serial\": {\"rars_per_sec\": " << serial.rars_per_sec
        << ", \"p50_us\": " << serial.latency.p50_us
        << ", \"p99_us\": " << serial.latency.p99_us << "},\n"
        << " \"pipelined\": {\"depth\": " << depth
        << ", \"rars_per_sec\": " << pipelined.rars_per_sec
        << ", \"p50_us\": " << pipelined.latency.p50_us
        << ", \"p99_us\": " << pipelined.latency.p99_us << "},\n"
        << " \"pipeline_x\": " << pipeline_x << ",\n"
        << " \"cores\": " << cores << ",\n"
        << " \"gated\": " << (cores >= 2 ? "true" : "false") << "\n"
        << "}\n";
    ok &= bu::check(static_cast<bool>(out), "wrote " + json_out);
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
