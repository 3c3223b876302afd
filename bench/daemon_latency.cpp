// Daemon transport overhead: wall-clock RAR setup latency through the
// in-memory world vs the same operation over the UNIX-socket daemon.
//
// Both paths execute the identical hop-by-hop reserve+release against an
// identically-seeded 3-domain world; the virtual (modeled) latency is the
// same by construction, so the wall-clock difference is pure transport
// cost: length framing, the sealed channel, and the daemon's event loop.
// The daemon path runs against one daemon with its --admin plane open,
// in pairs of batches: one batch while a concurrent scraper hammers the
// plane (/metrics + /statz), which bbd serves on the same loop as
// requests, and one while it only probes /healthz, in alternating order.
// The scrape cost is the median over the pairs of (scraped p99 -
// unscraped p99): a one-off scheduler stall lands in one batch of one
// pair and cannot move the median, while a systematic per-scrape cost on
// the loop shows up in every pair. The full (non-smoke) run gates that
// median within 5% of the unscraped p99 plus 25 us. It also times one
// /metrics render in process, refreshed and cached, and gates a 1 Hz
// scrape below 1% of loop time. Writes
// BENCH_daemon.json via scripts/bench_snapshot.sh (which folds the
// scrape-overhead series into BENCH_obs.json); the numbers are tracked
// in docs/PERFORMANCE.md.
//
// Usage: daemon_latency [--smoke] [--json-out PATH]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "daemon_harness.hpp"
#include "kit/chain_world.hpp"
#include "net/stream_socket.hpp"
#include "obs/admin.hpp"

using namespace e2e;
using namespace e2e::kit;
namespace bu = e2e::benchutil;

namespace {

struct Quantiles {
  double p50_us = 0;
  double p99_us = 0;
};

Quantiles quantiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Quantiles q;
  q.p50_us = samples[samples.size() / 2];
  q.p99_us = samples[std::min(samples.size() - 1,
                              (samples.size() * 99) / 100)];
  return q;
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Quantiles run_local(std::size_t iterations) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  std::vector<double> samples;
  samples.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 1e6), seconds(1));
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    if (!outcome.ok() || !outcome->reply.granted) std::abort();
    if (!world.engine().release_end_to_end(outcome->reply).ok()) {
      std::abort();
    }
    samples.push_back(elapsed_us(start));
  }
  return quantiles(std::move(samples));
}

/// One admin-plane HTTP GET: connect, request, drain to EOF. Returns
/// false when the plane was unreachable (the scraper just retries).
bool admin_get(const net::Endpoint& endpoint, const std::string& path) {
  auto sock = net::StreamSocket::connect(endpoint);
  if (!sock.ok()) return false;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!sock
           ->send_raw(BytesView(
               reinterpret_cast<const std::uint8_t*>(request.data()),
               request.size()))
           .ok()) {
    return false;
  }
  char buffer[4096];
  std::size_t total = 0;
  while (true) {
    const ssize_t n = ::read(sock->fd(), buffer, sizeof buffer);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }
  return total > 0;
}

struct RenderCost {
  std::size_t samples = 0;
  double refresh_p50_us = 0;  // forced registry snapshot refresh
  double hit_p50_us = 0;      // cache hit inside the snapshot TTL
};

/// What one /metrics scrape costs the loop that serves it, measured on
/// this process's registry after the runs above loaded it: the median
/// of `samples` forced refreshes (snapshot TTL zero: registry walk, text
/// and JSON render) and of as many cache hits. bbd renders on its request
/// loop, so this is loop time a scrape takes from requests.
RenderCost measure_render(std::size_t samples) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::AdminRequest get{"GET", "/metrics"};
  auto median_us = [&](obs::AdminPlane& plane) {
    std::vector<double> us;
    for (std::size_t i = 0; i < samples; ++i) {
      const auto start = std::chrono::steady_clock::now();
      if (plane.handle(get).body.empty()) std::abort();
      us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
  };
  obs::AdminPlane refreshing(registry, {}, std::chrono::milliseconds(0));
  obs::AdminPlane cached(registry, {}, std::chrono::hours(1));
  (void)cached.handle(get);  // the one refresh the hits then reuse
  RenderCost cost;
  cost.samples = samples;
  cost.refresh_p50_us = median_us(refreshing);
  cost.hit_p50_us = median_us(cached);
  return cost;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Scraped and unscraped batches, paired, against one daemon.
struct ScrapePairs {
  std::size_t pairs = 0;
  std::size_t scrapes = 0;  // /metrics and /statz GETs served
  Quantiles unscraped;      // per-quantile median over the pairs' batches
  Quantiles scraped;
  double p99_delta_us = 0;  // median over pairs of scraped - unscraped p99
};

/// Runs `pairs` pairs of `batch` reserve+release round trips against one
/// daemon while a scraper thread sends its admin plane one GET every
/// 5 ms (~100 Hz per route, an aggressive operator: real Prometheus
/// scrapes every few seconds). During the scraped batch of a pair the
/// GETs alternate /metrics and /statz; during the unscraped one they all
/// ask for /healthz. Both batches thus carry the same scraper thread,
/// connects and accepts, and differ only in what the loop renders:
/// scraping a second daemon instead moved the p99 of a 4-vCPU VM by
/// about 100 us, which is the host's cost, not the plane's. The pairs
/// alternate which batch runs first, so drift over the run cancels.
ScrapePairs run_scrape_pairs(std::size_t pairs, std::size_t batch) {
  bu::DaemonHarness harness = bu::DaemonHarness::launch(/*with_admin=*/true);
  auto connected = harness.connect();
  if (!connected.ok()) std::abort();
  net::BbdClient client = std::move(connected.value());
  if (!client.make_user("Alice", 0).ok()) std::abort();

  const auto admin = net::Endpoint::parse(harness.admin_endpoint()).value();
  // The scraper GETs while holding `gate`, and a batch switches the route
  // set under it, so no scrape overlaps an unscraped batch.
  std::mutex gate;
  bool scraping = false;  // guarded by `gate`
  std::atomic<bool> stop{false};
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    bool statz = false;
    while (!stop.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(gate);
        if (!scraping) {
          (void)admin_get(admin, "/healthz");
        } else if (admin_get(admin, statz ? "/statz" : "/metrics")) {
          ++scrapes;
          statz = !statz;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  net::BbdClient::ReserveArgs args;
  args.user = "Alice";
  args.rate = 1e6;
  args.at = seconds(1);
  auto run_batch = [&](bool scraped) {
    {
      std::lock_guard<std::mutex> lock(gate);
      scraping = scraped;
    }
    std::vector<double> samples;
    samples.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = client.reserve(args);
      if (!outcome.ok() || !outcome->reply.granted) std::abort();
      if (!client.release("hopbyhop", outcome->reply_bytes).ok()) {
        std::abort();
      }
      samples.push_back(elapsed_us(start));
    }
    return quantiles(std::move(samples));
  };

  std::vector<double> p50_off, p99_off, p50_on, p99_on, p99_delta;
  for (std::size_t p = 0; p < pairs; ++p) {
    Quantiles off;
    Quantiles on;
    if (p % 2 == 0) {
      off = run_batch(false);
      on = run_batch(true);
    } else {
      on = run_batch(true);
      off = run_batch(false);
    }
    p50_off.push_back(off.p50_us);
    p99_off.push_back(off.p99_us);
    p50_on.push_back(on.p50_us);
    p99_on.push_back(on.p99_us);
    p99_delta.push_back(on.p99_us - off.p99_us);
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  if (!client.shutdown_daemon().ok()) std::abort();

  ScrapePairs result;
  result.pairs = pairs;
  result.scrapes = scrapes;
  result.unscraped = {median(p50_off), median(p99_off)};
  result.scraped = {median(p50_on), median(p99_on)};
  result.p99_delta_us = median(std::move(p99_delta));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t iterations = 200;
  std::size_t pairs = 30;
  std::size_t batch = 1000;
  bool smoke = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      iterations = 20;
      pairs = 2;
      batch = 100;  // long enough for the 5 ms scraper to hit each batch
      smoke = true;
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  bu::heading("daemon_latency",
              "RAR setup wall-clock: in-memory world vs UNIX-socket daemon");
  bu::note("hop-by-hop reserve+release on a 3-domain world, " +
           std::to_string(iterations) + " iterations in memory; " +
           std::to_string(pairs) + " scraped/unscraped pairs of " +
           std::to_string(batch) + "-iteration batches against one daemon.");

  const Quantiles local = run_local(iterations);
  const ScrapePairs daemon = run_scrape_pairs(pairs, batch);
  // After the forks, so no daemon inherits this plane's counters.
  const RenderCost render = measure_render(25);

  bu::row("%-16s %-12s %-12s", "mode", "p50(us)", "p99(us)");
  bu::rule();
  bu::row("%-16s %-12.0f %-12.0f", "in-memory", local.p50_us, local.p99_us);
  bu::row("%-16s %-12.0f %-12.0f", "daemon-unix", daemon.unscraped.p50_us,
          daemon.unscraped.p99_us);
  bu::row("%-16s %-12.0f %-12.0f", "daemon-scraped", daemon.scraped.p50_us,
          daemon.scraped.p99_us);
  bu::rule();
  bu::note("daemon p50 overhead: " +
           std::to_string(daemon.unscraped.p50_us - local.p50_us) +
           " us per setup");
  const double scrape_p99_pct =
      daemon.unscraped.p99_us > 0
          ? daemon.p99_delta_us / daemon.unscraped.p99_us * 100.0
          : 0.0;
  bu::note("admin scrape impact on p99: median pairwise difference " +
           std::to_string(daemon.p99_delta_us) + " us (" +
           std::to_string(scrape_p99_pct) + "%) across " +
           std::to_string(daemon.scrapes) + " scrapes");
  // A scrape once a second refreshes the snapshot every time (the TTL is
  // far shorter), so its share of loop time is one refresh per second.
  const double scrape_1hz_pct = render.refresh_p50_us / 1e6 * 100.0;
  bu::note("/metrics render on the loop: refresh p50 " +
           std::to_string(render.refresh_p50_us) + " us, cache hit p50 " +
           std::to_string(render.hit_p50_us) + " us (" +
           std::to_string(render.samples) + " each); a 1 Hz scrape costs " +
           std::to_string(scrape_1hz_pct) + "% of loop time");

  bool ok = true;
  ok &= bu::check(daemon.unscraped.p50_us > 0 && local.p50_us > 0,
                  "both modes completed every reserve+release");
  ok &= bu::check(daemon.scrapes > 0,
                  "the concurrent scraper reached the admin plane");
  ok &= bu::check(scrape_1hz_pct < 1.0,
                  "a 1 Hz /metrics scrape costs <1% of loop time");
  // The telemetry plane must be near-free for the RPC path: the median
  // pairwise p99 difference within 5% of the unscraped p99 (plus a 25us
  // floor so scheduler noise on a fast box cannot flake the gate). bbd
  // serves the admin plane on its request loop, so on any core count
  // every scrape's cycles come out of the loop, between requests; what
  // the gate bounds is that cost. Two conditions to gate: a full run
  // (smoke measures too few pairs for a meaningful median) and >= 2
  // cores — on a single-CPU host the scraper thread, the client and the
  // daemon also take turns on the one core, so the number measures
  // oversubscription, not the plane (same policy as load_broker's
  // scaling gate); the series is still recorded.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gated = !smoke && cores >= 2;
  if (gated) {
    ok &= bu::check(
        daemon.p99_delta_us <= daemon.unscraped.p99_us * 0.05 + 25.0,
        "scrape-under-load p99 within the 5% budget");
  } else if (!smoke) {
    bu::note("scrape-overhead gate skipped: " + std::to_string(cores) +
             " core(s); recorded only");
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << " \"bench\": \"daemon_latency\",\n"
        << " \"iterations\": " << iterations << ",\n"
        << " \"local\": {\"p50_us\": " << local.p50_us
        << ", \"p99_us\": " << local.p99_us << "},\n"
        << " \"daemon_unix\": {\"p50_us\": " << daemon.unscraped.p50_us
        << ", \"p99_us\": " << daemon.unscraped.p99_us << "},\n"
        << " \"daemon_unix_scraped\": {\"p50_us\": "
        << daemon.scraped.p50_us
        << ", \"p99_us\": " << daemon.scraped.p99_us << "},\n"
        << " \"scrape_overhead\": {\"scrapes\": " << daemon.scrapes
        << ", \"pairs\": " << daemon.pairs << ", \"batch\": " << batch
        << ", \"p99_delta_us\": " << daemon.p99_delta_us
        << ", \"p99_pct\": " << scrape_p99_pct
        << ", \"cores\": " << cores
        << ", \"gated\": " << (gated ? "true" : "false") << "},\n"
        << " \"metrics_render\": {\"samples\": " << render.samples
        << ", \"refresh_p50_us\": " << render.refresh_p50_us
        << ", \"hit_p50_us\": " << render.hit_p50_us
        << ", \"scrape_1hz_loop_pct\": " << scrape_1hz_pct << "}\n"
        << "}\n";
    ok &= bu::check(static_cast<bool>(out), "wrote " + json_out);
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
