// Admission load harness: RARs/sec against capacity pools and brokers.
//
// The ROADMAP's north star ("heavy traffic from millions of users", "as
// fast as the hardware allows") makes per-request admission cost the hot
// path once signing is fast (PR 3). This bench measures it directly:
//
//   Phase A  pool churn at 1k/10k/100k live reservations — the
//            timeline-indexed decisions vs the original full-scan kept as
//            the `*_reference` oracle. The RESULT line
//            `pool_speedup_10k=` is gated (>= 5x) by tier1.sh --load.
//   Phase B  broker churn (commit + release + audit + metrics) at each
//            live level: RARs/sec and p50/p99 admission latency.
//   Phase D  WAL overhead (ISSUE 6): the same commit churn with durability
//            off, write-no-sync and fsync-before-ack. The fsync row prices
//            the durability contract.
//   Phase E  1M-live footprint (ISSUE 8): resident bytes per live
//            reservation with the arena-backed commitment map and the flat
//            timeline (RSS delta from /proc/self/status plus the arena's
//            own slab accounting). Skipped under --smoke.
//
// Latency percentiles are wall-clock (std::chrono::steady_clock), like the
// e2e_bb_admission_us histogram and unlike every protocol-level metric —
// numbers vary run to run; decisions do not.
//
// Usage: load_broker [--smoke] [--json-out PATH]
//   --smoke     drop the 100k live level and cut iteration counts
//               (used by tier1.sh --load; the gated 10k level is kept)
//   --json-out  write the machine-readable summary (the BENCH_admission.json
//               format documented in docs/PERFORMANCE.md)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "bb/wal.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"

using namespace e2e;
using namespace e2e::bb;
namespace bu = e2e::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> us, double p) {
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(us.size() - 1));
  return us[idx];
}

/// One churn step: release a random live commitment, admit a fresh one in
/// its place (the pool's live count stays constant). Pre-generated so the
/// timed loops run identical sequences in timeline and reference mode.
struct ChurnOp {
  SimTime start = 0;
  SimDuration len = 0;
  double rate = 0;
  std::size_t victim = 0;
};

std::vector<ChurnOp> make_churn(std::uint64_t seed, std::size_t n,
                                std::size_t live) {
  Rng rng(seed);
  std::vector<ChurnOp> ops(n);
  for (auto& op : ops) {
    op.start = static_cast<SimTime>(rng.next_below(900)) * seconds(1);
    op.len = (1 + static_cast<SimDuration>(rng.next_below(60))) * seconds(1);
    op.rate = 1e6 * static_cast<double>(1 + rng.next_below(20));
    op.victim = rng.next_below(live);
  }
  return ops;
}

/// Fill `pool` with `live` commitments drawn from the same distribution.
std::vector<std::string> populate(CapacityPool& pool, std::size_t live) {
  std::vector<std::string> keys;
  keys.reserve(live);
  for (const ChurnOp& op : make_churn(7, live, live)) {
    const std::string key = "seed-" + std::to_string(keys.size());
    if (pool.commit(key, {op.start, op.start + op.len}, op.rate).ok()) {
      keys.push_back(key);
    }
  }
  return keys;
}

struct PoolSample {
  std::size_t live = 0;
  double timeline_rars_per_s = 0;
  double timeline_p50_us = 0;
  double timeline_p99_us = 0;
  double reference_rars_per_s = 0;
  double speedup = 0;
};

/// Phase A: identical churn through the timeline index and the reference
/// scan. The reference gets a smaller op budget at high live counts (it
/// is the O(n) / O(n^2) baseline this PR replaces); RARs/sec normalizes.
PoolSample bench_pool(std::size_t live, std::size_t ops) {
  PoolSample s;
  s.live = live;
  const double capacity = 1e12;  // success-dominated: pure decision cost
  // The reference decision is ~quadratic in live commitments (O(n) per
  // boundary point, ~n boundaries in a fixed window), so its op budget
  // shrinks with live² to keep each level's baseline run to a few
  // seconds. RARs/sec normalizes, and even a handful of multi-second ops
  // at 100k live pins the baseline well enough for the 5x gate at 10k.
  const std::size_t ref_ops = std::min(
      ops, std::max<std::size_t>(
               8, 4000000000ULL / std::max<std::size_t>(live * live, 1)));

  for (const bool reference : {false, true}) {
    CapacityPool pool(capacity);
    std::vector<std::string> keys = populate(pool, live);
    const std::size_t n = reference ? ref_ops : ops;
    const auto churn = make_churn(11, n, keys.size());
    std::vector<double> latencies;
    latencies.reserve(n);
    std::size_t next_key = 0;
    const auto t0 = Clock::now();
    for (const ChurnOp& op : churn) {
      const auto op_t0 = Clock::now();
      (void)pool.release(keys[op.victim]);
      const std::string key = "churn-" + std::to_string(next_key++);
      const TimeInterval iv{op.start, op.start + op.len};
      const Status st = reference ? pool.commit_reference(key, iv, op.rate)
                                  : pool.commit(key, iv, op.rate);
      latencies.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - op_t0)
              .count());
      if (st.ok()) {
        keys[op.victim] = key;
      } else {
        // Victim stays released; re-seed the slot so live stays ~constant.
        (void)(reference
                   ? pool.commit_reference(keys[op.victim], iv, op.rate / 2)
                   : pool.commit(keys[op.victim], iv, op.rate / 2));
      }
    }
    const double elapsed = secs_since(t0);
    const double rars = static_cast<double>(n) / elapsed;
    if (reference) {
      s.reference_rars_per_s = rars;
    } else {
      s.timeline_rars_per_s = rars;
      s.timeline_p50_us = percentile(latencies, 0.50);
      s.timeline_p99_us = percentile(latencies, 0.99);
    }
  }
  s.speedup = s.timeline_rars_per_s / s.reference_rars_per_s;
  return s;
}

// --- Broker-level phases --------------------------------------------------

const TimeInterval kValidity{0, hours(24 * 365)};

struct BrokerHarness {
  Rng rng{20010801};
  crypto::CertificateAuthority ca{
      crypto::DistinguishedName::make("CA-Load", "DomainLoad"), rng,
      kValidity, 256};
  BandwidthBroker broker = make_broker();

  BandwidthBroker make_broker() {
    policy::PolicyServer server(
        "DomainLoad", policy::Policy::compile("Return GRANT").value());
    return BandwidthBroker(BrokerConfig{"DomainLoad", 1e12, 256},
                           std::move(server), ca, rng, kValidity);
  }

  static ResSpec spec(const ChurnOp& op) {
    ResSpec s;
    s.user = "CN=Load,O=DomainLoad,C=US";
    s.source_domain = "DomainLoad";
    s.destination_domain = "DomainFar";
    s.rate_bits_per_s = op.rate;
    s.burst_bits = 1000;
    s.interval = {op.start, op.start + op.len};
    return s;
  }
};

struct BrokerSample {
  std::size_t live = 0;
  double rars_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Phase B: full broker commits — pool decision + record insert +
/// counters + audit append + edge hook dispatch.
BrokerSample bench_broker(std::size_t live, std::size_t ops) {
  BrokerHarness h;
  std::vector<ReservationId> ids;
  ids.reserve(live);
  for (const ChurnOp& op : make_churn(13, live, live)) {
    const auto id = h.broker.commit(BrokerHarness::spec(op), "");
    if (id.ok()) ids.push_back(*id);
  }
  const auto churn = make_churn(17, ops, ids.size());
  std::vector<double> latencies;
  latencies.reserve(ops);
  const auto t0 = Clock::now();
  for (const ChurnOp& op : churn) {
    (void)h.broker.release(ids[op.victim]);
    const auto op_t0 = Clock::now();
    const auto id = h.broker.commit(BrokerHarness::spec(op), "");
    latencies.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - op_t0)
            .count());
    if (id.ok()) ids[op.victim] = *id;
  }
  const double elapsed = secs_since(t0);
  BrokerSample s;
  s.live = live;
  s.rars_per_s = static_cast<double>(ops) / elapsed;
  s.p50_us = percentile(latencies, 0.50);
  s.p99_us = percentile(latencies, 0.99);
  return s;
}

// --- Footprint (Phase E) ----------------------------------------------------

/// Resident set size from /proc/self/status, in bytes (0 if unreadable).
std::size_t resident_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

struct FootprintSample {
  std::size_t live = 0;
  double populate_rars_per_s = 0;
  std::size_t rss_delta_bytes = 0;
  double rss_bytes_per_resv = 0;
  double arena_bytes_per_resv = 0;
};

/// Phase E: hold `live` commitments in one pool and price each of them in
/// resident memory. The arena accounting covers the commitment map's
/// nodes; the RSS delta additionally sees the flat timeline, key strings
/// and allocator slack — the honest number a 1M-reservation broker pays.
FootprintSample bench_footprint(std::size_t live) {
  FootprintSample s;
  s.live = live;
  const std::size_t rss0 = resident_bytes();
  auto pool = std::make_unique<CapacityPool>(1e15);
  const auto churn = make_churn(41, live, live);
  const auto t0 = Clock::now();
  std::size_t admitted = 0;
  for (const ChurnOp& op : churn) {
    if (pool
            ->commit("f-" + std::to_string(admitted),
                     {op.start, op.start + op.len}, op.rate)
            .ok()) {
      ++admitted;
    }
  }
  const double elapsed = secs_since(t0);
  const std::size_t rss1 = resident_bytes();
  s.populate_rars_per_s = static_cast<double>(admitted) / elapsed;
  s.rss_delta_bytes = rss1 > rss0 ? rss1 - rss0 : 0;
  s.rss_bytes_per_resv =
      static_cast<double>(s.rss_delta_bytes) / static_cast<double>(admitted);
  s.arena_bytes_per_resv = static_cast<double>(pool->arena_bytes()) /
                           static_cast<double>(admitted);
  s.live = admitted;
  return s;
}

struct WalSample {
  std::string mode;  // off | nosync | fsync
  double rars_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Removes its directory, with everything in it, on scope exit.
struct TempDir {
  std::string path;
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

/// Phase D: the Phase-B commit workload under each durability mode.
WalSample bench_wal(const std::string& mode, std::size_t live,
                    std::size_t ops) {
  WalSample s;
  s.mode = mode;
  BrokerHarness h;
  std::unique_ptr<WriteAheadLog> wal;
  // A private directory per run, so concurrent runs never share a log.
  std::string dir =
      (std::filesystem::temp_directory_path() / "e2e_load_broker_XXXXXX")
          .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return s;
  }
  const TempDir cleanup{dir};
  const std::string path = dir + "/" + mode + ".wal";
  if (mode != "off") {
    auto opened = WriteAheadLog::open(
        path, mode == "nosync" ? WriteAheadLog::SyncMode::kNone
                               : WriteAheadLog::SyncMode::kFsync);
    if (!opened.ok()) {
      std::fprintf(stderr, "wal open failed: %s\n",
                   opened.error().to_text().c_str());
      return s;
    }
    wal = std::move(*opened);
    h.broker.attach_wal(wal.get());
  }
  for (const ChurnOp& op : make_churn(13, live, live)) {
    (void)h.broker.commit(BrokerHarness::spec(op), "");
  }
  const auto offered = make_churn(31, ops, live);
  std::vector<double> latencies;
  latencies.reserve(ops);
  const auto t0 = Clock::now();
  for (const ChurnOp& op : offered) {
    const auto op_t0 = Clock::now();
    (void)h.broker.commit(BrokerHarness::spec(op), "");
    latencies.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - op_t0)
            .count());
  }
  const double elapsed = secs_since(t0);
  s.rars_per_s = static_cast<double>(ops) / elapsed;
  s.p50_us = percentile(latencies, 0.50);
  s.p99_us = percentile(latencies, 0.99);
  h.broker.attach_wal(nullptr);
  wal.reset();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  bu::heading("load_broker",
              "admission throughput: timeline pool, broker, WAL");

  std::vector<std::size_t> live_levels = {1000, 10000, 100000};
  std::size_t pool_ops = 200000;
  std::size_t broker_ops = 20000;
  if (smoke) {
    live_levels = {1000, 10000};
    pool_ops = 20000;
    broker_ops = 2000;
  }

  bool ok = true;

  bu::note("Phase A: pool churn (release + admit), timeline vs reference");
  std::vector<PoolSample> pool_samples;
  double speedup_10k = 0;
  for (std::size_t live : live_levels) {
    const PoolSample s = bench_pool(live, pool_ops);
    pool_samples.push_back(s);
    bu::row("live=%-7zu timeline %10.0f RARs/s (p50 %6.2f us, p99 %6.2f us)"
            "   reference %9.0f RARs/s   speedup %6.1fx",
            s.live, s.timeline_rars_per_s, s.timeline_p50_us,
            s.timeline_p99_us, s.reference_rars_per_s, s.speedup);
    if (live == 10000) speedup_10k = s.speedup;
  }
  std::printf("RESULT pool_speedup_10k=%.2f\n", speedup_10k);
  ok &= bu::check(speedup_10k >= 5.0,
                  "timeline pool >= 5x reference at 10k live reservations");

  bu::rule();
  bu::note("Phase B: full broker commits (pool + records + audit + metrics)");
  std::vector<BrokerSample> broker_samples;
  for (std::size_t live : live_levels) {
    const BrokerSample s = bench_broker(live, broker_ops);
    broker_samples.push_back(s);
    bu::row("live=%-7zu %10.0f RARs/s   p50 %7.2f us   p99 %7.2f us",
            s.live, s.rars_per_s, s.p50_us, s.p99_us);
  }
  ok &= bu::check(broker_samples.back().rars_per_s > 0,
                  "broker sustains load at the largest live level");

  bu::rule();
  bu::note("Phase D: WAL overhead (durability off / no-sync / fsync)");
  const std::size_t wal_live = smoke ? 1000 : 10000;
  const std::size_t wal_ops = smoke ? 600 : 3000;
  std::vector<WalSample> wal_samples;
  for (const char* mode : {"off", "nosync", "fsync"}) {
    const WalSample s = bench_wal(mode, wal_live, wal_ops);
    wal_samples.push_back(s);
    bu::row("wal=%-13s %10.0f RARs/s   p50 %8.2f us   p99 %8.2f us",
            s.mode.c_str(), s.rars_per_s, s.p50_us, s.p99_us);
  }
  const double fsync_cost =
      wal_samples[0].rars_per_s / wal_samples[2].rars_per_s;
  std::printf("RESULT wal_fsync_slowdown=%.2f\n", fsync_cost);
  ok &= bu::check(wal_samples[2].rars_per_s > 0,
                  "fsync-before-ack sustains load");

  FootprintSample footprint;
  if (!smoke) {
    bu::rule();
    bu::note("Phase E: 1M-live footprint (arena map + flat timeline)");
    footprint = bench_footprint(1000000);
    bu::row("live=%-8zu populate %9.0f RARs/s   RSS %6.1f MiB "
            "(%5.1f B/resv)   arena %5.1f B/resv",
            footprint.live, footprint.populate_rars_per_s,
            static_cast<double>(footprint.rss_delta_bytes) / (1024.0 * 1024.0),
            footprint.rss_bytes_per_resv, footprint.arena_bytes_per_resv);
    std::printf("RESULT footprint_bytes_per_resv_1m=%.1f\n",
                footprint.rss_bytes_per_resv);
    ok &= bu::check(footprint.live > 900000,
                    "a million reservations stay live in one pool");
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n \"bench\": \"load_broker\",\n \"smoke\": "
        << (smoke ? "true" : "false") << ",\n \"pool\": [";
    for (std::size_t i = 0; i < pool_samples.size(); ++i) {
      const PoolSample& s = pool_samples[i];
      out << (i ? ",\n  " : "\n  ") << "{\"live\": " << s.live
          << ", \"timeline_rars_per_s\": " << s.timeline_rars_per_s
          << ", \"timeline_p50_us\": " << s.timeline_p50_us
          << ", \"timeline_p99_us\": " << s.timeline_p99_us
          << ", \"reference_rars_per_s\": " << s.reference_rars_per_s
          << ", \"speedup\": " << s.speedup << "}";
    }
    out << "\n ],\n \"broker\": [";
    for (std::size_t i = 0; i < broker_samples.size(); ++i) {
      const BrokerSample& s = broker_samples[i];
      out << (i ? ",\n  " : "\n  ") << "{\"live\": " << s.live
          << ", \"rars_per_s\": " << s.rars_per_s
          << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us
          << "}";
    }
    out << "\n ],\n \"wal\": [";
    for (std::size_t i = 0; i < wal_samples.size(); ++i) {
      const WalSample& s = wal_samples[i];
      out << (i ? ",\n  " : "\n  ") << "{\"mode\": \"" << s.mode
          << "\", \"rars_per_s\": " << s.rars_per_s
          << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us
          << "}";
    }
    out << "\n ]";
    if (!smoke) {
      out << ",\n \"footprint\": {\"live\": " << footprint.live
          << ", \"populate_rars_per_s\": " << footprint.populate_rars_per_s
          << ", \"rss_delta_bytes\": " << footprint.rss_delta_bytes
          << ", \"rss_bytes_per_resv\": " << footprint.rss_bytes_per_resv
          << ", \"arena_bytes_per_resv\": " << footprint.arena_bytes_per_resv
          << "}";
    }
    out << "\n}\n";
    std::printf("  wrote %s\n", json_out.c_str());
  }
  bu::dump_metrics_snapshot("load_broker");
  return ok ? 0 : 1;
}
