// Concurrent-admission tests.
//
// Drive brokers and tunnels from several threads at once, through the
// self-locked pools and record shards; one of them crashes a WAL-backed
// broker mid-stream and recovers it. scripts/tier1.sh --load builds and
// runs this binary under the TSan preset (build-tsan) so the locking is
// actually checked, and under the ASan/UBSan preset (build-asan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "bb/recovery.hpp"
#include "bb/wal.hpp"

namespace e2e::bb {
namespace {

const TimeInterval kLongValidity{0, hours(24 * 365)};

struct BrokerFixture {
  Rng rng{2026};
  crypto::CertificateAuthority ca{
      crypto::DistinguishedName::make("CA-B", "DomainB"), rng, kLongValidity,
      512};
  BandwidthBroker broker = make_broker();

  BandwidthBroker make_broker() {
    policy::PolicyServer server(
        "DomainB", policy::Policy::compile("Return GRANT").value());
    return BandwidthBroker(BrokerConfig{"DomainB", 100e6, 512},
                           std::move(server), ca, rng, kLongValidity);
  }

  ResSpec spec(double rate, TimeInterval iv = {0, seconds(60)}) {
    ResSpec s;
    s.user = "CN=Alice,O=DomainA,C=US";
    s.source_domain = "DomainA";
    s.destination_domain = "DomainC";
    s.rate_bits_per_s = rate;
    s.burst_bits = 30000;
    s.interval = iv;
    return s;
  }
};

TEST(ConcurrentAdmission, BrokerShardedStateSurvivesParallelCommits) {
  BrokerFixture f;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<int> granted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ReservationId> mine;
      for (int i = 0; i < kPerThread; ++i) {
        // Staggered intervals so threads contend on overlapping windows.
        const SimTime start = seconds((t * kPerThread + i) % 40);
        const auto id =
            f.broker.commit(f.spec(5e6, {start, start + seconds(30)}), "");
        if (id.ok()) {
          granted.fetch_add(1, std::memory_order_relaxed);
          mine.push_back(*id);
        }
        if (mine.size() > 4) {
          ASSERT_TRUE(f.broker.release(mine.front()).ok());
          mine.erase(mine.begin());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Capacity was never oversubscribed at any instant.
  for (SimTime t = 0; t <= seconds(80); t += seconds(1)) {
    ASSERT_LE(f.broker.committed_at(t), 100e6 + 1e-3);
  }
  const auto c = f.broker.counters();
  EXPECT_EQ(c.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c.granted, static_cast<std::uint64_t>(granted.load()));
  EXPECT_EQ(c.granted - c.released, f.broker.reservation_count());
}

TEST(ConcurrentAdmission, TunnelParallelAllocations) {
  BrokerFixture f;
  ResSpec agg = f.spec(50e6, {0, seconds(600)});
  agg.is_tunnel = true;
  const auto tid = f.broker.register_tunnel(agg);
  ASSERT_TRUE(tid.ok());
  Tunnel* tunnel = f.broker.find_tunnel(*tid);
  ASSERT_NE(tunnel, nullptr);
  ASSERT_TRUE(tunnel->authorize("CN=Alice,O=DomainA,C=US").ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const std::string base =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        if (i % 3 == 0) {
          // Four flows held at once, then released together.
          std::vector<std::string> held;
          for (int j = 0; j < 4; ++j) {
            const std::string sub_id = base + "-" + std::to_string(j);
            if (tunnel
                    ->allocate(sub_id, "CN=Alice,O=DomainA,C=US",
                               {0, seconds(60)}, 2e6)
                    .ok()) {
              held.push_back(sub_id);
            }
          }
          for (const auto& sub_id : held) (void)tunnel->release(sub_id);
        } else {
          if (tunnel
                  ->allocate(base, "CN=Alice,O=DomainA,C=US", {0, seconds(60)},
                             3e6)
                  .ok()) {
            (void)tunnel->release(base);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every grant was released: the aggregate is whole again.
  EXPECT_EQ(tunnel->active_allocations(), 0u);
  EXPECT_DOUBLE_EQ(tunnel->headroom({0, seconds(60)}), 50e6);
}

TEST(ConcurrentAdmission, MixedTrafficLeavesZeroResidual) {
  BrokerFixture f;
  const char* alice = "CN=Alice,O=DomainA,C=US";
  std::vector<Tunnel*> tunnels;
  for (int t = 0; t < 2; ++t) {
    ResSpec agg = f.spec(20e6, {0, seconds(600)});
    agg.is_tunnel = true;
    const auto tid = f.broker.register_tunnel(agg);
    ASSERT_TRUE(tid.ok());
    Tunnel* tunnel = f.broker.find_tunnel(*tid);
    ASSERT_TRUE(tunnel->authorize(alice).ok());
    tunnels.push_back(tunnel);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ReservationId> mine;
      for (int i = 0; i < kRounds; ++i) {
        const std::string tag =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        switch (i % 4) {
          case 0: {  // single commit (kept for a while, then released)
            const SimTime start = seconds((t * kRounds + i) % 40);
            auto id = f.broker.commit(
                f.spec(4e6, {start, start + seconds(25)}), "");
            if (id.ok()) {
              granted.fetch_add(1, std::memory_order_relaxed);
              mine.push_back(*id);
            }
            break;
          }
          case 1: {  // five commits held together, then released
            std::vector<ReservationId> burst;
            for (int j = 0; j < 5; ++j) {
              const SimTime start = seconds((t * 11 + i * 3 + j) % 45);
              auto id = f.broker.commit(
                  f.spec(3e6, {start, start + seconds(15)}), "");
              if (id.ok()) {
                granted.fetch_add(1, std::memory_order_relaxed);
                burst.push_back(*id);
              }
            }
            for (const auto& id : burst) {
              ASSERT_TRUE(f.broker.release(id).ok());
            }
            break;
          }
          case 2: {  // per-flow allocations across both tunnels
            for (int j = 0; j < 4; ++j) {
              Tunnel* tunnel = tunnels[static_cast<std::size_t>(j) % 2];
              const std::string sub_id = tag + "-" + std::to_string(j);
              if (tunnel->allocate(sub_id, alice, {0, seconds(60)}, 1e6)
                      .ok()) {
                ASSERT_TRUE(tunnel->release(sub_id).ok());
              }
            }
            break;
          }
          default: {  // headroom reads race the writers
            (void)f.broker.headroom({seconds(i % 40), seconds(i % 40 + 10)});
            for (const Tunnel* tunnel : tunnels) {
              (void)tunnel->headroom({0, seconds(60)});
            }
            break;
          }
        }
        if (mine.size() > 3) {
          ASSERT_TRUE(f.broker.release(mine.front()).ok());
          mine.erase(mine.begin());
        }
      }
      for (const auto& id : mine) ASSERT_TRUE(f.broker.release(id).ok());
    });
  }
  for (auto& w : workers) w.join();

  // Zero residual: every grant released, broker and tunnel pools whole.
  EXPECT_EQ(f.broker.reservation_count(), 0u);
  for (SimTime t = 0; t <= seconds(80); t += seconds(1)) {
    ASSERT_EQ(f.broker.committed_at(t), 0.0) << t;
  }
  for (const Tunnel* tunnel : tunnels) {
    EXPECT_EQ(tunnel->active_allocations(), 0u);
    EXPECT_DOUBLE_EQ(tunnel->headroom({0, seconds(60)}), 20e6);
  }
  const auto c = f.broker.counters();
  EXPECT_EQ(c.granted, granted.load());
  EXPECT_EQ(c.granted, c.released);
}

TEST(ConcurrentAdmission, CrashedWalReplaysEveryAckedGrant) {
  BrokerFixture f;
  const std::string wal_path =
      ::testing::TempDir() + "bb_concurrent_crash.wal";
  const std::string snap_path =
      ::testing::TempDir() + "bb_concurrent_crash.snapshot";
  std::remove(wal_path.c_str());
  std::remove(snap_path.c_str());
  auto opened = WriteAheadLog::open(wal_path);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<WriteAheadLog> wal = std::move(*opened);
  f.broker.attach_wal(wal.get());

  // Concurrent admit/release traffic, group-committed by the callers;
  // every ack is remembered so the recovered broker can be audited
  // against it.
  std::mutex acked_mutex;
  std::set<ReservationId> acked_live;
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ReservationId> mine;
      for (int i = 0; i < 30; ++i) {
        const SimTime start = seconds((t * 13 + i * 4) % 50);
        auto id =
            f.broker.commit(f.spec(3e6, {start, start + seconds(30)}), "");
        if (id.ok()) {
          mine.push_back(*id);
          std::lock_guard lock(acked_mutex);
          acked_live.insert(*id);
        }
        if (mine.size() > 5) {
          ASSERT_TRUE(f.broker.release(mine.front()).ok());
          {
            std::lock_guard lock(acked_mutex);
            acked_live.erase(mine.front());
          }
          mine.erase(mine.begin());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_FALSE(acked_live.empty());

  // Crash mid-stream: drop the WAL object cold — no snapshot, no
  // truncation. The file keeps exactly the acked stream.
  f.broker.attach_wal(nullptr);
  wal.reset();

  BrokerFixture fresh;
  auto report = recover_broker(fresh.broker, snap_path, wal_path);
  ASSERT_TRUE(report.ok()) << report.error().to_text();

  // Every live acked grant is present; every released one is gone; the
  // committed profile matches the live broker exactly.
  EXPECT_EQ(fresh.broker.reservation_count(), f.broker.reservation_count());
  for (const auto& id : acked_live) {
    EXPECT_NE(fresh.broker.find(id), nullptr) << id;
  }
  for (SimTime t = 0; t <= seconds(90); t += seconds(1)) {
    ASSERT_EQ(fresh.broker.committed_at(t), f.broker.committed_at(t)) << t;
  }
  // A recovered broker never reuses a handle.
  EXPECT_GE(fresh.broker.next_id_value(), f.broker.next_id_value());
}

}  // namespace
}  // namespace e2e::bb
