// Batch admission and concurrent-admission tests.
//
// Covers the three batch entry points added with the timeline pool —
// CapacityPool::commit_batch (one lock acquisition), Tunnel::allocate_batch
// (authorization gate + pool batch) and BandwidthBroker::commit_batch
// (local + peer-SLA pools with rollback) — plus the engine-level
// reserve_in_tunnel_batch.
//
// The *Concurrent* tests drive brokers and tunnels from several threads at
// once, through the self-locked pools and record shards; one of them
// crashes a WAL-backed broker mid-stream and recovers it.
// scripts/tier1.sh --load builds and runs this binary under the TSan
// preset (build-tsan) so the locking is actually checked.
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
#include "testing_world.hpp"

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

  sla::ServiceLevelAgreement sla_from_a(double rate) {
    sla::ServiceLevelAgreement a;
    a.from_domain = "DomainA";
    a.to_domain = "DomainB";
    a.profile.rate_bits_per_s = rate;
    a.profile.burst_bits = 50000;
    a.validity = kLongValidity;
    a.price_per_mbit_s = 0.01;
    return a;
  }
};

TEST(BrokerBatch, ResultsInInputOrderWithPerSpecDecisions) {
  BrokerFixture f;
  // 40 + 40 fit under 100 Mb/s; the 30 on top does not; a disjoint
  // interval fits regardless.
  const std::vector<ResSpec> specs = {
      f.spec(40e6), f.spec(40e6), f.spec(30e6),
      f.spec(60e6, {seconds(120), seconds(180)})};
  const auto results = f.broker.commit_batch(specs, "");
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].error().code, ErrorCode::kAdmissionRejected);
  EXPECT_TRUE(results[3].ok());
  EXPECT_EQ(f.broker.reservation_count(), 3u);
  EXPECT_DOUBLE_EQ(f.broker.committed_at(seconds(30)), 80e6);
  EXPECT_DOUBLE_EQ(f.broker.committed_at(seconds(150)), 60e6);
  EXPECT_EQ(f.broker.counters().requests, 4u);
  EXPECT_EQ(f.broker.counters().granted, 3u);
  EXPECT_EQ(f.broker.counters().denied_admission, 1u);
}

TEST(BrokerBatch, PeerPoolRejectionRollsBackLocalCommit) {
  BrokerFixture f;
  f.broker.add_upstream_sla(f.sla_from_a(30e6));
  // Both fit locally (100 Mb/s) but only the first fits the 30 Mb/s SLA
  // profile: the second's local commit must be rolled back.
  const std::vector<ResSpec> specs = {f.spec(20e6), f.spec(20e6)};
  const auto results = f.broker.commit_batch(specs, "DomainA");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(f.broker.reservation_count(), 1u);
  EXPECT_DOUBLE_EQ(f.broker.committed_at(seconds(30)), 20e6);
  // The freed slice is admissible again (no residual local commitment).
  EXPECT_TRUE(f.broker.check_admission(f.spec(10e6), "DomainA").ok());
}

TEST(BrokerBatch, BatchMatchesSequentialCommits) {
  BrokerFixture batch_f;
  BrokerFixture seq_f;
  std::vector<ResSpec> specs;
  // Ascending starts so the batch's sorted evaluation order equals the
  // sequential order — decisions must then be identical.
  for (int i = 0; i < 12; ++i) {
    specs.push_back(batch_f.spec(
        30e6, {seconds(10 * i), seconds(10 * i + 40)}));
  }
  const auto batch_results = batch_f.broker.commit_batch(specs, "");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto seq = seq_f.broker.commit(specs[i], "");
    ASSERT_EQ(batch_results[i].ok(), seq.ok()) << "spec " << i;
  }
  EXPECT_EQ(batch_f.broker.reservation_count(),
            seq_f.broker.reservation_count());
  for (SimTime t = 0; t <= seconds(160); t += seconds(5)) {
    ASSERT_EQ(batch_f.broker.committed_at(t), seq_f.broker.committed_at(t))
        << t;
  }
}

TEST(TunnelBatch, GateFailuresAndPoolDecisionsMergeInInputOrder) {
  Tunnel tunnel("t1", [] {
    ResSpec agg;
    agg.user = "CN=Alice,O=DomainA,C=US";
    agg.source_domain = "DomainA";
    agg.destination_domain = "DomainC";
    agg.rate_bits_per_s = 50e6;
    agg.interval = {0, seconds(600)};
    agg.is_tunnel = true;
    return agg;
  }());
  ASSERT_TRUE(tunnel.authorize("CN=Alice,O=DomainA,C=US").ok());
  const std::vector<Tunnel::SubFlowRequest> flows = {
      {"s1", "CN=Alice,O=DomainA,C=US", {0, seconds(60)}, 30e6},
      {"s2", "CN=Eve,O=Evil,C=US", {0, seconds(60)}, 1e6},
      {"s3", "CN=Alice,O=DomainA,C=US", {seconds(590), seconds(700)}, 1e6},
      {"s4", "CN=Alice,O=DomainA,C=US", {0, seconds(60)}, 25e6},
      {"s5", "CN=Alice,O=DomainA,C=US", {0, seconds(60)}, 20e6}};
  const auto statuses = tunnel.allocate_batch(flows);
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].error().code, ErrorCode::kPolicyDenied);
  EXPECT_EQ(statuses[2].error().code, ErrorCode::kAdmissionRejected);
  // s4 (25 on top of 30) busts the aggregate; s5 (20) still fits.
  EXPECT_FALSE(statuses[3].ok());
  EXPECT_TRUE(statuses[4].ok());
  EXPECT_EQ(tunnel.active_allocations(), 2u);
  EXPECT_DOUBLE_EQ(tunnel.allocated_peak({0, seconds(60)}), 50e6);
}

// --- Engine-level batched tunnel allocation -------------------------------

struct TunnelWorldFixture {
  TunnelWorldFixture() : alice(world.make_user("Alice", 0)) {
    bb::ResSpec agg = world.spec(alice, 50e6, {0, seconds(3600)});
    agg.is_tunnel = true;
    const auto msg =
        world.engine().build_user_request(alice.credentials(), agg, 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->reply.granted) << outcome->reply.denial.to_text();
    tunnel_id = outcome->reply.tunnel_id;
  }

  std::vector<sig::HopByHopEngine::TunnelFlowRequest> flows(
      std::size_t n, double rate) const {
    std::vector<sig::HopByHopEngine::TunnelFlowRequest> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back({alice.dn.to_string(), rate, {0, seconds(60)}});
    }
    return out;
  }

  testing::ChainWorld world;
  testing::WorldUser alice;
  std::string tunnel_id;
};

TEST(EngineBatch, PartialGrantStopsAtAggregate) {
  TunnelWorldFixture f;
  // 50 Mb/s aggregate: twelve 5 Mb/s flows → exactly ten granted.
  const auto outcome = f.world.engine().reserve_in_tunnel_batch(
      f.tunnel_id, f.flows(12, 5e6), seconds(2));
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
  EXPECT_EQ(outcome->granted, 10u);
  ASSERT_EQ(outcome->replies.size(), 12u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(outcome->replies[i].granted) << "flow " << i;
    EXPECT_EQ(outcome->replies[i].handles.size(), 2u);
  }
  for (std::size_t i = 10; i < 12; ++i) {
    ASSERT_FALSE(outcome->replies[i].granted) << "flow " << i;
    EXPECT_EQ(outcome->replies[i].denial.code, ErrorCode::kAdmissionRejected);
  }
  // One wire exchange for the whole batch: user->src, src->dst, dst->src.
  EXPECT_EQ(outcome->messages, 3u);
  EXPECT_EQ(f.world.engine().tunnel_info(f.tunnel_id)->active_flows, 10u);
  // No one-sided residue from the denied flows: the remaining headroom is
  // exactly zero, and a follow-up single flow is denied at admission.
  const auto extra = f.world.engine().reserve_in_tunnel(
      f.tunnel_id, f.alice.dn.to_string(), 1e6, {0, seconds(60)}, seconds(3));
  ASSERT_TRUE(extra.ok());
  ASSERT_FALSE(extra->reply.granted);
  EXPECT_EQ(extra->reply.denial.code, ErrorCode::kAdmissionRejected);
}

TEST(EngineBatch, UnknownTunnelFails) {
  TunnelWorldFixture f;
  const auto outcome = f.world.engine().reserve_in_tunnel_batch(
      "tunnel-999", f.flows(2, 1e6), seconds(2));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kNotFound);
}

// --- Concurrency (run under TSan by scripts/tier1.sh --load) --------------

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

TEST(ConcurrentAdmission, TunnelParallelSingleAndBatchAllocations) {
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
          std::vector<Tunnel::SubFlowRequest> batch;
          for (int j = 0; j < 4; ++j) {
            batch.push_back({base + "-" + std::to_string(j),
                             "CN=Alice,O=DomainA,C=US",
                             {0, seconds(60)},
                             2e6});
          }
          const auto statuses = tunnel->allocate_batch(batch);
          for (std::size_t j = 0; j < statuses.size(); ++j) {
            if (statuses[j].ok()) {
              (void)tunnel->release(batch[j].sub_id);
            }
          }
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

TEST(ConcurrentAdmission, BrokerBatchesFromManyThreads) {
  BrokerFixture f;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> granted{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        std::vector<ResSpec> specs;
        for (int i = 0; i < 8; ++i) {
          const SimTime start = seconds((t * 7 + round * 3 + i) % 50);
          specs.push_back(f.spec(4e6, {start, start + seconds(20)}));
        }
        for (const auto& r : f.broker.commit_batch(specs, "")) {
          if (r.ok()) {
            granted.fetch_add(1, std::memory_order_relaxed);
            ASSERT_TRUE(f.broker.release(*r).ok());
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(f.broker.counters().granted, granted.load());
  EXPECT_EQ(f.broker.reservation_count(), 0u);
  EXPECT_DOUBLE_EQ(f.broker.committed_at(seconds(10)), 0.0);
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
          case 1: {  // batch commit, released immediately
            std::vector<ResSpec> specs;
            for (int j = 0; j < 5; ++j) {
              const SimTime start = seconds((t * 11 + i * 3 + j) % 45);
              specs.push_back(f.spec(3e6, {start, start + seconds(15)}));
            }
            for (const auto& r : f.broker.commit_batch(specs, "")) {
              if (r.ok()) {
                granted.fetch_add(1, std::memory_order_relaxed);
                ASSERT_TRUE(f.broker.release(*r).ok());
              }
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
