#include "bb/bandwidth_broker.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace e2e::bb {
namespace {

const TimeInterval kLongValidity{0, hours(24 * 365)};

struct BrokerFixture {
  Rng rng{2024};
  crypto::CertificateAuthority ca{
      crypto::DistinguishedName::make("CA-B", "DomainB"), rng, kLongValidity,
      512};
  BandwidthBroker broker = make_broker();

  BandwidthBroker make_broker() {
    policy::PolicyServer server(
        "DomainB",
        policy::Policy::compile("If BW <= 50Mb/s Return GRANT\nReturn DENY")
            .value());
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

TEST(Broker, IdentityMaterial) {
  BrokerFixture f;
  EXPECT_EQ(f.broker.domain(), "DomainB");
  EXPECT_EQ(f.broker.dn().common_name(), "BB-DomainB");
  EXPECT_TRUE(f.broker.certificate().verify_signature(f.ca.public_key()));
  // Broker signatures verify against its certificate's key.
  const Bytes sig = f.broker.sign(to_bytes("message"));
  EXPECT_TRUE(crypto::verify(f.broker.certificate().subject_public_key(),
                             to_bytes("message"), sig));
  // Its own CA is a trust anchor.
  EXPECT_TRUE(f.broker.trust_store().is_anchor(f.ca.name()));
}

TEST(Broker, LocalRequestAdmission) {
  BrokerFixture f;
  const auto id = f.broker.commit(f.spec(40e6), "");
  ASSERT_TRUE(id.ok()) << id.error().to_text();
  EXPECT_NE(f.broker.find(*id), nullptr);
  EXPECT_EQ(f.broker.find(*id)->state, ReservationState::kGranted);
  EXPECT_EQ(f.broker.reservation_count(), 1u);
  EXPECT_DOUBLE_EQ(f.broker.committed_at(seconds(30)), 40e6);
}

TEST(Broker, CapacityExhaustionDenies) {
  BrokerFixture f;
  ASSERT_TRUE(f.broker.commit(f.spec(60e6), "").ok());
  const auto second = f.broker.commit(f.spec(60e6), "");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kAdmissionRejected);
  EXPECT_EQ(second.error().origin, "DomainB");
  EXPECT_EQ(f.broker.counters().denied_admission, 1u);
}

TEST(Broker, TransitRequiresSla) {
  BrokerFixture f;
  const auto res = f.broker.commit(f.spec(10e6), "DomainA");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("no SLA"), std::string::npos);
}

TEST(Broker, TransitBoundBySlaProfile) {
  BrokerFixture f;
  f.broker.add_upstream_sla(f.sla_from_a(20e6));
  ASSERT_TRUE(f.broker.commit(f.spec(15e6), "DomainA").ok());
  // Local capacity (100 Mb/s) has room, but the SLA profile (20 Mb/s) is
  // nearly exhausted.
  const auto res = f.broker.commit(f.spec(10e6), "DomainA");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("SLA profile"), std::string::npos);
  // A smaller request still fits.
  EXPECT_TRUE(f.broker.commit(f.spec(5e6), "DomainA").ok());
}

TEST(Broker, SlaValidityWindowChecked) {
  BrokerFixture f;
  auto agreement = f.sla_from_a(20e6);
  agreement.validity = {0, seconds(10)};
  f.broker.add_upstream_sla(agreement);
  const auto res =
      f.broker.commit(f.spec(1e6, {seconds(20), seconds(30)}), "DomainA");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("does not cover"), std::string::npos);
}

TEST(Broker, ReleaseRestoresBothPools) {
  BrokerFixture f;
  f.broker.add_upstream_sla(f.sla_from_a(20e6));
  const auto id = f.broker.commit(f.spec(20e6), "DomainA");
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(f.broker.commit(f.spec(1e6), "DomainA").ok());
  ASSERT_TRUE(f.broker.release(*id).ok());
  EXPECT_TRUE(f.broker.commit(f.spec(20e6), "DomainA").ok());
}

TEST(Broker, ReleaseUnknownFails) {
  BrokerFixture f;
  EXPECT_EQ(f.broker.release("nope").error().code, ErrorCode::kNotFound);
}

TEST(Broker, NextHopRouting) {
  BrokerFixture f;
  f.broker.set_next_hop("DomainC", "DomainC");
  f.broker.set_next_hop("DomainD", "DomainC");
  EXPECT_EQ(f.broker.next_hop("DomainC").value(), "DomainC");
  EXPECT_EQ(f.broker.next_hop("DomainD").value(), "DomainC");
  EXPECT_FALSE(f.broker.next_hop("DomainB").has_value());  // we are it
  EXPECT_FALSE(f.broker.next_hop("DomainX").has_value());  // unknown
}

TEST(Broker, EdgeConfiguratorCalledOnCommitAndRelease) {
  BrokerFixture f;
  std::vector<std::pair<std::string, bool>> calls;
  f.broker.set_edge_configurator(
      [&calls](const Reservation& r, bool install) {
        calls.emplace_back(r.id, install);
      });
  const auto id = f.broker.commit(f.spec(10e6), "");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.broker.release(*id).ok());
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], std::make_pair(*id, true));
  EXPECT_EQ(calls[1], std::make_pair(*id, false));
}

TEST(Broker, InvalidSpecRejected) {
  BrokerFixture f;
  EXPECT_FALSE(f.broker.commit(f.spec(0), "").ok());
  EXPECT_FALSE(f.broker.commit(f.spec(1e6, {seconds(5), seconds(5)}), "").ok());
}

TEST(Broker, TunnelRegistrationAndAllocation) {
  BrokerFixture f;
  ResSpec agg = f.spec(50e6, {0, seconds(600)});
  agg.is_tunnel = true;
  const auto tid = f.broker.register_tunnel(agg);
  ASSERT_TRUE(tid.ok());
  Tunnel* tunnel = f.broker.find_tunnel(*tid);
  ASSERT_NE(tunnel, nullptr);
  ASSERT_TRUE(tunnel->authorize("CN=Alice,O=DomainA,C=US").ok());

  EXPECT_TRUE(tunnel
                  ->allocate("sub-1", "CN=Alice,O=DomainA,C=US",
                             {0, seconds(60)}, 30e6)
                  .ok());
  // Unauthorized user.
  const auto bad = tunnel->allocate("sub-2", "CN=Eve,O=Evil,C=US",
                                    {0, seconds(60)}, 1e6);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kPolicyDenied);
  // Aggregate exceeded.
  EXPECT_FALSE(tunnel
                   ->allocate("sub-3", "CN=Alice,O=DomainA,C=US",
                              {0, seconds(60)}, 25e6)
                   .ok());
  // Outside tunnel lifetime.
  EXPECT_FALSE(tunnel
                   ->allocate("sub-4", "CN=Alice,O=DomainA,C=US",
                              {seconds(590), seconds(700)}, 1e6)
                   .ok());
  // Release then reuse.
  ASSERT_TRUE(tunnel->release("sub-1").ok());
  EXPECT_TRUE(tunnel
                  ->allocate("sub-5", "CN=Alice,O=DomainA,C=US",
                             {0, seconds(60)}, 50e6)
                  .ok());
}

TEST(Broker, TunnelRequiresTunnelSpec) {
  BrokerFixture f;
  EXPECT_FALSE(f.broker.register_tunnel(f.spec(10e6)).ok());
}

TEST(Broker, CountersTrackOutcomes) {
  BrokerFixture f;
  ASSERT_TRUE(f.broker.commit(f.spec(50e6), "").ok());
  (void)f.broker.commit(f.spec(90e6), "");
  EXPECT_EQ(f.broker.counters().requests, 2u);
  EXPECT_EQ(f.broker.counters().granted, 1u);
  EXPECT_EQ(f.broker.counters().denied_admission, 1u);
}

TEST(Broker, PurgeExpiredCountsAsReleased) {
  BrokerFixture f;
  ASSERT_TRUE(f.broker.commit(f.spec(10e6, {0, seconds(10)}), "").ok());
  ASSERT_TRUE(f.broker.commit(f.spec(20e6, {0, seconds(600)}), "").ok());
  ASSERT_EQ(f.broker.purge_expired(seconds(30)), 1u);
  // A purge is a release: granted - released counts the live records.
  const auto c = f.broker.counters();
  EXPECT_EQ(c.released, 1u);
  EXPECT_EQ(c.granted - c.released, f.broker.reservation_count());
  EXPECT_EQ(f.broker.reservation_count(), 1u);
}

TEST(Broker, MixedTrafficLeavesZeroResidual) {
  // Four callers' mixes interleaved round by round: held singles, bursts
  // released together, per-flow tunnel allocations and headroom reads.
  // Capacity is never oversubscribed, the counters agree with what the
  // callers saw, and once everything is released the broker and both
  // tunnels are whole again.
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

  constexpr int kCallers = 4;
  constexpr int kRounds = 40;
  std::uint64_t requests = 0;
  std::uint64_t granted = 0;
  std::vector<std::vector<ReservationId>> held(kCallers);
  auto commit = [&](double rate,
                    TimeInterval iv) -> std::optional<ReservationId> {
    ++requests;
    auto id = f.broker.commit(f.spec(rate, iv), "");
    if (!id.ok()) return std::nullopt;
    ++granted;
    return *id;
  };
  for (int i = 0; i < kRounds; ++i) {
    for (int t = 0; t < kCallers; ++t) {
      const std::string tag =
          "w" + std::to_string(t) + "-" + std::to_string(i);
      std::vector<ReservationId>& mine = held[t];
      switch (i % 4) {
        case 0: {  // single commit (kept for a while, then released)
          const SimTime start = seconds((t * kRounds + i) % 40);
          if (auto id = commit(4e6, {start, start + seconds(25)})) {
            mine.push_back(*id);
          }
          break;
        }
        case 1: {  // five commits held together, then released
          std::vector<ReservationId> burst;
          for (int j = 0; j < 5; ++j) {
            const SimTime start = seconds((t * 11 + i * 3 + j) % 45);
            if (auto id = commit(3e6, {start, start + seconds(15)})) {
              burst.push_back(*id);
            }
          }
          for (const auto& id : burst) ASSERT_TRUE(f.broker.release(id).ok());
          break;
        }
        case 2: {  // per-flow allocations across both tunnels
          for (int j = 0; j < 4; ++j) {
            Tunnel* tunnel = tunnels[static_cast<std::size_t>(j) % 2];
            const std::string sub_id = tag + "-" + std::to_string(j);
            if (tunnel->allocate(sub_id, alice, {0, seconds(60)}, 1e6).ok()) {
              ASSERT_TRUE(tunnel->release(sub_id).ok());
            }
          }
          break;
        }
        default: {  // headroom reads between the writes
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
    for (SimTime t = 0; t <= seconds(80); t += seconds(1)) {
      ASSERT_LE(f.broker.committed_at(t), 100e6 + 1e-3) << t;
    }
    const auto c = f.broker.counters();
    ASSERT_EQ(c.granted - c.released, f.broker.reservation_count());
  }
  for (const auto& mine : held) {
    for (const auto& id : mine) ASSERT_TRUE(f.broker.release(id).ok());
  }

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
  EXPECT_EQ(c.requests, requests);
  EXPECT_EQ(c.granted, granted);
  EXPECT_EQ(c.granted, c.released);
  EXPECT_GT(granted, 0u);
}

TEST(ResSpec, EncodeDecodeRoundTrip) {
  ResSpec s;
  s.user = "CN=Alice,O=ANL,C=US";
  s.source_domain = "DomainA";
  s.destination_domain = "DomainC";
  s.rate_bits_per_s = 10e6;
  s.burst_bits = 30000;
  s.interval = {seconds(100), seconds(700)};
  s.max_cost = 12.5;
  s.linked_cpu_reservation = "cpu-111";
  s.is_tunnel = true;
  const auto back = ResSpec::decode(s.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

TEST(ResSpec, DecodeRejectsGarbage) {
  EXPECT_FALSE(ResSpec::decode(to_bytes("not a res spec")).ok());
  ResSpec s;
  s.user = "x";
  Bytes enc = s.encode();
  enc.push_back(0xff);
  EXPECT_FALSE(ResSpec::decode(enc).ok());
}

TEST(ResSpec, EncodingIsCanonical) {
  ResSpec s;
  s.user = "CN=Alice,O=ANL,C=US";
  s.rate_bits_per_s = 10e6;
  s.interval = {0, seconds(1)};
  EXPECT_EQ(s.encode(), s.encode());
  ResSpec t = s;
  t.rate_bits_per_s = 10e6 + 1;
  EXPECT_NE(s.encode(), t.encode());
}

}  // namespace
}  // namespace e2e::bb
