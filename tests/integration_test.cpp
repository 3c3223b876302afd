// Cross-module integration tests: control plane (signalling) driving the
// data plane (DiffServ simulator), multi-user signalling, and fuzzing of
// the wire formats.
#include <gtest/gtest.h>

#include "acct/billing.hpp"
#include "gara/edge_binding.hpp"
#include "gara/gara_api.hpp"
#include "net/simulator.hpp"
#include "testing_world.hpp"

namespace e2e {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

// ---------------------------------------------------------------------
// Control plane -> data plane: a granted end-to-end reservation makes the
// user's traffic premium on the simulator; releasing it demotes the flow.
// ---------------------------------------------------------------------
TEST(Integration, ReservationControlsDataPlane) {
  ChainWorld world;
  WorldUser alice = world.make_user("Alice", 0);

  net::Topology topo;
  const auto da = topo.add_domain("DomainA");
  const auto db = topo.add_domain("DomainB");
  const auto dc = topo.add_domain("DomainC");
  const auto ra = topo.add_router(da, "edge-A", true);
  const auto rb = topo.add_router(db, "core-B", false);
  const auto rc = topo.add_router(dc, "edge-C", true);
  const auto ab = topo.add_link(ra, rb, 100e6, milliseconds(5));
  topo.add_link(rb, rc, 100e6, milliseconds(5));
  net::Simulator sim(std::move(topo), 3);

  net::FlowDescription fd;
  fd.name = "alice";
  fd.source = ra;
  fd.destination = rc;
  fd.wants_premium = true;
  fd.pattern = net::TrafficPattern::cbr(9e6);
  const net::FlowId flow = sim.add_flow(fd).value();

  gara::EdgeBinding binding(sim, ab);
  binding.bind_flow(alice.dn.to_string(), flow);
  binding.attach(world.broker(0));

  // Phase 1: no reservation -> best effort only.
  sim.run_until(seconds(1));
  EXPECT_EQ(sim.stats(flow).delivered_premium_bits, 0u);

  // Phase 2: reserve end to end -> premium service.
  bb::ResSpec spec = world.spec(alice, 10e6, {0, seconds(10)});
  spec.burst_bits = 120000;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  const auto premium_at_1s = sim.stats(flow).delivered_premium_bits;
  sim.run_until(seconds(3));
  const auto premium_at_3s = sim.stats(flow).delivered_premium_bits;
  EXPECT_GT(premium_at_3s - premium_at_1s, static_cast<std::uint64_t>(14e6));

  // Phase 3: release -> back to best effort.
  ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
  const auto premium_after_release = sim.stats(flow).delivered_premium_bits;
  sim.run_until(seconds(5));
  EXPECT_LT(sim.stats(flow).delivered_premium_bits - premium_after_release,
            static_cast<std::uint64_t>(1e6));
}

// ---------------------------------------------------------------------
// Many users, limited SLA: admission control serializes the premium pie.
// ---------------------------------------------------------------------
TEST(Integration, ContentionRespectsSlaPool) {
  ChainWorldConfig config;
  config.sla_rate = 50e6;
  ChainWorld world(config);
  std::vector<WorldUser> users;
  users.reserve(8);
  for (int i = 0; i < 8; ++i) {
    users.push_back(world.make_user("User" + std::to_string(i), 0));
  }
  std::size_t granted = 0;
  std::vector<sig::RarReply> replies;
  for (auto& user : users) {
    const auto msg = world.engine().build_user_request(
        user.credentials(), world.spec(user, 10e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    if (outcome->reply.granted) {
      ++granted;
      replies.push_back(outcome->reply);
    }
  }
  // 50 Mb/s SLA admits exactly five 10 Mb/s reservations.
  EXPECT_EQ(granted, 5u);
  // Releasing one admits one more.
  ASSERT_TRUE(world.engine().release_end_to_end(replies.front()).ok());
  const auto msg = world.engine().build_user_request(
      users.back().credentials(), world.spec(users.back(), 10e6), 0);
  EXPECT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);
}

// ---------------------------------------------------------------------
// Parallel-mode source-based signalling from several users, reserve and
// release interleaved, leaves no residual commitment at any broker.
// ---------------------------------------------------------------------
TEST(Integration, ParallelReservationsReleaseToZero) {
  ChainWorldConfig config;
  config.domains = 4;
  ChainWorld world(config);
  std::vector<WorldUser> users;
  for (int i = 0; i < 4; ++i) {
    users.push_back(
        world.make_user("User" + std::to_string(i), 0, true, true));
  }
  int granted = 0;
  for (int round = 0; round < 5; ++round) {
    for (const auto& user : users) {
      const auto outcome = world.source_engine().reserve(
          world.names(), world.spec(user, 5e6), user.identity_cert,
          user.identity_keys.priv, sig::SourceDomainEngine::Mode::kParallel,
          seconds(1));
      ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
      if (outcome->reply.granted) {
        ++granted;
        ASSERT_TRUE(
            world.source_engine().release_end_to_end(outcome->reply).ok());
      }
    }
  }
  EXPECT_EQ(granted, 20);
  // Everything released: no residual commitments anywhere.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 0u)
        << world.names()[i];
    EXPECT_EQ(world.broker(i).committed_at(seconds(1)), 0.0)
        << world.names()[i];
  }
}

// ---------------------------------------------------------------------
// Wire-format fuzzing: random bytes and random mutations of valid
// messages must never crash the decoders, and mutations must never yield
// a message that still fully verifies.
// ---------------------------------------------------------------------
TEST(Integration, RarDecoderSurvivesRandomBytes) {
  Rng rng(2468);
  for (int i = 0; i < 500; ++i) {
    Bytes noise(rng.next_below(400));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)sig::RarMessage::decode(noise);  // must not crash
  }
}

TEST(Integration, MutatedRarNeverVerifies) {
  ChainWorld world;
  WorldUser alice = world.make_user("Alice", 0);
  // Capture the exact message the destination received.
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  sig::RarMessage original = *msg;
  sig::BrokerLayer layer;
  layer.upstream_certificate = alice.identity_cert.encode();
  layer.downstream_dn = world.broker(1).dn().to_string();
  layer.signer_dn = world.broker(0).dn().to_string();
  original.append_broker_layer(std::move(layer), [&world](BytesView tbs) {
    return world.broker(0).sign(tbs);
  });
  const Bytes wire = original.encode();

  Rng rng(1357);
  int decoded_ok = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = wire;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto dec = sig::RarMessage::decode(mutated);
    if (!dec.ok()) continue;
    ++decoded_ok;
    // If it decodes, at least one signature must now fail (unless the
    // mutation hit a non-signed byte, which cannot happen: every byte of
    // the encoding is covered by the outermost layer's TBS except that
    // layer's own signature bytes — flipping those breaks that check).
    const bool user_ok =
        dec->verify_user_signature(alice.identity_cert.subject_public_key());
    const bool broker_ok =
        dec->depth() == 1 &&
        dec->verify_broker_signature(0, world.broker(0).public_key());
    EXPECT_FALSE(user_ok && broker_ok) << "mutation at byte " << pos;
  }
  EXPECT_GT(decoded_ok, 0);  // some mutations survive framing; that's fine
}

TEST(Integration, CertificateDecoderSurvivesRandomBytes) {
  Rng rng(9753);
  for (int i = 0; i < 500; ++i) {
    Bytes noise(rng.next_below(300));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)crypto::Certificate::decode(noise);
    (void)bb::ResSpec::decode(noise);
    (void)crypto::PublicKey::decode(noise);
  }
}

// ---------------------------------------------------------------------
// Randomized lifecycle stress: arbitrary interleavings of reserve and
// release must keep every broker's bookkeeping exact — at the end of each
// round, committed capacity equals the sum of live reservations, and after
// draining everything all pools are empty.
// ---------------------------------------------------------------------
class EngineLifecycleStress : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineLifecycleStress, NoLeaksUnderRandomInterleavings) {
  ChainWorldConfig config;
  config.sla_rate = 200e6;
  ChainWorld world(config);
  WorldUser alice = world.make_user("Alice", 0);
  Rng rng(GetParam());
  std::vector<sig::RarReply> live;
  double live_rate = 0;
  const TimeInterval window{0, seconds(600)};
  for (int step = 0; step < 60; ++step) {
    if (!live.empty() && rng.next_bool(0.4)) {
      const std::size_t pick = rng.next_below(live.size());
      live_rate -= 1e6;
      ASSERT_TRUE(world.engine().release_end_to_end(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      bb::ResSpec spec = world.spec(alice, 1e6, window);
      const auto msg =
          world.engine().build_user_request(alice.credentials(), spec, 0);
      const auto outcome = world.engine().reserve(*msg, seconds(1));
      ASSERT_TRUE(outcome.ok());
      if (outcome->reply.granted) {
        live.push_back(outcome->reply);
        live_rate += 1e6;
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_NEAR(world.broker(i).committed_at(seconds(300)), live_rate,
                  1e-3)
          << "step " << step << " domain " << i;
      ASSERT_EQ(world.broker(i).reservation_count(), live.size());
    }
  }
  for (const auto& reply : live) {
    ASSERT_TRUE(world.engine().release_end_to_end(reply).ok());
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 0u);
    EXPECT_DOUBLE_EQ(world.broker(i).committed_at(seconds(300)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineLifecycleStress,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------
// End-to-end + billing + tunnel composition: a long-lived tunnel's flows
// all bill to the user who owns the tunnel.
// ---------------------------------------------------------------------
TEST(Integration, TunnelFlowsComposeWithBilling) {
  ChainWorld world;
  WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec agg = world.spec(alice, 50e6, {0, hours(1)});
  agg.is_tunnel = true;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), agg, 0);
  const auto established = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(established->reply.granted);

  acct::BillingLedger ledger(
      [](const std::string&, const std::string&) { return 0.01; });
  std::vector<std::string> path;
  for (const auto& [domain, handle] : established->reply.handles) {
    path.push_back(domain);
  }
  ledger.bill_reservation(path, alice.dn.to_string(), agg, "tunnel");
  EXPECT_DOUBLE_EQ(ledger.total_user_payments(),
                   50e6 / 1e6 * 3600 * 0.01);  // 50 Mb/s for an hour
  EXPECT_NEAR(ledger.balance(alice.dn.to_string()),
              -ledger.total_user_payments(), 1e-9);
}

}  // namespace
}  // namespace e2e
