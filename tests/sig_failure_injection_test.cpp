// Failure injection against the hop-by-hop engine: unreachable peers,
// missing routes, stale certificates, and byzantine brokers.
#include <gtest/gtest.h>

#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;
using testing::kWorldValidity;

TEST(FailureInjection, MissingChannelReportsUnavailable) {
  // Build an engine where B<->C were never connected.
  ChainWorld world;
  Fabric fabric;
  Rng rng(1);
  HopByHopEngine engine(fabric, rng);
  for (std::size_t i = 0; i < 3; ++i) {
    engine.add_domain(world.broker(i));
    engine.trust_community(world.names()[i], "ESnet",
                           world.cas_esnet().public_key());
  }
  ASSERT_TRUE(engine.connect_peers("DomainA", "DomainB", 0).ok());
  // DomainB -> DomainC deliberately not connected.
  const WorldUser alice = world.make_user("Alice", 0);
  engine.register_local_user("DomainA", alice.identity_cert);
  const auto msg = engine.build_user_request(alice.credentials(),
                                             world.spec(alice, 1e6), 0);
  const auto outcome = engine.reserve(*msg, seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kUnavailable);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainB");
  // B rolled back its tentative commitment.
  EXPECT_EQ(world.broker(1).reservation_count(), 0u);
}

TEST(FailureInjection, MissingRouteReportsNoRoute) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec spec = world.spec(alice, 1e6);
  spec.destination_domain = "DomainZ";  // no such place
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kNoRoute);
}

TEST(FailureInjection, ExpiredUserCertificateRejected) {
  ChainWorld world;
  WorldUser alice = world.make_user("Alice", 0);
  // Re-issue Alice's identity with a tiny validity and re-register it.
  alice.identity_cert = world.ca(0).issue(alice.dn, alice.identity_keys.pub,
                                          {0, seconds(10)});
  world.engine().register_local_user("DomainA", alice.identity_cert);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(60));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kExpired);
}

TEST(FailureInjection, RequestAddressedToWrongBrokerRejected) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec spec = world.spec(alice, 1e6);
  // Sign a request addressed to DomainB's broker but submit it with
  // source_domain = DomainA.
  const RarMessage msg = RarMessage::create_user_request(
      spec, world.broker(1).dn().to_string(), {}, alice.identity_keys.priv);
  const auto outcome = world.engine().reserve(msg, seconds(1));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kAuthenticationFailed);
}

TEST(FailureInjection, ByzantineBrokerCannotForgeUserConsent) {
  // A compromised intermediate cannot rewrite the reservation (e.g. raise
  // the bandwidth) without breaking the user's signature.
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  // "Byzantine B" rebuilds the message with a different res_spec but can
  // only re-sign the user layer with a key it controls.
  bb::ResSpec inflated = world.spec(alice, 500e6);
  Rng rng(3);
  const crypto::KeyPair mallory = crypto::generate_keypair(rng, 256);
  const RarMessage forged = RarMessage::create_user_request(
      inflated, world.broker(0).dn().to_string(),
      msg->user_layer().capability_certs, mallory.priv);
  // The source BB verifies against Alice's registered certificate.
  const auto outcome = world.engine().reserve(forged, seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kBadSignature);
}

TEST(FailureInjection, TunnelSurvivesIntermediateChannelLoss) {
  // Once a tunnel exists, losing the A-B signalling channel does not stop
  // per-flow allocations (they ride the direct A<->C channel).
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec agg = world.spec(alice, 50e6, {0, hours(1)});
  agg.is_tunnel = true;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), agg, 0);
  const auto established = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(established->reply.granted);
  // No explicit channel-kill API (sessions are engine state), but a fresh
  // end-to-end reservation and a tunnel flow must both still work — and
  // the flow must not touch the intermediate broker at all.
  const auto before = world.broker(1).counters().requests;
  const auto flow = world.engine().reserve_in_tunnel(
      established->reply.tunnel_id, alice.dn.to_string(), 1e6,
      {0, seconds(60)}, seconds(2));
  ASSERT_TRUE(flow->reply.granted);
  EXPECT_EQ(world.broker(1).counters().requests, before);
}

TEST(FailureInjection, DoubleReleaseIsSafe) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
  const auto second = world.engine().release_end_to_end(outcome->reply);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kNotFound);
  // State stays consistent.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Per-stage / per-hop failure matrix on a 4-domain path (ISSUE 2
// satellite): force a failure at each processing stage (verify, policy,
// admission, sign_and_forward) at each hop and assert both the denial
// (code + origin) and that every upstream broker released its tentative
// commitment.
//
// Stage "verify" cannot be forced at hop 1 through public configuration:
// hop 1 receives exactly one broker layer from its directly authenticated
// channel peer (introduction depth 0), so no trust policy — however
// strict — can reject it, and the channel layer already authenticates the
// bytes. That structural gap is intentional; the hop-0 (bad user
// signature) and hop-2/3 (trust-depth) cases bracket it.
// ---------------------------------------------------------------------------

ChainWorldConfig four_domain_config() {
  ChainWorldConfig config;
  config.domains = 4;
  return config;
}

void expect_all_released(ChainWorld& world, std::size_t expected_residual = 0) {
  std::size_t residual = 0;
  for (std::size_t i = 0; i < world.names().size(); ++i) {
    residual += world.broker(i).reservation_count();
  }
  EXPECT_EQ(residual, expected_residual);
}

TEST(FailureMatrix, VerifyFailsAtHop0WithForgedUserSignature) {
  ChainWorld world(four_domain_config());
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  Rng rng(7);
  const crypto::KeyPair mallory = crypto::generate_keypair(rng, 256);
  const RarMessage forged = RarMessage::create_user_request(
      world.spec(alice, 1e6), world.broker(0).dn().to_string(),
      msg->user_layer().capability_certs, mallory.priv);
  const auto outcome = world.engine().reserve(forged, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kBadSignature);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainA");
  expect_all_released(world);
}

TEST(FailureMatrix, VerifyFailsAtDeepHopsViaTrustDepthPolicy) {
  // Hop k (0-indexed) sees broker signature layers introduced at depths
  // 0..k-1, so max_introduction_depth = k-2 rejects exactly the deepest
  // introduction at hop k while hops before it still pass.
  for (std::size_t hop : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "verify hop " << hop);
    ChainWorld world(four_domain_config());
    const WorldUser alice = world.make_user("Alice", 0);
    TrustPolicy strict;
    strict.max_introduction_depth = hop - 2;
    world.engine().set_trust_policy(world.names()[hop], strict);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 1e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->reply.granted);
    EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kUntrustedKey);
    EXPECT_EQ(outcome->reply.denial.origin, world.names()[hop]);
    expect_all_released(world);
  }
}

TEST(FailureMatrix, PolicyDeniesAtEveryHop) {
  for (std::size_t hop = 0; hop < 4; ++hop) {
    SCOPED_TRACE(::testing::Message() << "policy hop " << hop);
    ChainWorldConfig config = four_domain_config();
    config.policies.assign(4, "Return GRANT");
    config.policies[hop] = "Return DENY";
    ChainWorld world(config);
    const WorldUser alice = world.make_user("Alice", 0);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 1e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->reply.granted);
    EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kPolicyDenied);
    EXPECT_EQ(outcome->reply.denial.origin, world.names()[hop]);
    expect_all_released(world);
  }
}

TEST(FailureMatrix, AdmissionRejectsAtEveryHop) {
  for (std::size_t hop = 0; hop < 4; ++hop) {
    SCOPED_TRACE(::testing::Message() << "admission hop " << hop);
    ChainWorld world(four_domain_config());
    const WorldUser alice = world.make_user("Alice", 0);
    // Pre-fill hop's local pool so the request's 10 Mb/s no longer fits
    // (capacity 622 Mb/s; the SLA pools stay untouched by a local commit).
    bb::ResSpec filler;
    filler.user = "uid=prefill";
    filler.source_domain = world.names()[hop];
    filler.destination_domain = world.names()[hop];
    filler.rate_bits_per_s = 615e6;
    filler.interval = {0, seconds(600)};
    ASSERT_TRUE(world.broker(hop).commit(filler, "").ok());
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->reply.granted);
    EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kAdmissionRejected);
    EXPECT_EQ(outcome->reply.denial.origin, world.names()[hop]);
    expect_all_released(world, /*expected_residual=*/1);  // the filler
  }
}

TEST(FailureMatrix, ForwardTimesOutAtEveryLink) {
  for (std::size_t hop = 0; hop < 3; ++hop) {
    SCOPED_TRACE(::testing::Message() << "forward hop " << hop);
    ChainWorld world(four_domain_config());
    const WorldUser alice = world.make_user("Alice", 0);
    world.partition_link(hop, hop + 1);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 1e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_FALSE(outcome->reply.granted);
    EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kTimeout);
    EXPECT_EQ(outcome->reply.denial.origin, world.names()[hop]);
    expect_all_released(world);
    // And the path works again once the link heals: an identical
    // re-submission is a new exchange, evaluated afresh.
    world.heal_link(hop, hop + 1);
    const auto retry = world.engine().reserve(*msg, seconds(2));
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE(retry->reply.granted);
  }
}

TEST(FailureInjection, ReplayedRarRejectedByChannel) {
  // The engine drives sessions with strictly increasing sequence numbers;
  // a replayed record is refused by the channel layer. We exercise this
  // directly through Session (the engine consumes records immediately).
  ChainWorld world;
  Rng rng(17);
  auto ep = [&world](std::size_t i) {
    ChannelEndpoint ep;
    ep.certificate = world.broker(i).certificate();
    ep.private_key = world.broker(i).private_key();
    ep.trust_store = &world.broker(i).trust_store();
    return ep;
  };
  auto pair = handshake(ep(0), ep(1), 0, rng).value();
  const Record rec = pair.initiator.seal(to_bytes("RAR"));
  ASSERT_TRUE(pair.responder.open(rec).ok());
  EXPECT_FALSE(pair.responder.open(rec).ok());
}

}  // namespace
}  // namespace e2e::sig
