// End-to-end tests of the hop-by-hop signalling engine over the 3-domain
// chain world (the paper's Fig. 5 deployment).
#include "sig/hopbyhop.hpp"

#include <gtest/gtest.h>

#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

TEST(HopByHop, EndToEndGrant) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg =
      world.engine().build_user_request(alice.credentials(),
                                        world.spec(alice, 10e6), 0);
  ASSERT_TRUE(msg.ok()) << msg.error().to_text();
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
  ASSERT_TRUE(outcome->reply.granted) << outcome->reply.denial.to_text();

  // One handle per domain, source first.
  ASSERT_EQ(outcome->reply.handles.size(), 3u);
  EXPECT_EQ(outcome->reply.handles[0].first, "DomainA");
  EXPECT_EQ(outcome->reply.handles[1].first, "DomainB");
  EXPECT_EQ(outcome->reply.handles[2].first, "DomainC");
  // All three brokers hold the reservation: "all BBs are always contacted".
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 1u);
    EXPECT_DOUBLE_EQ(world.broker(i).committed_at(seconds(10)), 10e6);
  }
  EXPECT_EQ(outcome->domains_contacted, 3u);
}

TEST(HopByHop, LatencyIsSumOfHops) {
  ChainWorldConfig config;
  config.inter_domain_latency = milliseconds(20);
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  world.fabric().set_processing_delay(milliseconds(1));
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  // 2*user_link (2*1ms) + 3 * processing (3ms) + 2 hops * rtt (2*40ms).
  EXPECT_EQ(outcome->latency,
            2 * milliseconds(1) + 3 * milliseconds(1) + 2 * milliseconds(40));
}

TEST(HopByHop, UnknownUserRejectedAtSource) {
  ChainWorld world;
  WorldUser mallory = world.make_user("Mallory", 0);
  // Build a world user but *de-register* by using a different engine-less
  // user: simplest is a fresh credential set never registered.
  Rng rng(5);
  const crypto::KeyPair keys = crypto::generate_keypair(rng, 256);
  const auto dn = crypto::DistinguishedName::make("Ghost", "DomainA");
  const crypto::Certificate cert =
      world.ca(0).issue(dn, keys.pub, testing::kWorldValidity);
  bb::ResSpec spec = world.spec(mallory, 1e6);
  spec.user = dn.to_string();
  const RarMessage msg = RarMessage::create_user_request(
      spec, world.broker(0).dn().to_string(), {}, keys.priv);
  const auto outcome = world.engine().reserve(msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kAuthenticationFailed);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainA");
}

TEST(HopByHop, PolicyDenialPropagatesWithOriginAndRollsBack) {
  ChainWorldConfig config;
  // Domain B (index 1) denies everything above 5 Mb/s.
  config.policies = {"Return GRANT",
                     "If BW <= 5Mb/s Return GRANT\nReturn DENY",
                     "Return GRANT"};
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kPolicyDenied);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainB");
  // Domain A's tentative commitment was rolled back; C was never asked.
  EXPECT_EQ(world.broker(0).reservation_count(), 0u);
  EXPECT_EQ(world.broker(2).counters().requests, 0u);
  EXPECT_EQ(outcome->domains_contacted, 2u);

  // A conforming request passes.
  const auto small = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 5e6), 0);
  EXPECT_TRUE(world.engine().reserve(*small, seconds(1))->reply.granted);
}

TEST(HopByHop, SlaExhaustionDeniedAtIntermediate) {
  ChainWorldConfig config;
  config.sla_rate = 20e6;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto first = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 15e6), 0);
  ASSERT_TRUE(world.engine().reserve(*first, seconds(1))->reply.granted);
  const auto second = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  const auto outcome = world.engine().reserve(*second, seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kAdmissionRejected);
  // Denial originated at B (the A->B SLA pool) — first transit domain.
  EXPECT_EQ(outcome->reply.denial.origin, "DomainB");
  // Rollback: A holds only the first reservation.
  EXPECT_EQ(world.broker(0).reservation_count(), 1u);
}

TEST(HopByHop, ReleaseEndToEndRestoresAllDomains) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 50e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 0u);
    EXPECT_DOUBLE_EQ(world.broker(i).committed_at(seconds(10)), 0.0);
  }
}

TEST(HopByHop, CapabilityListGrowsPerHop) {
  // Fig. 7: "BB_A now receives two capability certificates ... BB_B
  // receives three ... BB_C possesses four."
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  std::map<std::string, std::size_t> caps_seen;
  world.engine().set_observer(
      [&caps_seen](const std::string& domain, const VerifiedRar& vr) {
        caps_seen[domain] = vr.capability_certs.size();
      });
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  EXPECT_EQ(caps_seen["DomainA"], 2u);
  EXPECT_EQ(caps_seen["DomainB"], 3u);
  EXPECT_EQ(caps_seen["DomainC"], 4u);
}

TEST(HopByHop, PathTrackingVisibleAtDestination) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  std::vector<PathElement> dest_path;
  world.engine().set_observer(
      [&dest_path](const std::string& domain, const VerifiedRar& vr) {
        if (domain == "DomainC") dest_path = vr.path;
      });
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  ASSERT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);
  ASSERT_EQ(dest_path.size(), 2u);  // BB-A, BB-B
  EXPECT_EQ(dest_path[0].signer.common_name(), "BB-DomainA");
  EXPECT_EQ(dest_path[1].signer.common_name(), "BB-DomainB");
  // BB-B authenticated directly on the channel; BB-A introduced by BB-B.
  EXPECT_EQ(dest_path[1].introduction_depth, 0u);
  EXPECT_EQ(dest_path[0].introduction_depth, 1u);
}

TEST(HopByHop, CapabilityBackedPolicyAtDestination) {
  ChainWorldConfig config;
  // Destination requires an ESnet capability (Fig. 6 policy C, simplified).
  config.policies = {"Return GRANT", "Return GRANT",
                     "If Issued_by(Capability) = ESnet Return GRANT\n"
                     "Return DENY"};
  ChainWorld world(config);
  const WorldUser with_cap = world.make_user("Alice", 0, true);
  const auto ok_msg = world.engine().build_user_request(
      with_cap.credentials(), world.spec(with_cap, 10e6), 0);
  EXPECT_TRUE(world.engine().reserve(*ok_msg, seconds(1))->reply.granted);

  const WorldUser without_cap = world.make_user("Bob", 0, false);
  const auto bad_msg = world.engine().build_user_request(
      without_cap.credentials(), world.spec(without_cap, 10e6), 0);
  const auto denied = world.engine().reserve(*bad_msg, seconds(1));
  ASSERT_FALSE(denied->reply.granted);
  EXPECT_EQ(denied->reply.denial.origin, "DomainC");
}

TEST(HopByHop, BrokerWithoutItsPrivateKeyValidatesNoCapability) {
  // A one-domain path whose policy grants only on an ESnet capability. The
  // broker proves once, at add_domain(), that it holds the private key its
  // capability chains bind to; a broker whose private key does not match
  // its certificate's key fails that proof and validates no capability.
  auto reserve_with_capability = [](bool matching_key) {
    Rng rng(4242);
    crypto::CertificateAuthority ca(
        crypto::DistinguishedName::make("CA-DomainA", "DomainA"), rng,
        testing::kWorldValidity, 256);
    policy::CommunityAuthorizationServer cas("ESnet", rng,
                                             testing::kWorldValidity, 256);
    crypto::KeyPair keys = crypto::generate_keypair(rng, 256);
    const crypto::KeyPair other = crypto::generate_keypair(rng, 256);
    if (!matching_key) keys.priv = other.priv;
    bb::BandwidthBroker broker(
        bb::BrokerConfig{"DomainA", 622e6, 256},
        policy::PolicyServer(
            "DomainA", policy::Policy::compile(
                           "If Issued_by(Capability) = ESnet Return GRANT\n"
                           "Return DENY")
                           .value()),
        ca, keys, testing::kWorldValidity);
    EXPECT_EQ(broker.certificate().subject_public_key(), keys.pub);
    Fabric fabric;
    HopByHopEngine engine(fabric, rng);
    engine.add_domain(broker);
    engine.trust_community("DomainA", "ESnet", cas.public_key());

    const auto alice = crypto::DistinguishedName::make("Alice", "DomainA");
    const crypto::KeyPair identity = crypto::generate_keypair(rng, 256);
    const crypto::KeyPair proxy = crypto::generate_keypair(rng, 256);
    UserCredentials creds;
    creds.identity_certificate =
        ca.issue(alice, identity.pub, testing::kWorldValidity);
    creds.identity_key = identity.priv;
    creds.capability_certificate =
        cas.grid_login(alice, proxy.pub, testing::kWorldValidity);
    creds.proxy_key = proxy.priv;
    engine.register_local_user("DomainA", creds.identity_certificate);

    bb::ResSpec spec;
    spec.user = alice.to_string();
    spec.source_domain = "DomainA";
    spec.destination_domain = "DomainA";
    spec.rate_bits_per_s = 1e6;
    spec.burst_bits = 30000;
    spec.interval = {0, seconds(600)};
    const auto msg = engine.build_user_request(creds, spec, 0);
    EXPECT_TRUE(msg.ok());
    const auto outcome = engine.reserve(*msg, seconds(1));
    EXPECT_TRUE(outcome.ok());
    return outcome->reply;
  };
  EXPECT_TRUE(reserve_with_capability(true).granted);
  const RarReply denied = reserve_with_capability(false);
  EXPECT_FALSE(denied.granted);
  EXPECT_EQ(denied.denial.code, ErrorCode::kPolicyDenied);
  EXPECT_EQ(denied.denial.origin, "DomainA");
}

TEST(HopByHop, GroupBackedPolicyAtIntermediate) {
  ChainWorldConfig config;
  // Intermediate admits only Atlas members (Fig. 6 policy B, first branch).
  config.policies = {"Return GRANT",
                     "If Group = Atlas { If BW <= 10Mb/s Return GRANT }\n"
                     "Return DENY",
                     "Return GRANT"};
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  world.group_server().add_member("Atlas", alice.dn);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  EXPECT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);

  const WorldUser bob = world.make_user("Bob", 0);
  const auto bob_msg = world.engine().build_user_request(
      bob.credentials(), world.spec(bob, 10e6), 0);
  const auto denied = world.engine().reserve(*bob_msg, seconds(1));
  ASSERT_FALSE(denied->reply.granted);
  EXPECT_EQ(denied->reply.denial.origin, "DomainB");
}

TEST(HopByHop, AugmentationsTravelDownstream) {
  ChainWorld world;
  world.broker(0).policy_server().add_static_augmentation(
      {"TE.excess", "downgrade"});
  world.broker(1).policy_server().add_static_augmentation(
      {"Reliability", "0.999"});
  const WorldUser alice = world.make_user("Alice", 0);
  std::vector<policy::Augmentation> at_destination;
  world.engine().set_observer(
      [&at_destination](const std::string& domain, const VerifiedRar& vr) {
        if (domain == "DomainC") at_destination = vr.augmentations;
      });
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  ASSERT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);
  ASSERT_EQ(at_destination.size(), 2u);
  EXPECT_EQ(at_destination[0].name, "TE.excess");
  EXPECT_EQ(at_destination[1].name, "Reliability");
}

TEST(HopByHop, WireSizeGrowsAlongPath) {
  ChainWorldConfig config;
  config.domains = 5;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.handles.size(), 5u);
  EXPECT_GT(outcome->final_wire_bytes, msg->wire_size());
}

TEST(HopByHop, FiveDomainChainVerifiesThroughIntroductions) {
  ChainWorldConfig config;
  config.domains = 5;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  std::vector<PathElement> dest_path;
  world.engine().set_observer(
      [&](const std::string& domain, const VerifiedRar& vr) {
        if (domain == "DomainE") dest_path = vr.path;
      });
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  ASSERT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);
  ASSERT_EQ(dest_path.size(), 4u);
  // Introduction depth increases toward the source.
  EXPECT_EQ(dest_path[3].introduction_depth, 0u);
  EXPECT_EQ(dest_path[0].introduction_depth, 3u);
}

TEST(HopByHop, DepthLimitEnforced) {
  ChainWorldConfig config;
  config.domains = 6;
  ChainWorld world(config);
  // Destination refuses chains deeper than 2 introductions.
  // (Rebuild its node options via a dedicated engine would be cleaner; we
  // emulate by a fresh engine with a strict policy on the last domain.)
  sig::Fabric fabric;
  Rng rng(1);
  sig::HopByHopEngine strict(fabric, rng);
  for (std::size_t i = 0; i < 6; ++i) {
    sig::DomainOptions options;
    if (i == 5) options.trust_policy.max_introduction_depth = 2;
    strict.add_domain(world.broker(i), options);
    strict.trust_community(world.names()[i], "ESnet",
                           world.cas_esnet().public_key());
  }
  for (std::size_t i = 0; i + 1 < 6; ++i) {
    ASSERT_TRUE(strict.connect_peers(world.names()[i], world.names()[i + 1],
                                     0)
                    .ok());
  }
  const WorldUser alice = world.make_user("Alice", 0);
  strict.register_local_user("DomainA", alice.identity_cert);
  const auto msg = strict.build_user_request(alice.credentials(),
                                             world.spec(alice, 1e6), 0);
  const auto outcome = strict.reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kUntrustedKey);
  EXPECT_NE(outcome->reply.denial.message.find("depth"), std::string::npos);
}

}  // namespace
}  // namespace e2e::sig
