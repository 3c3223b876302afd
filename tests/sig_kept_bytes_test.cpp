// A hop signs, verifies and forwards the bytes it received. These tests pin
// the kept-bytes accessors of RarMessage and Certificate to the struct
// re-encoders along whole paths, and check that the signatures now cover
// exactly the received bytes: any flipped byte stops the request at the
// destination, and a re-spelled DN no longer verifies.
#include <gtest/gtest.h>

#include <algorithm>

#include "dn_respelling.hpp"
#include "sig/delegation.hpp"
#include "sig/message.hpp"
#include "sig/trust.hpp"
#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

Bytes to_vector(BytesView v) { return Bytes(v.begin(), v.end()); }

void expect_certificate_matches_reference(BytesView encoded) {
  const auto cert = crypto::Certificate::decode(encoded);
  ASSERT_TRUE(cert.ok()) << cert.error().to_text();
  EXPECT_EQ(to_vector(cert->tbs_encode()), cert->tbs_encode_reference());
  EXPECT_TRUE(std::ranges::equal(cert->encode(), encoded));
}

/// Every kept-bytes accessor of `msg` against its struct re-encoder, and
/// every certificate the message carries against its TBS re-encoder.
void expect_matches_reference(const RarMessage& msg) {
  EXPECT_EQ(msg.encode(), msg.encode_reference());
  EXPECT_EQ(msg.wire_size(), msg.encode_reference().size());
  EXPECT_EQ(to_vector(msg.user_tbs()), msg.user_tbs_reference());
  for (std::size_t k = 0; k < msg.depth(); ++k) {
    EXPECT_EQ(msg.broker_tbs(k), msg.broker_tbs_reference(k)) << "layer " << k;
  }
  for (const Bytes& cap : msg.user_layer().capability_certs) {
    expect_certificate_matches_reference(cap);
  }
  for (const BrokerLayer& layer : msg.broker_layers()) {
    expect_certificate_matches_reference(layer.upstream_certificate);
    for (const Bytes& cap : layer.capability_certs) {
      expect_certificate_matches_reference(cap);
    }
  }
}

/// The layer broker `h` adds before forwarding to broker h+1, with the
/// fields HopByHopEngine::step() fills in.
BrokerLayer layer_of(ChainWorld& world, const WorldUser& user, std::size_t h) {
  BrokerLayer layer;
  layer.upstream_certificate =
      h == 0 ? user.identity_cert.encode()
             : world.broker(h - 1).certificate().encode();
  layer.downstream_dn = world.broker(h + 1).dn().to_string();
  layer.capability_certs = {world.broker(h).certificate().encode()};
  layer.augmentations = {{"Cost.offer", std::to_string(h + 1)}};
  layer.signer_dn = world.broker(h).dn().to_string();
  return layer;
}

RarMessage::Signer signer_of(ChainWorld& world, std::size_t h) {
  return [&world, h](BytesView tbs) { return world.broker(h).sign(tbs); };
}

ChainWorldConfig world_of(std::size_t domains) {
  ChainWorldConfig config;
  config.domains = domains;
  return config;
}

/// Verification at the last broker of a `domains`-long chain of what the
/// broker before it forwarded.
Result<VerifiedRar> verify_at_destination(ChainWorld& world,
                                          std::size_t domains,
                                          BytesView wire) {
  auto msg = RarMessage::decode(wire);
  if (!msg.ok()) return msg.error();
  bb::BandwidthBroker& self = world.broker(domains - 1);
  return verify_rar(*msg, world.broker(domains - 2).certificate(), self.dn(),
                    TrustPolicy{}, seconds(1));
}

/// The wire the destination of a `domains`-long chain receives: the user's
/// request plus one layer per broker before it.
Bytes signed_path(ChainWorld& world, const WorldUser& alice,
                  std::size_t domains) {
  Bytes wire = world.engine()
                   .build_user_request(alice.credentials(),
                                       world.spec(alice, 1e6), 0)
                   .value()
                   .encode();
  for (std::size_t h = 0; h + 1 < domains; ++h) {
    wire = RarMessage::decode(wire).value().encode_with_layer(
        layer_of(world, alice, h), signer_of(world, h));
  }
  return wire;
}

class KeptBytesPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KeptBytesPath, EveryHopMatchesTheStructReencoders) {
  const std::size_t domains = GetParam();
  ChainWorld world(world_of(domains));
  const WorldUser alice = world.make_user("Alice", 0);
  const RarMessage user_msg =
      world.engine()
          .build_user_request(alice.credentials(), world.spec(alice, 1e6), 0)
          .value();
  expect_matches_reference(user_msg);

  Bytes wire = user_msg.encode();
  for (std::size_t h = 0; h + 1 < domains; ++h) {
    SCOPED_TRACE(::testing::Message() << "hop " << h);
    const auto received = RarMessage::decode(wire);
    ASSERT_TRUE(received.ok()) << received.error().to_text();
    EXPECT_EQ(received->encode(), wire);
    expect_matches_reference(*received);

    const Bytes forwarded = received->encode_with_layer(
        layer_of(world, alice, h), signer_of(world, h));
    RarMessage appended = *received;
    appended.append_broker_layer(layer_of(world, alice, h),
                                 signer_of(world, h));
    EXPECT_EQ(forwarded, appended.encode());
    expect_matches_reference(appended);
    wire = forwarded;
  }
  const auto at_destination = verify_at_destination(world, domains, wire);
  ASSERT_TRUE(at_destination.ok()) << at_destination.error().to_text();
  EXPECT_EQ(at_destination->path.size(), domains - 1);
}

INSTANTIATE_TEST_SUITE_P(Domains, KeptBytesPath, ::testing::Values(2, 4, 8));

TEST(KeptBytes, EveryByteFlipOfAThreeLayerRarFailsAtTheDestination) {
  constexpr std::size_t kDomains = 4;  // the destination gets three layers
  ChainWorld world(world_of(kDomains));
  const WorldUser alice = world.make_user("Alice", 0);
  const Bytes wire = signed_path(world, alice, kDomains);
  ASSERT_TRUE(verify_at_destination(world, kDomains, wire).ok());
  for (const std::uint8_t mask : {0x01, 0xff}) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      Bytes mutated = wire;
      mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ mask);
      EXPECT_FALSE(verify_at_destination(world, kDomains, mutated).ok())
          << "byte " << i << " ^ " << int{mask} << " still verifies";
    }
  }
}

TEST(KeptBytes, RespelledCapabilityIssuerDecodesButNoLongerVerifies) {
  ChainWorldConfig config = world_of(2);
  config.policies = {"If Issued_by(Capability) = ESnet Return GRANT\n"
                     "Return DENY",
                     "Return GRANT"};
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const bb::ResSpec spec = world.spec(alice, 1e6);

  const auto granted = world.engine().reserve(
      world.engine().build_user_request(alice.credentials(), spec, 0).value(),
      seconds(1));
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->reply.granted);

  // The user presents the CAS capability with its issuer DN re-spelled. The
  // request and the certificate still decode, and the user's own signature
  // (over the bytes as sent) holds, but the CAS signature does not.
  const crypto::Certificate& cap = *alice.capability_cert;
  const auto respelled = crypto::Certificate::decode(testing::respell_issuer(
      cap.encode(), testing::respelled(cap.issuer())));
  ASSERT_TRUE(respelled.ok());
  EXPECT_EQ(respelled->issuer(), cap.issuer());
  UserCredentials creds = alice.credentials();
  creds.capability_certificate = *respelled;
  const RarMessage msg =
      world.engine().build_user_request(creds, spec, minutes(1)).value();
  const auto decoded = RarMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->verify_user_signature(alice.identity_keys.pub));
  const std::vector<BytesView> caps(
      decoded->user_layer().capability_certs.begin(),
      decoded->user_layer().capability_certs.end());
  const auto chain = decode_chain(caps);
  ASSERT_TRUE(chain.ok());
  const auto validated = verify_capability_chain(
      *chain, world.cas_esnet().public_key(), world.broker(0).public_key(),
      "Valid for Reservation in " + spec.destination_domain, minutes(1));
  ASSERT_FALSE(validated.ok());
  EXPECT_NE(validated.error().message.find("not signed by the community CAS"),
            std::string::npos)
      << validated.error().to_text();

  const auto denied = world.engine().reserve(msg, minutes(1));
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->reply.granted);
  EXPECT_EQ(denied->reply.denial.origin, "DomainA");
  EXPECT_EQ(denied->reply.denial.code, ErrorCode::kPolicyDenied);
}

}  // namespace
}  // namespace e2e::sig
