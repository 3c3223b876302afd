#include "sig/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace e2e::sig {
namespace {

struct Keys {
  crypto::KeyPair user;
  crypto::KeyPair bb_a;
  crypto::KeyPair bb_b;
};

const Keys& keys() {
  static const Keys k = [] {
    Rng rng(99);
    return Keys{crypto::generate_keypair(rng, 256),
                crypto::generate_keypair(rng, 256),
                crypto::generate_keypair(rng, 256)};
  }();
  return k;
}

bb::ResSpec sample_spec() {
  bb::ResSpec s;
  s.user = "CN=Alice,O=DomainA,C=US";
  s.source_domain = "DomainA";
  s.destination_domain = "DomainC";
  s.rate_bits_per_s = 10e6;
  s.burst_bits = 30000;
  s.interval = {0, seconds(600)};
  return s;
}

RarMessage sample_user_message() {
  return RarMessage::create_user_request(
      sample_spec(), "CN=BB-DomainA,O=DomainA,C=US",
      {to_bytes("cap-cert-cas"), to_bytes("cap-cert-user")}, keys().user.priv);
}

BrokerLayer sample_layer_a() {
  BrokerLayer layer;
  layer.upstream_certificate = to_bytes("cert-of-user");
  layer.downstream_dn = "CN=BB-DomainB,O=DomainB,C=US";
  layer.capability_certs = {to_bytes("cap-cert-a")};
  layer.augmentations = {{"TE.excess", "drop"}, {"Cost.offer", "0.02"}};
  layer.signer_dn = "CN=BB-DomainA,O=DomainA,C=US";
  return layer;
}

TEST(RarMessage, UserSignatureVerifies) {
  const RarMessage msg = sample_user_message();
  EXPECT_TRUE(msg.verify_user_signature(keys().user.pub));
  EXPECT_FALSE(msg.verify_user_signature(keys().bb_a.pub));
}

TEST(RarMessage, EncodeDecodeRoundTripUserOnly) {
  const RarMessage msg = sample_user_message();
  const auto back = RarMessage::decode(msg.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->user_layer().res_spec, sample_spec());
  EXPECT_EQ(back->user_layer().source_bb_dn, "CN=BB-DomainA,O=DomainA,C=US");
  ASSERT_EQ(back->user_layer().capability_certs.size(), 2u);
  EXPECT_TRUE(back->verify_user_signature(keys().user.pub));
}

TEST(RarMessage, BrokerLayerSignatureVerifies) {
  RarMessage msg = sample_user_message();
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  EXPECT_TRUE(msg.verify_broker_signature(0, keys().bb_a.pub));
  EXPECT_FALSE(msg.verify_broker_signature(0, keys().bb_b.pub));
  // The user layer still verifies after extension.
  EXPECT_TRUE(msg.verify_user_signature(keys().user.pub));
}

TEST(RarMessage, SignerCallbackOverloadMatchesKeyOverload) {
  RarMessage via_key = sample_user_message();
  via_key.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  RarMessage via_callback = sample_user_message();
  via_callback.append_broker_layer(sample_layer_a(), [](BytesView tbs) {
    return crypto::sign(keys().bb_a.priv, tbs);
  });
  EXPECT_EQ(via_key.encode(), via_callback.encode());
}

TEST(RarMessage, NestedLayersRoundTrip) {
  RarMessage msg = sample_user_message();
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  BrokerLayer layer_b;
  layer_b.upstream_certificate = to_bytes("cert-of-a");
  layer_b.downstream_dn = "CN=BB-DomainC,O=DomainC,C=US";
  layer_b.signer_dn = "CN=BB-DomainB,O=DomainB,C=US";
  msg.append_broker_layer(std::move(layer_b), keys().bb_b.priv);

  const auto back = RarMessage::decode(msg.encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->depth(), 2u);
  EXPECT_TRUE(back->verify_user_signature(keys().user.pub));
  EXPECT_TRUE(back->verify_broker_signature(0, keys().bb_a.pub));
  EXPECT_TRUE(back->verify_broker_signature(1, keys().bb_b.pub));
  EXPECT_EQ(back->broker_layers()[0].augmentations.size(), 2u);
  EXPECT_EQ(back->broker_layers()[0].augmentations[0].name, "TE.excess");
}

TEST(RarMessage, OuterSignatureCoversInnerLayers) {
  // Tamper with an inner field after the outer layer was signed: the outer
  // signature must break even though the inner one (recomputed over the
  // tampered inner content by the attacker) could be forged only with the
  // inner key.
  RarMessage msg = sample_user_message();
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);

  Bytes wire = msg.encode();
  // Flip one byte inside the user layer region (bandwidth field area).
  wire[40] ^= 0x01;
  const auto tampered = RarMessage::decode(wire);
  if (tampered.ok()) {
    EXPECT_FALSE(tampered->verify_broker_signature(0, keys().bb_a.pub) &&
                 tampered->verify_user_signature(keys().user.pub));
  }
}

TEST(RarMessage, WireSizeGrowsPerLayer) {
  RarMessage msg = sample_user_message();
  const std::size_t s0 = msg.wire_size();
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  const std::size_t s1 = msg.wire_size();
  EXPECT_GT(s1, s0);
}

TEST(RarMessage, DecodeRejectsGarbage) {
  EXPECT_FALSE(RarMessage::decode(to_bytes("nonsense")).ok());
  EXPECT_FALSE(RarMessage::decode(Bytes{}).ok());
  RarMessage msg = sample_user_message();
  Bytes truncated = msg.encode();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(RarMessage::decode(truncated).ok());
}

TEST(RarMessage, TbsIsDeterministic) {
  RarMessage msg = sample_user_message();
  EXPECT_TRUE(std::ranges::equal(msg.user_tbs(), msg.user_tbs()));
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  EXPECT_EQ(msg.broker_tbs(0), msg.broker_tbs(0));
}

// ---------------------------------------------------------------------------
// Property tests (ISSUE 2 satellite): the TLV codec under random wire
// corruption. For any handful of random byte/bit flips on an encoded
// multi-layer RAR, decode must either fail cleanly or yield a message
// that no longer verifies as the original — corruption is never silently
// accepted as authentic. Seeded, so a failure reproduces exactly.
// ---------------------------------------------------------------------------

RarMessage sample_two_layer_message() {
  RarMessage msg = sample_user_message();
  msg.append_broker_layer(sample_layer_a(), keys().bb_a.priv);
  BrokerLayer layer_b;
  layer_b.upstream_certificate = to_bytes("cert-of-a");
  layer_b.downstream_dn = "CN=BB-DomainC,O=DomainC,C=US";
  layer_b.signer_dn = "CN=BB-DomainB,O=DomainB,C=US";
  msg.append_broker_layer(std::move(layer_b), keys().bb_b.priv);
  return msg;
}

bool verifies_as_original(const RarMessage& decoded) {
  return decoded.depth() == 2 &&
         decoded.verify_user_signature(keys().user.pub) &&
         decoded.verify_broker_signature(0, keys().bb_a.pub) &&
         decoded.verify_broker_signature(1, keys().bb_b.pub);
}

TEST(RarMessageProperty, RandomBitFlipsNeverVerifyAsOriginal) {
  const Bytes wire = sample_two_layer_message().encode();
  Rng rng(20010801);
  for (int iter = 0; iter < 500; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    Bytes mutated = wire;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(mutated.size());
      const std::uint8_t mask =
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ mask);
    }
    const auto decoded = RarMessage::decode(mutated);  // must not crash
    if (!decoded.ok()) continue;  // clean decode failure: fine
    EXPECT_FALSE(verifies_as_original(*decoded));
  }
}

TEST(RarMessageProperty, RandomByteStompsNeverVerifyAsOriginal) {
  const Bytes wire = sample_two_layer_message().encode();
  Rng rng(31337);
  for (int iter = 0; iter < 500; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    Bytes mutated = wire;
    const std::size_t stomps = 1 + rng.next_below(4);
    for (std::size_t s = 0; s < stomps; ++s) {
      const std::size_t pos = rng.next_below(mutated.size());
      std::uint8_t value = static_cast<std::uint8_t>(rng.next_below(256));
      if (value == mutated[pos]) value = static_cast<std::uint8_t>(value ^ 1u);
      mutated[pos] = value;
    }
    const auto decoded = RarMessage::decode(mutated);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(verifies_as_original(*decoded));
  }
}

TEST(RarMessageProperty, EveryTruncationFailsOrLosesLayers) {
  // A truncation that lands exactly on a layer boundary legitimately
  // decodes to a message with FEWER layers (the outer signatures are
  // simply gone); every other cut must fail cleanly. Either way the
  // result never passes as the complete 2-layer original, and the parser
  // never crashes or reads past the buffer.
  const Bytes wire = sample_two_layer_message().encode();
  std::size_t boundary_decodes = 0;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    SCOPED_TRACE(::testing::Message() << "length " << len);
    Bytes truncated(wire.begin(),
                    wire.begin() + static_cast<std::ptrdiff_t>(len));
    const auto decoded = RarMessage::decode(truncated);
    if (decoded.ok()) {
      ++boundary_decodes;
      EXPECT_LT(decoded->depth(), 2u);
      EXPECT_FALSE(verifies_as_original(*decoded));
    }
  }
  // Exactly the two layer boundaries (user-only, user+A) can decode.
  EXPECT_LE(boundary_decodes, 2u);
}

TEST(RarReply, Factories) {
  const RarReply ok = RarReply::approve();
  EXPECT_TRUE(ok.granted);
  const RarReply bad =
      RarReply::deny(make_error(ErrorCode::kPolicyDenied, "no", "DomainB"));
  EXPECT_FALSE(bad.granted);
  EXPECT_EQ(bad.denial.origin, "DomainB");
}

}  // namespace
}  // namespace e2e::sig
