// Capability delegation chains — the Fig. 7 walkthrough and its failure
// modes.
#include "sig/delegation.hpp"

#include <gtest/gtest.h>

#include "policy/cas.hpp"

namespace e2e::sig {
namespace {

const TimeInterval kValidity{0, hours(1000)};

struct DelegationFixture {
  Rng rng{777};
  policy::CommunityAuthorizationServer cas{"ESnet", rng, kValidity, 256};
  crypto::DistinguishedName alice = crypto::DistinguishedName::make(
      "Alice", "DomainA");
  crypto::KeyPair proxy = crypto::generate_keypair(rng, 256);
  crypto::KeyPair bb_a = crypto::generate_keypair(rng, 256);
  crypto::KeyPair bb_b = crypto::generate_keypair(rng, 256);
  crypto::KeyPair bb_c = crypto::generate_keypair(rng, 256);
  crypto::DistinguishedName dn_a =
      crypto::DistinguishedName::make("BB-A", "DomainA");
  crypto::DistinguishedName dn_b =
      crypto::DistinguishedName::make("BB-B", "DomainB");
  crypto::DistinguishedName dn_c =
      crypto::DistinguishedName::make("BB-C", "DomainC");
  std::string restriction = "Valid for Reservation in DomainC";

  /// The full Fig. 7 chain: CAS -> user(proxy) -> BB_A -> BB_B -> BB_C.
  std::vector<crypto::Certificate> build_chain() {
    const crypto::Certificate root =
        cas.grid_login(alice, proxy.pub, kValidity);
    const crypto::Certificate to_a = delegate_capability(
        root, proxy.priv, dn_a, bb_a.pub, restriction, kValidity, 1);
    const crypto::Certificate to_b = delegate_capability(
        to_a, bb_a.priv, dn_b, bb_b.pub, "", kValidity, 2);
    const crypto::Certificate to_c = delegate_capability(
        to_b, bb_b.priv, dn_c, bb_c.pub, "", kValidity, 3);
    return {root, to_a, to_b, to_c};
  }
};

TEST(Delegation, Fig7ChainStructure) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  // "BB_B receives three capability certificates ... BB_C possesses four."
  ASSERT_EQ(chain.size(), 4u);
  // Issuer/subject linkage exactly as the figure lists it.
  EXPECT_EQ(chain[0].issuer(), f.cas.dn());
  EXPECT_EQ(chain[0].subject(), f.alice);
  EXPECT_EQ(chain[1].issuer(), f.alice);
  EXPECT_EQ(chain[1].subject(), f.dn_a);
  EXPECT_EQ(chain[2].issuer(), f.dn_a);
  EXPECT_EQ(chain[2].subject(), f.dn_b);
  EXPECT_EQ(chain[3].issuer(), f.dn_b);
  EXPECT_EQ(chain[3].subject(), f.dn_c);
  // Subject public keys are the delegates' real keys.
  EXPECT_EQ(chain[1].subject_public_key(), f.bb_a.pub);
  EXPECT_EQ(chain[3].subject_public_key(), f.bb_c.pub);
  // Capabilities copied, restriction attached from the first delegation on.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].capabilities(), chain[0].capabilities());
    EXPECT_EQ(chain[i].extension_value(crypto::kExtValidForRar).value_or(""),
              f.restriction);
  }
}

TEST(Delegation, FullChainVerifies) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  const auto result =
      verify_capability_chain(chain, f.cas.public_key(), f.bb_c.pub,
                              f.restriction, seconds(10));
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  EXPECT_EQ(result->community, "ESnet");
  ASSERT_EQ(result->capabilities.size(), 1u);
  EXPECT_EQ(result->capabilities[0], "Capabilities of ESnet");
  EXPECT_EQ(result->rar_restriction, f.restriction);
  EXPECT_EQ(result->length, 4u);
}

TEST(Delegation, PrefixChainsVerifyAtEachHop) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  // BB_A holds 2 certs, BB_B holds 3 — each hop can verify its own prefix.
  const std::vector<crypto::Certificate> at_a(chain.begin(),
                                              chain.begin() + 2);
  EXPECT_TRUE(verify_capability_chain(at_a, f.cas.public_key(), f.bb_a.pub,
                                      f.restriction, 0)
                  .ok());
  const std::vector<crypto::Certificate> at_b(chain.begin(),
                                              chain.begin() + 3);
  EXPECT_TRUE(verify_capability_chain(at_b, f.cas.public_key(), f.bb_b.pub,
                                      f.restriction, 0)
                  .ok());
}

TEST(Delegation, WrongCasRejected) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  Rng other(1);
  policy::CommunityAuthorizationServer rogue("ESnet", other, kValidity, 256);
  EXPECT_FALSE(verify_capability_chain(chain, rogue.public_key(), f.bb_c.pub,
                                       f.restriction, 0)
                   .ok());
}

TEST(Delegation, WrongHolderKeyRejected) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  // BB_B tries to use the chain delegated to BB_C.
  const auto result = verify_capability_chain(
      chain, f.cas.public_key(), f.bb_b.pub, f.restriction, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("holder"), std::string::npos);
}

TEST(Delegation, BrokenCascadeSignatureRejected) {
  DelegationFixture f;
  auto chain = f.build_chain();
  // Re-sign link 2 with the wrong key (not the parent's subject key).
  chain[2] = delegate_capability(chain[1], f.bb_b.priv /*wrong: not A's*/,
                                 f.dn_b, f.bb_b.pub, "", kValidity, 9);
  EXPECT_FALSE(verify_capability_chain(chain, f.cas.public_key(), f.bb_c.pub,
                                       f.restriction, 0)
                   .ok());
}

TEST(Delegation, CapabilityEscalationRejected) {
  DelegationFixture f;
  const crypto::Certificate root =
      f.cas.grid_login(f.alice, f.proxy.pub, kValidity, {"reserve-bw"});
  // A malicious delegation that *adds* a capability.
  crypto::Certificate::Builder b = build_delegation(
      root, f.dn_a, f.bb_a.pub, f.restriction, kValidity, 1);
  for (auto& ext : b.extensions) {
    if (ext.name == crypto::kExtCapabilities) {
      ext.value = "reserve-bw,root-access";
    }
  }
  const crypto::Certificate escalated = b.sign_with(f.proxy.priv);
  const std::vector<crypto::Certificate> chain{root, escalated};
  const auto result = verify_capability_chain(
      chain, f.cas.public_key(), f.bb_a.pub, f.restriction, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("escalates"), std::string::npos);
}

TEST(Delegation, DroppedCapabilityIsAllowedNarrowing) {
  DelegationFixture f;
  const crypto::Certificate root = f.cas.grid_login(
      f.alice, f.proxy.pub, kValidity, {"reserve-bw", "use-tunnel"});
  crypto::Certificate::Builder b = build_delegation(
      root, f.dn_a, f.bb_a.pub, f.restriction, kValidity, 1);
  for (auto& ext : b.extensions) {
    if (ext.name == crypto::kExtCapabilities) ext.value = "reserve-bw";
  }
  const crypto::Certificate narrowed = b.sign_with(f.proxy.priv);
  const std::vector<crypto::Certificate> chain{root, narrowed};
  const auto result = verify_capability_chain(
      chain, f.cas.public_key(), f.bb_a.pub, f.restriction, 0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->capabilities.size(), 1u);
  EXPECT_EQ(result->capabilities[0], "reserve-bw");
}

TEST(Delegation, AlteredRestrictionRejected) {
  DelegationFixture f;
  auto chain = f.build_chain();
  // BB_B rewrites the restriction to target a different reservation.
  crypto::Certificate::Builder b;
  b.serial = 99;
  b.issuer = f.dn_b;
  b.subject = f.dn_c;
  b.validity = kValidity;
  b.subject_key = f.bb_c.pub;
  for (const auto& ext : chain[2].extensions()) {
    if (ext.name == crypto::kExtValidForRar) continue;
    b.extensions.push_back(ext);
  }
  b.extensions.push_back(crypto::Extension{
      crypto::kExtValidForRar, true, "Valid for Reservation in DomainX"});
  chain[3] = b.sign_with(f.bb_b.priv);
  const auto result = verify_capability_chain(
      chain, f.cas.public_key(), f.bb_c.pub, f.restriction, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("restriction"), std::string::npos);
}

TEST(Delegation, RestrictionMismatchWithRarRejected) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  // The verifying RAR is for a different reservation.
  EXPECT_FALSE(verify_capability_chain(chain, f.cas.public_key(), f.bb_c.pub,
                                       "Valid for Reservation in DomainX", 0)
                   .ok());
}

TEST(Delegation, ExpiredLinkRejected) {
  DelegationFixture f;
  const crypto::Certificate root =
      f.cas.grid_login(f.alice, f.proxy.pub, kValidity);
  const crypto::Certificate short_lived = delegate_capability(
      root, f.proxy.priv, f.dn_a, f.bb_a.pub, f.restriction,
      {0, seconds(5)}, 1);
  const std::vector<crypto::Certificate> chain{root, short_lived};
  const auto result = verify_capability_chain(
      chain, f.cas.public_key(), f.bb_a.pub, f.restriction, seconds(60));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kExpired);
}

TEST(Delegation, EmptyChainRejected) {
  DelegationFixture f;
  EXPECT_FALSE(verify_capability_chain({}, f.cas.public_key(), f.bb_a.pub,
                                       "", 0)
                   .ok());
}

TEST(Delegation, ProofOfPossession) {
  DelegationFixture f;
  const Bytes nonce = to_bytes("verifier-nonce-123");
  const Bytes proof = prove_possession(f.bb_c.priv, nonce);
  EXPECT_TRUE(check_possession(f.bb_c.pub, nonce, proof));
  EXPECT_FALSE(check_possession(f.bb_b.pub, nonce, proof));
  EXPECT_FALSE(check_possession(f.bb_c.pub, to_bytes("other"), proof));
}

TEST(Delegation, DecodeChainRoundTrip) {
  DelegationFixture f;
  const auto chain = f.build_chain();
  std::vector<BytesView> encoded;
  for (const auto& cert : chain) encoded.push_back(cert.encode());
  const auto decoded = decode_chain(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ((*decoded)[i], chain[i]);
  }
  const Bytes garbage = to_bytes("garbage");
  encoded[1] = garbage;
  EXPECT_FALSE(decode_chain(encoded).ok());
}

// Chains of parameterized length all verify (and break under truncation of
// the holder check).
class DelegationChainLength : public ::testing::TestWithParam<int> {};

TEST_P(DelegationChainLength, VariableLengthChains) {
  Rng rng(31 + static_cast<std::uint64_t>(GetParam()));
  policy::CommunityAuthorizationServer cas("ESnet", rng, kValidity, 256);
  const crypto::KeyPair proxy = crypto::generate_keypair(rng, 256);
  const auto user = crypto::DistinguishedName::make("U", "D0");
  std::vector<crypto::Certificate> chain{
      cas.grid_login(user, proxy.pub, kValidity)};
  std::vector<crypto::KeyPair> keys{proxy};
  for (int i = 0; i < GetParam(); ++i) {
    keys.push_back(crypto::generate_keypair(rng, 256));
    chain.push_back(delegate_capability(
        chain.back(), keys[keys.size() - 2].priv,
        crypto::DistinguishedName::make("BB-" + std::to_string(i),
                                        "D" + std::to_string(i)),
        keys.back().pub, i == 0 ? "Valid for Reservation in DX" : "",
        kValidity, static_cast<std::uint64_t>(i) + 10));
  }
  EXPECT_TRUE(verify_capability_chain(chain, cas.public_key(),
                                      keys.back().pub,
                                      "Valid for Reservation in DX", 0)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Lengths, DelegationChainLength,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace e2e::sig
