#include "crypto/x509.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/ca.hpp"
#include "dn_respelling.hpp"

namespace e2e::crypto {
namespace {

struct Fixture {
  Rng rng{1234};
  TimeInterval long_validity{0, hours(24 * 365)};
  CertificateAuthority ca{DistinguishedName::make("ESnet CA", "ESnet"), rng,
                          long_validity, 512};
  KeyPair user_keys = generate_keypair(rng, 512);
  DistinguishedName user_dn = DistinguishedName::make("Alice", "DomainA");
};

Fixture& fx() {
  static Fixture f;
  return f;
}

TEST(X509, IssueAndVerify) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(24)});
  EXPECT_TRUE(cert.verify_signature(fx().ca.public_key()));
  EXPECT_EQ(cert.subject(), fx().user_dn);
  EXPECT_EQ(cert.issuer(), fx().ca.name());
  EXPECT_EQ(cert.subject_public_key(), fx().user_keys.pub);
}

TEST(X509, RootIsSelfSigned) {
  const Certificate& root = fx().ca.root_certificate();
  EXPECT_TRUE(root.is_self_signed());
  EXPECT_TRUE(root.verify_signature(root.subject_public_key()));
  EXPECT_EQ(root.extension_value(kExtCa).value_or(""), "true");
}

TEST(X509, SerialNumbersIncrease) {
  const Certificate c1 = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                       {0, hours(1)});
  const Certificate c2 = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                       {0, hours(1)});
  EXPECT_LT(c1.serial(), c2.serial());
}

TEST(X509, ValidityWindow) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {hours(1), hours(2)});
  EXPECT_FALSE(cert.valid_at(0));
  EXPECT_TRUE(cert.valid_at(hours(1)));
  EXPECT_TRUE(cert.valid_at(hours(2) - 1));
  EXPECT_FALSE(cert.valid_at(hours(2)));
}

TEST(X509, EncodeDecodeRoundTrip) {
  const Certificate cert = fx().ca.issue(
      fx().user_dn, fx().user_keys.pub, {0, hours(24)},
      {Extension{kExtCapabilityFlag, false, ""},
       Extension{kExtCapabilities, false, "Capabilities of ESnet"},
       Extension{kExtValidForRar, true, "rar-42"}});
  const Bytes enc = cert.encode();
  const auto dec = Certificate::decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, cert);
  EXPECT_TRUE(dec->verify_signature(fx().ca.public_key()));
  EXPECT_TRUE(dec->is_capability_certificate());
  EXPECT_EQ(dec->extension_value(kExtValidForRar).value_or(""), "rar-42");
}

TEST(X509, DecodeRejectsTamperedTbs) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(24)});
  Bytes enc = cert.encode();
  // Flip a byte inside the TBS (after the outer header).
  enc[20] ^= 0xff;
  const auto dec = Certificate::decode(enc);
  if (dec.ok()) {
    EXPECT_FALSE(dec->verify_signature(fx().ca.public_key()));
  }
}

TEST(X509, KeptBytesEqualTheReferenceEncoding) {
  // Builder::sign_with() and decode() both keep the bytes; for every
  // certificate either produces, they are the canonical re-encoding.
  const Certificate issued = fx().ca.issue(
      fx().user_dn, fx().user_keys.pub, {0, hours(24)},
      {Extension{kExtCapabilityFlag, false, ""},
       Extension{kExtValidForRar, true, "Valid for Reservation in C"}});
  const auto decoded = Certificate::decode(issued.encode());
  ASSERT_TRUE(decoded.ok());
  for (const Certificate* cert :
       {&issued, &*decoded, &fx().ca.root_certificate()}) {
    const BytesView tbs = cert->tbs_encode();
    EXPECT_EQ(Bytes(tbs.begin(), tbs.end()), cert->tbs_encode_reference());
    EXPECT_TRUE(std::equal(tbs.begin(), tbs.end(), cert->encode().begin()));
  }
  EXPECT_EQ(decoded->encode(), issued.encode());
}

TEST(X509, RespelledDnDecodesButNoLongerVerifies) {
  // The issuer signed "CN=ESnet CA,O=ESnet,..."; the re-spelled text parses
  // to the same DN, but the signature covers the bytes as received.
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(24)});
  const auto respelled = Certificate::decode(testing::respell_issuer(
      cert.encode(), testing::respelled(cert.issuer())));
  ASSERT_TRUE(respelled.ok());
  EXPECT_EQ(respelled->issuer(), cert.issuer());
  EXPECT_EQ(respelled->tbs_encode_reference(), cert.tbs_encode_reference());
  EXPECT_FALSE(respelled->verify_signature(fx().ca.public_key()));
  EXPECT_FALSE(*respelled == cert);
}

TEST(X509, CapabilitiesParsing) {
  const Certificate cert = fx().ca.issue(
      fx().user_dn, fx().user_keys.pub, {0, hours(1)},
      {Extension{kExtCapabilities, false,
                 "Capabilities of ESnet, Member of ATLAS,  reserve-bw "}});
  const auto caps = cert.capabilities();
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_EQ(caps[0], "Capabilities of ESnet");
  EXPECT_EQ(caps[1], "Member of ATLAS");
  EXPECT_EQ(caps[2], "reserve-bw");
}

TEST(X509, NoCapabilitiesExtensionMeansEmpty) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(1)});
  EXPECT_TRUE(cert.capabilities().empty());
  EXPECT_FALSE(cert.is_capability_certificate());
}

TEST(X509, WrongIssuerKeyFailsVerification) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(1)});
  EXPECT_FALSE(cert.verify_signature(fx().user_keys.pub));
}

TEST(X509, FingerprintDiffersPerCert) {
  const Certificate c1 = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                       {0, hours(1)});
  const Certificate c2 = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                       {0, hours(2)});
  EXPECT_NE(hex_encode(digest_bytes(c1.fingerprint())),
            hex_encode(digest_bytes(c2.fingerprint())));
}

TEST(X509, RevocationTracking) {
  const Certificate cert = fx().ca.issue(fx().user_dn, fx().user_keys.pub,
                                         {0, hours(1)});
  EXPECT_FALSE(fx().ca.is_revoked(cert.serial()));
  fx().ca.revoke(cert.serial());
  EXPECT_TRUE(fx().ca.is_revoked(cert.serial()));
}

}  // namespace
}  // namespace e2e::crypto
