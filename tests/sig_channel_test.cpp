#include "sig/channel.hpp"

#include <gtest/gtest.h>

#include "crypto/ca.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e::sig {
namespace {

const TimeInterval kValidity{0, hours(1000)};

struct ChannelFixture {
  Rng rng{4321};
  crypto::CertificateAuthority ca_a{
      crypto::DistinguishedName::make("CA-A", "DomainA"), rng, kValidity, 256};
  crypto::CertificateAuthority ca_b{
      crypto::DistinguishedName::make("CA-B", "DomainB"), rng, kValidity, 256};
  crypto::KeyPair keys_a = crypto::generate_keypair(rng, 256);
  crypto::KeyPair keys_b = crypto::generate_keypair(rng, 256);
  crypto::Certificate cert_a =
      ca_a.issue(crypto::DistinguishedName::make("BB-A", "DomainA"),
                 keys_a.pub, kValidity);
  crypto::Certificate cert_b =
      ca_b.issue(crypto::DistinguishedName::make("BB-B", "DomainB"),
                 keys_b.pub, kValidity);
  crypto::TrustStore store_a;  // trusts CA-B (from the SLA)
  crypto::TrustStore store_b;  // trusts CA-A

  ChannelFixture() {
    store_a.add_anchor(ca_b.root_certificate());
    store_b.add_anchor(ca_a.root_certificate());
  }

  ChannelEndpoint endpoint_a() { return {cert_a, keys_a.priv, &store_a, {}}; }
  ChannelEndpoint endpoint_b() { return {cert_b, keys_b.priv, &store_b, {}}; }
};

TEST(Channel, HandshakeSucceedsWithMutualTrust) {
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), seconds(1), f.rng);
  ASSERT_TRUE(pair.ok()) << pair.error().to_text();
  // Each side learned the peer's certificate — the property the signalling
  // protocol relies on.
  EXPECT_EQ(pair->initiator.peer_certificate(), f.cert_b);
  EXPECT_EQ(pair->responder.peer_certificate(), f.cert_a);
}

TEST(Channel, SealOpenRoundTrip) {
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).value();
  const Bytes payload = to_bytes("RAR forwarding");
  const Record rec = pair.initiator.seal(payload);
  const auto opened = pair.responder.open(rec);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
  // And the reverse direction.
  const Record back = pair.responder.seal(to_bytes("approved"));
  EXPECT_TRUE(pair.initiator.open(back).ok());
}

TEST(Channel, TamperedRecordRejected) {
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).value();
  Record rec = pair.initiator.seal(to_bytes("10 Mb/s"));
  rec.payload[0] ^= 0xff;
  const auto opened = pair.responder.open(rec);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, ErrorCode::kAuthenticationFailed);
}

TEST(Channel, ReplayRejected) {
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).value();
  const Record rec = pair.initiator.seal(to_bytes("once"));
  ASSERT_TRUE(pair.responder.open(rec).ok());
  const auto replay = pair.responder.open(rec);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.error().message.find("replay"), std::string::npos);
}

TEST(Channel, SequenceSkewAcrossDirectionsIsFine) {
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pair.responder.open(pair.initiator.seal(to_bytes("req"))).ok());
  }
  EXPECT_TRUE(pair.initiator.open(pair.responder.seal(to_bytes("rep"))).ok());
}

TEST(Channel, UntrustedPeerRejected) {
  ChannelFixture f;
  // A's store no longer trusts CA-B.
  crypto::TrustStore empty;
  ChannelEndpoint a{f.cert_a, f.keys_a.priv, &empty, {}};
  const auto pair = handshake(a, f.endpoint_b(), 0, f.rng);
  ASSERT_FALSE(pair.ok());
  EXPECT_EQ(pair.error().code, ErrorCode::kAuthenticationFailed);
}

TEST(Channel, ExpiredCertificateRejected) {
  ChannelFixture f;
  const crypto::Certificate short_cert =
      f.ca_b.issue(crypto::DistinguishedName::make("BB-B", "DomainB"),
                   f.keys_b.pub, {0, seconds(10)});
  ChannelEndpoint b{short_cert, f.keys_b.priv, &f.store_b, {}};
  const auto pair = handshake(f.endpoint_a(), b, seconds(60), f.rng);
  EXPECT_FALSE(pair.ok());
}

TEST(Channel, StolenCertificateFailsProofOfPossession) {
  ChannelFixture f;
  // Mallory presents BB-B's certificate but holds a different key.
  const crypto::KeyPair mallory = crypto::generate_keypair(f.rng, 256);
  ChannelEndpoint fake_b{f.cert_b, mallory.priv, &f.store_b, {}};
  const auto pair = handshake(f.endpoint_a(), fake_b, 0, f.rng);
  ASSERT_FALSE(pair.ok());
  EXPECT_NE(pair.error().message.find("proof of key possession"),
            std::string::npos);
}

TEST(Channel, PinnedPeerAcceptedWithoutAnchor) {
  ChannelFixture f;
  // A has no anchors at all but pins B's exact certificate (the tunnel
  // direct-channel case: the certificate was introduced via signalling).
  crypto::TrustStore empty;
  ChannelEndpoint a{f.cert_a, f.keys_a.priv, &empty, f.cert_b};
  ChannelEndpoint b{f.cert_b, f.keys_b.priv, &empty, f.cert_a};
  const auto pair = handshake(a, b, 0, f.rng);
  ASSERT_TRUE(pair.ok()) << pair.error().to_text();
}

TEST(Channel, PinnedPeerStillRequiresKeyPossession) {
  ChannelFixture f;
  crypto::TrustStore empty;
  const crypto::KeyPair mallory = crypto::generate_keypair(f.rng, 256);
  ChannelEndpoint a{f.cert_a, f.keys_a.priv, &empty, f.cert_b};
  ChannelEndpoint fake_b{f.cert_b, mallory.priv, &empty, f.cert_a};
  EXPECT_FALSE(handshake(a, fake_b, 0, f.rng).ok());
}

TEST(Channel, WrongPinRejected) {
  ChannelFixture f;
  crypto::TrustStore empty;
  ChannelEndpoint a{f.cert_a, f.keys_a.priv, &empty, f.cert_a};  // pins itself
  ChannelEndpoint b{f.cert_b, f.keys_b.priv, &f.store_b, {}};
  EXPECT_FALSE(handshake(a, b, 0, f.rng).ok());
}

std::uint64_t handshakes_counted(const char* result) {
  return obs::MetricsRegistry::global()
      .counter(obs::kSigChannelHandshakesTotal, {{"result", result}})
      .value();
}

std::size_t peer_auth_records() {
  std::size_t n = 0;
  for (const auto& record : obs::AuditLog::global().records()) {
    if (record.kind == obs::audit_kind::kPeerAuth) ++n;
  }
  return n;
}

TEST(Channel, HandshakeKeysArePinnedForAFixedSeed) {
  // The fixture's seed fixes both certificates and both nonces, so the
  // session keys — and with them the MAC of a fixed record — are fixed.
  // A change in nonce draw order, transcript or key derivation moves them.
  ChannelFixture f;
  auto pair = handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).value();
  const Bytes payload = to_bytes("pinned channel payload");
  EXPECT_EQ(hex_encode(pair.initiator.seal(payload).mac),
            "e10521153ed5b37d598c663433451f84022b749aa082c7550ed9978a61e11116");
  EXPECT_EQ(hex_encode(pair.responder.seal(payload).mac),
            "a26821a33f4f84833d282fa875a43eeb59690abfd3bdb0452034676feae7be56");
}

TEST(Channel, HandshakeCountsOneOutcomePerCall) {
  ChannelFixture f;
  const std::uint64_t ok_before = handshakes_counted("ok");
  const std::uint64_t fail_before = handshakes_counted("fail");
  ASSERT_TRUE(handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).ok());
  ASSERT_TRUE(handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).ok());
  EXPECT_EQ(handshakes_counted("ok"), ok_before + 2);
  EXPECT_EQ(handshakes_counted("fail"), fail_before);

  // Rejected by the initiator (responder untrusted) and by the responder
  // (initiator fails proof of possession): one "fail" each.
  crypto::TrustStore empty;
  ChannelEndpoint untrusting_a{f.cert_a, f.keys_a.priv, &empty, {}};
  EXPECT_FALSE(handshake(untrusting_a, f.endpoint_b(), 0, f.rng).ok());
  const crypto::KeyPair mallory = crypto::generate_keypair(f.rng, 256);
  ChannelEndpoint fake_a{f.cert_a, mallory.priv, &f.store_a, {}};
  EXPECT_FALSE(handshake(fake_a, f.endpoint_b(), 0, f.rng).ok());
  EXPECT_EQ(handshakes_counted("ok"), ok_before + 2);
  EXPECT_EQ(handshakes_counted("fail"), fail_before + 2);
}

TEST(Channel, HandshakeAuditsPeerAuthOnlyInsideASpan) {
  ChannelFixture f;
  const std::size_t before = peer_auth_records();
  ASSERT_TRUE(handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).ok());
  EXPECT_EQ(peer_auth_records(), before);

  {
    obs::CurrentSpan span(obs::SpanRef{"trace-channel", 7, 0});
    ASSERT_TRUE(handshake(f.endpoint_a(), f.endpoint_b(), 0, f.rng).ok());
  }
  ASSERT_EQ(peer_auth_records(), before + 1);
  const auto joined = obs::AuditLog::global().records_for("trace-channel");
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].kind, obs::audit_kind::kPeerAuth);
  EXPECT_EQ(joined[0].span_id, 7u);
  ASSERT_FALSE(joined[0].fields.empty());
  EXPECT_EQ(joined[0].fields[0],
            (std::pair<std::string, std::string>{"result", "ok"}));
}

}  // namespace
}  // namespace e2e::sig
