#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/tlv.hpp"
#include "obs/instruments.hpp"

namespace e2e::crypto {
namespace {

// Key generation is the slow part; share one pair across tests.
const KeyPair& test_keys() {
  static const KeyPair kp = [] {
    Rng rng(4242);
    return generate_keypair(rng, 512);
  }();
  return kp;
}

TEST(Rsa, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("reserve 10 Mb/s from A to C");
  const Bytes sig = sign(test_keys().priv, msg);
  EXPECT_TRUE(verify(test_keys().pub, msg, sig));
}

TEST(Rsa, TamperedMessageFails) {
  const Bytes msg = to_bytes("reserve 10 Mb/s from A to C");
  const Bytes sig = sign(test_keys().priv, msg);
  Bytes tampered = msg;
  tampered[8] = '9';  // 90 Mb/s
  EXPECT_FALSE(verify(test_keys().pub, tampered, sig));
}

TEST(Rsa, TamperedSignatureFails) {
  const Bytes msg = to_bytes("request");
  Bytes sig = sign(test_keys().priv, msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(verify(test_keys().pub, msg, sig));
}

TEST(Rsa, WrongKeyFails) {
  Rng rng(777);
  const KeyPair other = generate_keypair(rng, 512);
  const Bytes msg = to_bytes("request");
  const Bytes sig = sign(test_keys().priv, msg);
  EXPECT_FALSE(verify(other.pub, msg, sig));
}

TEST(Rsa, SignatureIsCanonicalWidth) {
  const Bytes sig = sign(test_keys().priv, to_bytes("x"));
  EXPECT_EQ(sig.size(), (test_keys().pub.n.bit_length() + 7) / 8);
}

TEST(Rsa, EmptyMessageSignable) {
  const Bytes sig = sign(test_keys().priv, Bytes{});
  EXPECT_TRUE(verify(test_keys().pub, Bytes{}, sig));
}

TEST(Rsa, SignatureOutOfRangeRejected) {
  // A "signature" >= n must be rejected before the math.
  const Bytes big = test_keys().pub.n.to_bytes();
  EXPECT_FALSE(verify(test_keys().pub, to_bytes("m"), big));
}

TEST(Rsa, KeypairDeterministicFromSeed) {
  Rng a(31337), b(31337);
  const KeyPair ka = generate_keypair(a, 256);
  const KeyPair kb = generate_keypair(b, 256);
  EXPECT_EQ(ka.pub, kb.pub);
}

TEST(Rsa, PublicKeyEncodeDecode) {
  const Bytes enc = test_keys().pub.encode();
  const auto dec = PublicKey::decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, test_keys().pub);
}

TEST(Rsa, PublicKeyDecodeRejectsTrailing) {
  Bytes enc = test_keys().pub.encode();
  enc.push_back(0);
  // Trailing byte makes the TLV malformed (truncated header) or non-canonical.
  EXPECT_FALSE(PublicKey::decode(enc).ok());
}

TEST(Rsa, PrivateKeyEncodeDecode) {
  const Bytes enc = test_keys().priv.encode();
  const auto dec = PrivateKey::decode(enc);
  ASSERT_TRUE(dec.ok());
  // Decoded key must still sign verifiably.
  const Bytes sig = sign(*dec, to_bytes("roundtrip"));
  EXPECT_TRUE(verify(test_keys().pub, to_bytes("roundtrip"), sig));
}

TEST(Rsa, FingerprintStable) {
  EXPECT_EQ(test_keys().pub.fingerprint(), test_keys().pub.fingerprint());
  Rng rng(91);
  const KeyPair other = generate_keypair(rng, 256);
  EXPECT_NE(hex_encode(digest_bytes(test_keys().pub.fingerprint())),
            hex_encode(digest_bytes(other.pub.fingerprint())));
}

TEST(Rsa, GenerateKeypairPopulatesCrt) {
  const PrivateKey& priv = test_keys().priv;
  ASSERT_TRUE(priv.crt.has_value());
  const CrtParams& crt = priv.crt.value();
  EXPECT_EQ(crt.p * crt.q, priv.n);
  const BigUInt one(1);
  EXPECT_EQ(crt.dp, priv.d % (crt.p - one));
  EXPECT_EQ(crt.dq, priv.d % (crt.q - one));
  EXPECT_EQ((crt.q * crt.qinv) % crt.p, one);
}

TEST(Rsa, CrtSignatureMatchesPlainPath) {
  // The CRT recombination must be byte-identical to s = H^d mod n — the
  // wire format cannot change just because the signer holds CRT params.
  const PrivateKey plain{test_keys().priv.n, test_keys().priv.d, std::nullopt};
  for (const char* payload :
       {"", "RAR: 10Mb/s A->C", "a much longer reservation payload with "
        "nested signatures and capability chains attached"}) {
    const Bytes msg = to_bytes(payload);
    EXPECT_EQ(sign(test_keys().priv, msg), sign(plain, msg)) << payload;
  }
}

TEST(Rsa, CrtSignatureMatchesPlainAcrossKeySizes) {
  for (unsigned bits : {256u, 384u, 512u}) {
    Rng rng(9000 + bits);
    const KeyPair kp = generate_keypair(rng, bits);
    const PrivateKey plain{kp.priv.n, kp.priv.d, std::nullopt};
    const Bytes msg = to_bytes("cross-size differential");
    const Bytes crt_sig = sign(kp.priv, msg);
    EXPECT_EQ(crt_sig, sign(plain, msg)) << bits;
    EXPECT_TRUE(verify(kp.pub, msg, crt_sig));
  }
}

/// s = H^d mod n on the reference kernel, at the key's width: the bytes
/// sign() must produce whichever kernel it runs.
Bytes reference_signature(const PrivateKey& key, BytesView message) {
  const Digest digest = sha256(message);
  const BigUInt h =
      BigUInt::from_bytes(BytesView(digest.data(), digest.size())) % key.n;
  return h.modexp_reference(key.d, key.n)
      .to_bytes((key.n.bit_length() + 7) / 8);
}

TEST(Rsa, CrtSignatureMatchesReferenceKernel) {
  // CRT halves of 1, 2, 3, 4 and 8 limbs: in lockstep on the fixed-width
  // kernel at 256 and 512 bits, on the generic one elsewhere. Pin the
  // bytes against the reference kernel, not just the plain path.
  for (unsigned bits : {128u, 256u, 384u, 512u, 1024u}) {
    Rng rng(7000 + bits);
    const KeyPair kp = generate_keypair(rng, bits);
    for (int i = 0; i < 200; ++i) {
      Bytes msg(rng.next_u64() % 200);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
      ASSERT_EQ(sign(kp.priv, msg), reference_signature(kp.priv, msg))
          << "bits=" << bits << " message " << i;
    }
  }
}

TEST(Rsa, DigestAboveModulusRoundTrips) {
  // A 256-bit key has n < 2^256, so some digests are >= n and sign()
  // must reduce them first.
  Rng rng(9256);
  const KeyPair kp = generate_keypair(rng, 256);
  Bytes msg;
  for (int i = 0; i < 256; ++i) {
    const Bytes candidate = to_bytes("digest above modulus " +
                                     std::to_string(i));
    const Digest digest = sha256(candidate);
    if (BigUInt::from_bytes(BytesView(digest.data(), digest.size())) >=
        kp.pub.n) {
      msg = candidate;
      break;
    }
  }
  ASSERT_FALSE(msg.empty()) << "no message with digest >= n";
  const PrivateKey plain{kp.priv.n, kp.priv.d, std::nullopt};
  const Bytes sig = sign(kp.priv, msg);
  EXPECT_EQ(sig, sign(plain, msg));
  EXPECT_EQ(sig, reference_signature(kp.priv, msg));
  EXPECT_TRUE(verify(kp.pub, msg, sig));
  Bytes tampered_msg = msg;
  tampered_msg.back() ^= 0x01;
  EXPECT_FALSE(verify(kp.pub, tampered_msg, sig));
  Bytes tampered_sig = sig;
  tampered_sig.back() ^= 0x01;
  EXPECT_FALSE(verify(kp.pub, msg, tampered_sig));
}

TEST(Rsa, CrtSignCountsTwoModexpsAndTwoContextLookups) {
  // The lockstep halves count as the two modexps they replace. (Fetch the
  // key first: generating it runs counted Miller-Rabin modexps.)
  const PrivateKey& priv = test_keys().priv;
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& montgomery =
      registry.counter(obs::kCryptoModexpTotal, {{"kernel", "montgomery"}});
  obs::Counter& hits =
      registry.counter(obs::kCryptoMontCtxLookupsTotal, {{"result", "hit"}});
  obs::Counter& misses =
      registry.counter(obs::kCryptoMontCtxLookupsTotal, {{"result", "miss"}});
  const std::uint64_t modexps_before = montgomery.value();
  const std::uint64_t lookups_before = hits.value() + misses.value();
  (void)sign(priv, to_bytes("counted once per half"));
  EXPECT_EQ(montgomery.value() - modexps_before, 2u);
  EXPECT_EQ(hits.value() + misses.value() - lookups_before, 2u);
}

TEST(Rsa, LegacyTwoFieldPrivateKeyStillDecodes) {
  // Pre-CRT encodings carry only modulus + exponent; they must keep
  // decoding (with no CRT params) and keep signing verifiably.
  const PrivateKey legacy{test_keys().priv.n, test_keys().priv.d,
                          std::nullopt};
  const Bytes enc = legacy.encode();
  const auto dec = PrivateKey::decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_FALSE(dec->crt.has_value());
  const Bytes sig = sign(*dec, to_bytes("legacy"));
  EXPECT_TRUE(verify(test_keys().pub, to_bytes("legacy"), sig));
}

TEST(Rsa, ExtendedPrivateKeyEncodeDecodeRoundTrips) {
  const Bytes enc = test_keys().priv.encode();
  const auto dec = PrivateKey::decode(enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_TRUE(dec->crt.has_value());
  EXPECT_EQ(*dec->crt, *test_keys().priv.crt);
  EXPECT_EQ(dec->encode(), enc);
}

TEST(Rsa, ExtendedPrivateKeyDecodeRejectsTruncatedCrt) {
  // n, d, then only p (tag 0x0103): an incomplete CRT trailer must be an
  // error, not a silently-plain key.
  const PrivateKey& priv = test_keys().priv;
  tlv::Writer w;
  w.put_bytes(0x0101, priv.n.to_bytes());
  w.put_bytes(0x0102, priv.d.to_bytes());
  w.put_bytes(0x0103, priv.crt->p.to_bytes());
  EXPECT_FALSE(PrivateKey::decode(w.take()).ok());
}

// --- Montgomery precondition guard ----------------------------------------

TEST(Rsa, VerifyRejectsEvenModulus) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& rejects =
      registry.counter(obs::kCryptoBadKeyRejectsTotal, {});
  const std::uint64_t before = rejects.value();
  PublicKey bad = test_keys().pub;
  bad.n = bad.n + BigUInt(1);  // odd RSA modulus + 1 = even
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(verify(bad, msg, sign(test_keys().priv, msg)));
  EXPECT_GT(rejects.value(), before);
}

TEST(Rsa, VerifyRejectsTrivialModulus) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& rejects =
      registry.counter(obs::kCryptoBadKeyRejectsTotal, {});
  for (std::uint64_t n : {0ull, 1ull}) {
    const std::uint64_t before = rejects.value();
    PublicKey bad{BigUInt(n), BigUInt(65537)};
    EXPECT_FALSE(verify(bad, to_bytes("m"), Bytes{}));
    EXPECT_GT(rejects.value(), before) << n;
  }
}

// The paper's protocol signs many different payload shapes; sweep payload
// sizes to make sure hashing + modexp stay consistent.
class RsaPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaPayloadSweep, RoundTrips) {
  Rng rng(GetParam());
  Bytes msg(GetParam());
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes sig = sign(test_keys().priv, msg);
  EXPECT_TRUE(verify(test_keys().pub, msg, sig));
  if (!msg.empty()) {
    msg.back() ^= 0xff;
    EXPECT_FALSE(verify(test_keys().pub, msg, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaPayloadSweep,
                         ::testing::Values(0, 1, 16, 63, 64, 65, 255, 1024,
                                           65536));

}  // namespace
}  // namespace e2e::crypto
