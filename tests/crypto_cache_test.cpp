// Cache-correctness tests for the verification fast path: a cached "valid"
// must never survive a key, message or signature mutation; chain-cache hits
// must still honor time validity, revocation and anchor changes; and the
// hit/miss counters of every cache must move when the caches do.
#include <gtest/gtest.h>

#include "crypto/ca.hpp"
#include "crypto/certstore.hpp"
#include "crypto/rsa.hpp"
#include "crypto/verify_cache.hpp"
#include "obs/instruments.hpp"

namespace e2e::crypto {
namespace {

Bytes to_vector(BytesView v) { return Bytes(v.begin(), v.end()); }

obs::Counter& counter(const char* name, const char* result) {
  return obs::MetricsRegistry::global().counter(name, {{"result", result}});
}

const KeyPair& cache_test_keys() {
  static const KeyPair kp = [] {
    Rng rng(24680);
    return generate_keypair(rng, 512);
  }();
  return kp;
}

class VerifyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { VerifyCache::global().clear(); }
  void TearDown() override {
    VerifyCache::global().set_capacity(VerifyCache::kDefaultCapacity);
  }
};

TEST_F(VerifyCacheTest, RepeatVerifyHitsCache) {
  obs::Counter& hits = counter(obs::kCryptoVerifyCacheLookupsTotal, "hit");
  obs::Counter& misses = counter(obs::kCryptoVerifyCacheLookupsTotal, "miss");
  const Bytes msg = to_bytes("same key, same message, same signature");
  const Bytes sig = sign(cache_test_keys().priv, msg);

  const std::uint64_t h0 = hits.value(), m0 = misses.value();
  EXPECT_TRUE(verify(cache_test_keys().pub, msg, sig));
  EXPECT_EQ(hits.value(), h0);
  EXPECT_EQ(misses.value(), m0 + 1);

  EXPECT_TRUE(verify(cache_test_keys().pub, msg, sig));
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);
}

TEST_F(VerifyCacheTest, CachedValidDoesNotSurviveMessageMutation) {
  const Bytes msg = to_bytes("reserve 10 Mb/s from A to C");
  const Bytes sig = sign(cache_test_keys().priv, msg);
  ASSERT_TRUE(verify(cache_test_keys().pub, msg, sig));  // warm the cache
  Bytes mutated = msg;
  mutated[8] ^= 0x01;
  EXPECT_FALSE(verify(cache_test_keys().pub, mutated, sig));
}

TEST_F(VerifyCacheTest, CachedValidDoesNotSurviveKeyMutation) {
  const Bytes msg = to_bytes("reserve 10 Mb/s from A to C");
  const Bytes sig = sign(cache_test_keys().priv, msg);
  ASSERT_TRUE(verify(cache_test_keys().pub, msg, sig));  // warm the cache
  PublicKey other = cache_test_keys().pub;
  other.n = other.n + BigUInt(2);  // still odd, different key
  EXPECT_FALSE(verify(other, msg, sig));
}

TEST_F(VerifyCacheTest, CachedValidDoesNotSurviveSignatureMutation) {
  const Bytes msg = to_bytes("reserve 10 Mb/s from A to C");
  Bytes sig = sign(cache_test_keys().priv, msg);
  ASSERT_TRUE(verify(cache_test_keys().pub, msg, sig));  // warm the cache
  sig[1] ^= 0x80;
  EXPECT_FALSE(verify(cache_test_keys().pub, msg, sig));
}

TEST_F(VerifyCacheTest, NegativeVerdictsAreCachedToo) {
  obs::Counter& hits = counter(obs::kCryptoVerifyCacheLookupsTotal, "hit");
  const Bytes msg = to_bytes("m");
  Bytes sig = sign(cache_test_keys().priv, msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(verify(cache_test_keys().pub, msg, sig));
  const std::uint64_t h0 = hits.value();
  EXPECT_FALSE(verify(cache_test_keys().pub, msg, sig));
  EXPECT_EQ(hits.value(), h0 + 1);
}

TEST_F(VerifyCacheTest, CapacityBoundsEntriesAndEvictsLru) {
  VerifyCache cache(2);
  const Digest a{{1}}, b{{2}}, c{{3}};
  cache.insert(a, true);
  cache.insert(b, true);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.lookup(a).has_value());  // a is now most recent
  cache.insert(c, true);                     // evicts b, not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST_F(VerifyCacheTest, ZeroCapacityDisables) {
  VerifyCache::global().set_capacity(0);
  const Bytes msg = to_bytes("uncached");
  const Bytes sig = sign(cache_test_keys().priv, msg);
  EXPECT_TRUE(verify(cache_test_keys().pub, msg, sig));
  EXPECT_TRUE(verify(cache_test_keys().pub, msg, sig));
  EXPECT_EQ(VerifyCache::global().size(), 0u);
}

// --- TrustStore chain cache -------------------------------------------------

class CryptoCacheChainTest : public ::testing::Test {
 protected:
  CryptoCacheChainTest()
      : root_ca_(DistinguishedName::make("Root CA", "TrustCo"), rng_,
                 {0, hours(1000)}, 512),
        user_keys_(generate_keypair(rng_, 512)) {
    store_.add_anchor(root_ca_.root_certificate());
    leaf_ = root_ca_.issue(DistinguishedName::make("Alice", "A"),
                           user_keys_.pub, {0, hours(10)});
  }

  Rng rng_{13579};
  CertificateAuthority root_ca_;
  KeyPair user_keys_;
  TrustStore store_;
  Certificate leaf_;
};

TEST_F(CryptoCacheChainTest, RepeatChainVerifyHitsCache) {
  obs::Counter& hits = counter(obs::kCryptoChainCacheLookupsTotal, "hit");
  obs::Counter& misses = counter(obs::kCryptoChainCacheLookupsTotal, "miss");

  const std::uint64_t h0 = hits.value(), m0 = misses.value();
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(store_.chain_cache_size(), 1u);

  const auto cached = store_.verify_chain(leaf_, {}, minutes(30));
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(hits.value(), h0 + 1);
  // The cached path is identical to the first walk's.
  ASSERT_EQ(cached->size(), 2u);
  EXPECT_EQ((*cached)[0], leaf_);
}

TEST_F(CryptoCacheChainTest, CacheHitStillChecksTimeValidity) {
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  // Same chain, but asked about a time past the leaf's validity: the
  // cached success must not shadow the expiry.
  const auto expired = store_.verify_chain(leaf_, {}, hours(20));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.error().code, ErrorCode::kExpired);
}

TEST_F(CryptoCacheChainTest, RevocationOracleChangeInvalidates) {
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  EXPECT_EQ(store_.chain_cache_size(), 1u);
  root_ca_.revoke(leaf_.serial());
  store_.set_revocation_check(
      [this](const DistinguishedName& issuer, std::uint64_t serial) {
        return issuer == root_ca_.name() && root_ca_.is_revoked(serial);
      });
  EXPECT_EQ(store_.chain_cache_size(), 0u);  // oracle change clears the memo
  const auto revoked = store_.verify_chain(leaf_, {}, minutes(30));
  ASSERT_FALSE(revoked.ok());
  EXPECT_EQ(revoked.error().code, ErrorCode::kUntrustedKey);
}

TEST_F(CryptoCacheChainTest, RevocationAfterCachingStillRejects) {
  // Oracle installed BEFORE the first verify, revocation flipped after the
  // success is cached: the per-hit re-check must catch it.
  store_.set_revocation_check(
      [this](const DistinguishedName& issuer, std::uint64_t serial) {
        return issuer == root_ca_.name() && root_ca_.is_revoked(serial);
      });
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  EXPECT_EQ(store_.chain_cache_size(), 1u);
  root_ca_.revoke(leaf_.serial());
  const auto revoked = store_.verify_chain(leaf_, {}, minutes(30));
  ASSERT_FALSE(revoked.ok());
  EXPECT_EQ(revoked.error().code, ErrorCode::kUntrustedKey);
}

TEST_F(CryptoCacheChainTest, AddAnchorInvalidates) {
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  EXPECT_EQ(store_.chain_cache_size(), 1u);
  Rng rng(97531);
  CertificateAuthority other(DistinguishedName::make("Other CA", "O"), rng,
                             {0, hours(100)}, 512);
  ASSERT_TRUE(store_.add_anchor(other.root_certificate()));
  EXPECT_EQ(store_.chain_cache_size(), 0u);
}

TEST_F(CryptoCacheChainTest, MutatedLeafMissesCache) {
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  // A different leaf (fresh serial, same subject) keys differently; a
  // forged one still fails.
  Certificate::Builder b;
  b.serial = leaf_.serial() + 1;
  b.issuer = root_ca_.name();
  b.subject = leaf_.subject();
  b.validity = {0, hours(10)};
  b.subject_key = user_keys_.pub;
  const Certificate forged = b.sign_with(user_keys_.priv);  // wrong key
  const auto result = store_.verify_chain(forged, {}, minutes(30));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kBadSignature);
}

TEST_F(CryptoCacheChainTest, CopiedStoreVerifiesIndependently) {
  ASSERT_TRUE(store_.verify_chain(leaf_, {}, minutes(30)).ok());
  TrustStore copy = store_;  // brokers hold stores by value
  EXPECT_EQ(copy.anchor_count(), store_.anchor_count());
  EXPECT_TRUE(copy.verify_chain(leaf_, {}, minutes(30)).ok());
}

// --- Certificate TBS cache --------------------------------------------------

TEST(CryptoCacheTbs, DecodedCertificateReusesTbsBytes) {
  obs::Counter& hits = counter(obs::kCryptoTbsCacheLookupsTotal, "hit");
  Rng rng(1122);
  CertificateAuthority ca(DistinguishedName::make("CA", "T"), rng,
                          {0, hours(10)}, 512);
  const KeyPair kp = generate_keypair(rng, 512);
  const Certificate cert =
      ca.issue(DistinguishedName::make("Bob", "B"), kp.pub, {0, hours(1)});

  const std::uint64_t h0 = hits.value();
  const Bytes first = to_vector(cert.tbs_encode());
  const Bytes second = to_vector(cert.tbs_encode());
  EXPECT_EQ(first, second);
  EXPECT_GE(hits.value(), h0 + 2);  // sign_with pre-filled the cache

  // Round-trip through the wire keeps the cache and the bytes identical.
  const auto decoded = Certificate::decode(cert.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(to_vector(decoded->tbs_encode()), first);
  EXPECT_EQ(decoded->encode(), cert.encode());
}

TEST(CryptoCacheTbs, DefaultConstructedCertificateStillEncodes) {
  obs::Counter& misses = counter(obs::kCryptoTbsCacheLookupsTotal, "miss");
  const std::uint64_t m0 = misses.value();
  const Certificate blank;
  const Bytes tbs = to_vector(blank.tbs_encode());
  EXPECT_FALSE(tbs.empty());  // an empty TBS TLV still has framing bytes
  EXPECT_EQ(misses.value(), m0 + 1);
}

}  // namespace
}  // namespace e2e::crypto
