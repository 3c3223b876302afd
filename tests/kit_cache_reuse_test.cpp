// End-to-end check of the verification caches on the paper's fig5 shape: a
// 6-domain hop-by-hop chain signs and re-verifies the same certificates and
// RAR layers at every hop, so repeated reservations must produce cache hits
// — while grants stay identical to the uncached outcome.
#include <gtest/gtest.h>

#include "crypto/verify_cache.hpp"
#include "kit/chain_world.hpp"
#include "obs/instruments.hpp"

namespace e2e::kit {
namespace {

obs::Counter& hit_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name, {{"result", "hit"}});
}

ChainWorldConfig six_domain_config() {
  ChainWorldConfig config;
  config.domains = 6;
  return config;
}

TEST(KitCacheReuse, RepeatedSixHopReservationsHitVerifyCache) {
  crypto::VerifyCache::global().clear();
  ChainWorld world(six_domain_config());
  WorldUser alice = world.make_user("Alice", 0);

  obs::Counter& verify_hits =
      hit_counter(obs::kCryptoVerifyCacheLookupsTotal);
  obs::Counter& tbs_hits = hit_counter(obs::kCryptoTbsCacheLookupsTotal);

  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), 0);
  ASSERT_TRUE(msg.ok());
  const auto first = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->reply.granted);
  EXPECT_EQ(first->domains_contacted, 6u);

  const std::uint64_t verify_hits_before = verify_hits.value();
  const std::uint64_t tbs_hits_before = tbs_hits.value();

  // Same user, same chain, a second reservation: every hop re-verifies the
  // same capability certificates and user layers — those must be memo hits.
  const auto msg2 = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 1e6), minutes(1));
  ASSERT_TRUE(msg2.ok());
  const auto second = world.engine().reserve(*msg2, minutes(1));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->reply.granted);

  EXPECT_GT(verify_hits.value(), verify_hits_before);
  EXPECT_GT(tbs_hits.value(), tbs_hits_before);

  // The memoized run must grant exactly what the first run granted
  // (same per-domain handles shape, same path).
  ASSERT_EQ(second->reply.handles.size(), first->reply.handles.size());
  for (std::size_t i = 0; i < first->reply.handles.size(); ++i) {
    EXPECT_EQ(second->reply.handles[i].first, first->reply.handles[i].first);
  }
  EXPECT_EQ(second->latency, first->latency);
}

TEST(KitCacheReuse, CachedRunMatchesUncachedRunByteForByte) {
  // Same seed, same requests: one world with the verify cache disabled, one
  // with it enabled. The replies must be byte-identical — caching is an
  // optimization, never a semantic change.
  auto run = [](bool cached) {
    crypto::VerifyCache::global().set_capacity(
        cached ? crypto::VerifyCache::kDefaultCapacity : 0);
    ChainWorld world(six_domain_config());
    WorldUser alice = world.make_user("Alice", 0);
    Bytes out;
    for (int i = 0; i < 3; ++i) {
      const auto msg = world.engine().build_user_request(
          alice.credentials(), world.spec(alice, 1e6), minutes(i));
      const auto outcome = world.engine().reserve(*msg, minutes(i));
      append(out, outcome->reply.encode());
    }
    return out;
  };
  const Bytes uncached = run(false);
  const Bytes cached = run(true);
  crypto::VerifyCache::global().set_capacity(
      crypto::VerifyCache::kDefaultCapacity);
  EXPECT_EQ(cached, uncached);
}

}  // namespace
}  // namespace e2e::kit
