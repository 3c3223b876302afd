// Bounded memoization of signature-verification results.
//
// crypto::verify() is the innermost cost of every hop: hop-by-hop trust
// introduction, tunnel per-flow admission and delegation chains all
// re-verify the same (key, message, signature) triples at each domain. The
// cache key is SHA-256 over the key's canonical encoding, the message
// digest and the signature bytes, so mutating ANY of the three misses —
// a cached "valid" can never be replayed for a different key, message or
// signature (tests/crypto_cache_test.cpp pins this down).
//
// The cache is an LRU bounded at kDefaultCapacity entries, one per thread:
// global() is thread_local, so each thread that verifies (the thread that
// owns a world, or a client thread beside it) warms its own cache and no
// two threads share one. Hit/miss counts of every thread surface as
// e2e_crypto_verify_cache_lookups_total (see docs/OBSERVABILITY.md).
// set_capacity(0) disables the calling thread's cache — the micro benches
// use this to measure the uncached path.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>

#include "crypto/sha256.hpp"

namespace e2e::crypto {

class VerifyCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// The calling thread's instance, used by crypto::verify().
  static VerifyCache& global();

  explicit VerifyCache(std::size_t capacity = kDefaultCapacity);

  /// Cached verdict for this (key, message, signature) digest, bumping the
  /// hit/miss counters. std::nullopt on miss or when disabled.
  std::optional<bool> lookup(const Digest& key);
  /// Record a verdict (no-op when disabled). Evicts the least recently
  /// used entry when full.
  void insert(const Digest& key, bool valid);

  /// Resize; 0 disables the cache entirely. Always clears current entries.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return map_.size(); }
  void clear();

 private:
  struct DigestHash {
    std::size_t operator()(const Digest& d) const {
      // The key is itself a SHA-256 output: any 8 bytes are uniform.
      std::size_t h = 0;
      for (int i = 0; i < 8; ++i) h = (h << 8) | d[i];
      return h;
    }
  };
  using LruList = std::list<std::pair<Digest, bool>>;

  std::size_t capacity_;
  LruList lru_;  // front = most recent
  std::unordered_map<Digest, LruList::iterator, DigestHash> map_;
};

}  // namespace e2e::crypto
