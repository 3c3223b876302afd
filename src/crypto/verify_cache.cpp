#include "crypto/verify_cache.hpp"

#include "obs/instruments.hpp"

namespace e2e::crypto {

VerifyCache& VerifyCache::global() {
  thread_local VerifyCache cache;
  return cache;
}

VerifyCache::VerifyCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<bool> VerifyCache::lookup(const Digest& key) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& hits = registry.counter(
      obs::kCryptoVerifyCacheLookupsTotal, {{"result", "hit"}});
  static obs::Counter& misses = registry.counter(
      obs::kCryptoVerifyCacheLookupsTotal, {{"result", "miss"}});

  if (capacity_ == 0) {
    misses.increment();
    return std::nullopt;
  }
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses.increment();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits.increment();
  return it->second->second;
}

void VerifyCache::insert(const Digest& key, bool valid) {
  if (capacity_ == 0) return;
  if (auto it = map_.find(key); it != map_.end()) {
    it->second->second = valid;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, valid);
  map_.emplace(key, lru_.begin());
}

void VerifyCache::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  lru_.clear();
  map_.clear();
}

void VerifyCache::clear() {
  lru_.clear();
  map_.clear();
}

}  // namespace e2e::crypto
