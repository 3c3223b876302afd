#include "crypto/certstore.hpp"

#include "obs/instruments.hpp"

namespace e2e::crypto {

namespace {
/// Cache key: the exact bytes presented. Any mutation of the leaf or the
/// intermediate set (content OR order) produces a different key.
Digest chain_cache_key(const Certificate& leaf,
                       const std::vector<Certificate>& intermediates) {
  Sha256 hasher;
  hasher.update(leaf.encode());
  for (const Certificate& cert : intermediates) hasher.update(cert.encode());
  return hasher.finish();
}
}  // namespace

bool TrustStore::add_anchor(const Certificate& cert) {
  if (!cert.is_self_signed()) return false;
  if (!cert.verify_signature(cert.subject_public_key())) return false;
  anchors_.insert_or_assign(cert.subject().to_string(), cert);
  // A new or replaced root can change which chains verify, in either
  // direction (a replaced anchor key can invalidate old successes).
  invalidate_chain_cache();
  return true;
}

void TrustStore::set_revocation_check(RevocationCheck check) {
  revocation_ = std::move(check);
  invalidate_chain_cache();
}

const Certificate* TrustStore::find_anchor(const DistinguishedName& dn) const {
  const auto it = anchors_.find(dn.to_string());
  return it == anchors_.end() ? nullptr : &it->second;
}

Result<std::vector<Certificate>> TrustStore::verify_chain(
    const Certificate& leaf, const std::vector<Certificate>& intermediates,
    SimTime at) const {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& cache_hits = registry.counter(
      obs::kCryptoChainCacheLookupsTotal, {{"result", "hit"}});
  static obs::Counter& cache_misses = registry.counter(
      obs::kCryptoChainCacheLookupsTotal, {{"result", "miss"}});

  const Digest cache_key = chain_cache_key(leaf, intermediates);
  if (auto it = chain_cache_.find(cache_key); it != chain_cache_.end()) {
    // A hit skips only the signature arithmetic. Time validity and the
    // revocation oracle are re-checked against THIS call's `at`; if any
    // check fails we fall through to the full walk so the caller gets
    // exactly the error the uncached path would have produced.
    bool still_good = true;
    for (const Certificate& cert : it->second.path) {
      if (!cert.valid_at(at) ||
          (revocation_ && revocation_(cert.issuer(), cert.serial()))) {
        still_good = false;
        break;
      }
    }
    if (still_good) {
      it->second.last_used = ++cache_tick_;
      cache_hits.increment();
      return it->second.path;
    }
  }
  cache_misses.increment();

  std::vector<Certificate> path;
  path.push_back(leaf);
  constexpr std::size_t kMaxDepth = 16;

  for (std::size_t depth = 0; depth < kMaxDepth; ++depth) {
    const Certificate& current = path.back();
    if (!current.valid_at(at)) {
      return make_error(ErrorCode::kExpired,
                        "certificate for " + current.subject().to_string() +
                            " not valid at t=" + std::to_string(at));
    }
    if (revocation_ && revocation_(current.issuer(), current.serial())) {
      return make_error(ErrorCode::kUntrustedKey,
                        "certificate serial " +
                            std::to_string(current.serial()) + " revoked");
    }

    // Anchor reached? The issuer must be a known anchor whose key verifies.
    if (const Certificate* anchor = find_anchor(current.issuer())) {
      if (!current.verify_signature(anchor->subject_public_key())) {
        return make_error(ErrorCode::kBadSignature,
                          "signature by anchor " +
                              current.issuer().to_string() + " invalid");
      }
      if (!anchor->valid_at(at)) {
        return make_error(ErrorCode::kExpired,
                          "anchor " + anchor->subject().to_string() +
                              " not valid at t=" + std::to_string(at));
      }
      if (!(current == *anchor)) path.push_back(*anchor);

      // Memoize the success (failures are never cached).
      if (chain_cache_.size() >= kChainCacheCapacity &&
          !chain_cache_.contains(cache_key)) {
        auto oldest = chain_cache_.begin();
        for (auto it = chain_cache_.begin(); it != chain_cache_.end(); ++it) {
          if (it->second.last_used < oldest->second.last_used) oldest = it;
        }
        chain_cache_.erase(oldest);
      }
      chain_cache_.insert_or_assign(cache_key,
                                    ChainCacheEntry{path, ++cache_tick_});
      return path;
    }

    // Otherwise find an intermediate that issued `current`.
    const Certificate* issuer_cert = nullptr;
    for (const auto& cand : intermediates) {
      if (cand.subject() == current.issuer() &&
          current.verify_signature(cand.subject_public_key())) {
        issuer_cert = &cand;
        break;
      }
    }
    if (issuer_cert == nullptr) {
      return make_error(ErrorCode::kUntrustedKey,
                        "no trust path for issuer " +
                            current.issuer().to_string());
    }
    // Intermediates must be marked as CAs.
    if (issuer_cert->extension_value(kExtCa).value_or("") != "true") {
      return make_error(ErrorCode::kUntrustedKey,
                        "intermediate " + issuer_cert->subject().to_string() +
                            " lacks CA extension");
    }
    path.push_back(*issuer_cert);
  }
  return make_error(ErrorCode::kUntrustedKey, "chain too deep");
}

}  // namespace e2e::crypto
