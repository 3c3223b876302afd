// Trust store and chain verification.
//
// A TrustStore holds the trust anchors a bandwidth broker is configured
// with: the CA certificates listed in its SLAs plus any locally trusted
// roots. Chain verification walks issuer links, checks signatures, validity
// windows, the CA extension on intermediates, and revocation.
//
// Successful verifications are memoized in a bounded per-store cache keyed
// by the exact certificate bytes presented (leaf + intermediates). A hit
// skips only the signature arithmetic: validity windows and the revocation
// oracle are re-evaluated against the requested time on every call, and the
// whole cache is dropped when the anchor set or the revocation oracle
// changes. See docs/PERFORMANCE.md for the invalidation rules.
//
// Thread safety: none of its own. A store belongs to one broker (or one
// client) and is used by the thread that owns it (docs/ARCHITECTURE.md).
//
// The web-of-trust ("key introducer") acceptance used by the transitive
// trust model lives in src/sig/trust.hpp and builds on this store.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "crypto/x509.hpp"

namespace e2e::crypto {

class TrustStore {
 public:
  /// Trust `cert` as a root (must be self-signed with a valid signature;
  /// returns false and ignores it otherwise). Invalidates the chain cache.
  bool add_anchor(const Certificate& cert);

  bool is_anchor(const DistinguishedName& dn) const {
    return anchors_.contains(dn.to_string());
  }
  const Certificate* find_anchor(const DistinguishedName& dn) const;
  std::size_t anchor_count() const { return anchors_.size(); }

  /// Optional revocation oracle: given issuer DN and serial, is the
  /// certificate revoked? Default: nothing is revoked. Invalidates the
  /// chain cache (the old oracle's verdicts may no longer hold).
  using RevocationCheck =
      std::function<bool(const DistinguishedName& issuer, std::uint64_t serial)>;
  void set_revocation_check(RevocationCheck check);

  /// Verify `leaf` at virtual time `at`, using `intermediates` to build the
  /// issuer path up to a trust anchor. On success returns the validated
  /// path, leaf first, anchor last.
  Result<std::vector<Certificate>> verify_chain(
      const Certificate& leaf, const std::vector<Certificate>& intermediates,
      SimTime at) const;

  static constexpr std::size_t kChainCacheCapacity = 256;
  /// Cached successful verifications (tests and capacity checks).
  std::size_t chain_cache_size() const { return chain_cache_.size(); }

 private:
  struct ChainCacheEntry {
    std::vector<Certificate> path;
    std::uint64_t last_used = 0;
  };

  void invalidate_chain_cache() { chain_cache_.clear(); }

  std::map<std::string, Certificate> anchors_;  // keyed by DN text
  RevocationCheck revocation_;
  // verify_chain() is const, so the memo table is mutable state; keys are
  // SHA-256 over the presented certificate bytes.
  mutable std::map<Digest, ChainCacheEntry> chain_cache_;
  mutable std::uint64_t cache_tick_ = 0;
};

}  // namespace e2e::crypto
