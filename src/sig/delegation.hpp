// Capability-certificate delegation chains (paper §6.5, Fig. 7).
//
// Neuman-style cascaded authorization: "each subordinate server signs the
// received capabilities using the private key of the corresponding public
// key stored in the capability. ... In our model, the BB of the source
// domain uses the public key of the peered downstream domain as public
// proxy key." Each hop re-issues the capability to the next hop's real
// public key, copies the capability extensions, adds the "valid for RAR"
// restriction, and signs with the private key matching the parent
// certificate's subject key.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "crypto/x509.hpp"
#include "policy/context.hpp"

namespace e2e::sig {

/// Create the next link of a delegation chain.
///
/// `parent` is the capability certificate held by the delegator;
/// `parent_subject_key` is the private key matching `parent`'s subject
/// public key (the user's private proxy key for the CAS-issued certificate,
/// the broker's own key afterwards). The new certificate binds the parent's
/// capabilities to `delegate_dn` / `delegate_key`, restricted to
/// `rar_restriction` (added on first delegation, then preserved).
crypto::Certificate delegate_capability(
    const crypto::Certificate& parent,
    const crypto::PrivateKey& parent_subject_key,
    const crypto::DistinguishedName& delegate_dn,
    const crypto::PublicKey& delegate_key, const std::string& rar_restriction,
    TimeInterval validity, std::uint64_t serial);

/// Builder variant: fill in everything but the signature; the caller signs
/// with the key matching `parent`'s subject public key (e.g. via
/// BandwidthBroker::sign_certificate, which keeps the key encapsulated).
crypto::Certificate::Builder build_delegation(
    const crypto::Certificate& parent,
    const crypto::DistinguishedName& delegate_dn,
    const crypto::PublicKey& delegate_key, const std::string& rar_restriction,
    TimeInterval validity, std::uint64_t serial);

/// Result of validating a full chain at the end domain.
struct CapabilityChainResult {
  /// Community whose CAS issued the root capability (e.g. "ESnet").
  std::string community;
  /// Capability attributes usable for authorization.
  std::vector<std::string> capabilities;
  /// The RAR restriction carried by the delegated links ("" if none).
  std::string rar_restriction;
  /// Chain length including the CAS-issued root.
  std::size_t length = 0;

  policy::ValidatedCapability to_validated() const {
    return policy::ValidatedCapability{community, capabilities};
  }
};

/// Perform the end-domain checklist of §6.5 on a chain
/// [CAS-issued, delegation 1, ..., delegation k]:
///  - the CAS (key `cas_key`) issued the root capability certificate;
///  - every delegation is signed with the private key matching its parent's
///    subject public key (proxy-key cascade);
///  - issuer/subject DNs link up hop by hop;
///  - no delegation escalates capabilities beyond its parent's set;
///  - the RAR restriction, once added, is preserved and equals
///    `expected_rar` (when non-empty);
///  - every certificate is valid at `at`;
///  - the final subject key equals `holder_key` (the verifier then demands
///    proof of possession of the matching private key — `prove_possession`
///    / `check_possession` below).
Result<CapabilityChainResult> verify_capability_chain(
    std::span<const crypto::Certificate> chain,
    const crypto::PublicKey& cas_key, const crypto::PublicKey& holder_key,
    const std::string& expected_rar, SimTime at);

/// Proof of possession: the holder signs a verifier-chosen nonce with the
/// private key matching the last chain certificate's subject key.
Bytes prove_possession(const crypto::PrivateKey& holder_key, BytesView nonce);
bool check_possession(const crypto::PublicKey& holder_key, BytesView nonce,
                      BytesView proof);

/// Decode a wire list of encoded certificates into a chain, preserving
/// order; fails on the first undecodable entry.
Result<std::vector<crypto::Certificate>> decode_chain(
    std::span<const BytesView> encoded);

}  // namespace e2e::sig
