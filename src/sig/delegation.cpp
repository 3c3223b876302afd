#include "sig/delegation.hpp"

#include <algorithm>

#include "obs/audit.hpp"
#include "obs/trace.hpp"

namespace e2e::sig {

crypto::Certificate delegate_capability(
    const crypto::Certificate& parent,
    const crypto::PrivateKey& parent_subject_key,
    const crypto::DistinguishedName& delegate_dn,
    const crypto::PublicKey& delegate_key, const std::string& rar_restriction,
    TimeInterval validity, std::uint64_t serial) {
  crypto::Certificate delegated =
      build_delegation(parent, delegate_dn, delegate_key, rar_restriction,
                       validity, serial)
          .sign_with(parent_subject_key);
  // Audited only when a span is active: the user-side delegation that
  // seeds a request happens before any RAR exists and would join no
  // trace. Broker re-issues mid-reservation audit at their call sites
  // with the processing span open (sig/hopbyhop.cpp).
  if (obs::current_span_ref().valid()) {
    obs::AuditLog::global().append(
        parent.subject().to_string(), obs::audit_kind::kDelegation,
        {{"issuer", parent.subject().to_string()},
         {"subject", delegate_dn.to_string()},
         {"serial", std::to_string(serial)},
         {"restriction", delegated.extension_value(crypto::kExtValidForRar)
                             .value_or("")}});
  }
  return delegated;
}

crypto::Certificate::Builder build_delegation(
    const crypto::Certificate& parent,
    const crypto::DistinguishedName& delegate_dn,
    const crypto::PublicKey& delegate_key, const std::string& rar_restriction,
    TimeInterval validity, std::uint64_t serial) {
  crypto::Certificate::Builder b;
  b.serial = serial;
  b.issuer = parent.subject();
  b.subject = delegate_dn;
  b.validity = validity;
  b.subject_key = delegate_key;
  // Copy the capability extensions (flag, capability list, community), then
  // add/preserve the RAR restriction.
  for (const auto& ext : parent.extensions()) {
    if (ext.name == crypto::kExtValidForRar) continue;  // re-added below
    b.extensions.push_back(ext);
  }
  std::string restriction = rar_restriction;
  if (const auto inherited = parent.extension_value(crypto::kExtValidForRar)) {
    restriction = *inherited;  // once restricted, always restricted
  }
  if (!restriction.empty()) {
    b.extensions.push_back(
        crypto::Extension{crypto::kExtValidForRar, true, restriction});
  }
  return b;
}

namespace {

Error chain_error(std::string msg) {
  return make_error(ErrorCode::kUntrustedKey,
                    "capability chain: " + std::move(msg));
}

}  // namespace

Result<CapabilityChainResult> verify_capability_chain(
    std::span<const crypto::Certificate> chain,
    const crypto::PublicKey& cas_key, const crypto::PublicKey& holder_key,
    const std::string& expected_rar, SimTime at) {
  if (chain.empty()) return chain_error("empty");

  const crypto::Certificate& root = chain[0];
  // "checks that CAS was issuing a capability certificate for the user"
  if (!root.is_capability_certificate()) {
    return chain_error("root lacks the capability-certificate flag");
  }
  if (!root.verify_signature(cas_key)) {
    return chain_error("root not signed by the community CAS");
  }

  CapabilityChainResult out;
  out.community = root.extension_value(crypto::kExtCommunity).value_or("");
  out.capabilities = root.capabilities();
  out.length = chain.size();

  std::vector<std::string> allowed = root.capabilities();
  std::string restriction =
      root.extension_value(crypto::kExtValidForRar).value_or("");

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const crypto::Certificate& cert = chain[i];
    // "checks the validity of all capabilities, i.e. whether some entity
    // did change them inappropriately during delegation"
    if (!cert.valid_at(at)) {
      return make_error(ErrorCode::kExpired,
                        "capability chain: link " + std::to_string(i) +
                            " expired");
    }
    if (!cert.is_capability_certificate()) {
      return chain_error("link " + std::to_string(i) +
                         " lacks the capability flag");
    }
    if (i == 0) continue;

    const crypto::Certificate& parent = chain[i - 1];
    // "checks that ... delegated the capability ..., because the new
    // certificate was signed using pkey of the delegator" — the proxy-key
    // cascade: each link is signed with the key matching the parent's
    // subject public key.
    if (!cert.verify_signature(parent.subject_public_key())) {
      return chain_error("link " + std::to_string(i) +
                         " not signed with parent's subject key");
    }
    if (cert.issuer() != parent.subject()) {
      return chain_error("link " + std::to_string(i) +
                         " issuer does not match parent subject");
    }
    // No capability escalation during delegation.
    for (const auto& cap : cert.capabilities()) {
      if (std::find(allowed.begin(), allowed.end(), cap) == allowed.end()) {
        return chain_error("link " + std::to_string(i) +
                           " escalates capability '" + cap + "'");
      }
    }
    allowed = cert.capabilities();
    // Restriction must be preserved once present.
    const std::string link_restriction =
        cert.extension_value(crypto::kExtValidForRar).value_or("");
    if (!restriction.empty() && link_restriction != restriction) {
      return chain_error("link " + std::to_string(i) +
                         " altered the RAR restriction");
    }
    restriction = link_restriction;
  }

  if (!expected_rar.empty() && !restriction.empty() &&
      restriction != expected_rar) {
    return chain_error("restriction '" + restriction +
                       "' does not match this RAR ('" + expected_rar + "')");
  }

  // "checks that [the holder] actually owns the capability certificate by
  // requesting a proof of the knowledge of [the private key]" — here we
  // check the binding; possession is proven via prove/check_possession.
  if (!(chain.back().subject_public_key() == holder_key)) {
    return chain_error("final subject key is not the presenting holder's");
  }

  out.capabilities = allowed;
  out.rar_restriction = restriction;
  return out;
}

Bytes prove_possession(const crypto::PrivateKey& holder_key,
                       BytesView nonce) {
  return crypto::sign(holder_key, nonce);
}

bool check_possession(const crypto::PublicKey& holder_key, BytesView nonce,
                      BytesView proof) {
  return crypto::verify(holder_key, nonce, proof);
}

Result<std::vector<crypto::Certificate>> decode_chain(
    std::span<const BytesView> encoded) {
  std::vector<crypto::Certificate> out;
  out.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    auto cert = crypto::Certificate::decode(encoded[i]);
    if (!cert) {
      return make_error(ErrorCode::kBadMessage,
                        "capability chain: entry " + std::to_string(i) +
                            " undecodable");
    }
    out.push_back(std::move(*cert));
  }
  return out;
}

}  // namespace e2e::sig
