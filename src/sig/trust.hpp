// Transitive trust verification of RAR messages.
//
// Paper §6.4: the receiving broker can "check signatures without a direct
// trust relationship" because "each domain add[s] the certificate of the
// upstream domain — known because of the SSL handshake — and sign[s] it.
// This web of trust allows each domain to access a list of key introducers
// when deciding whether to accept the public key stored in the
// certificate." A local TrustPolicy "might limit the depth of an acceptable
// trust chain".
#pragma once

#include <string>
#include <vector>

#include "crypto/x509.hpp"
#include "sig/message.hpp"

namespace e2e::sig {

struct TrustPolicy {
  /// Maximum number of introduction steps between the directly trusted
  /// channel peer and an introduced key (paper: "Checking its own security
  /// policy which might limit the depth of an acceptable trust chain").
  std::size_t max_introduction_depth = 8;
};

/// One element of the validated signalling path.
struct PathElement {
  crypto::DistinguishedName signer;
  /// Introduction distance from the verifier: 0 = authenticated directly on
  /// the channel, k = introduced through k intermediaries.
  std::size_t introduction_depth = 0;
};

/// Everything the destination's policy engine needs, extracted from a
/// verified request.
struct VerifiedRar {
  bb::ResSpec res_spec;
  crypto::DistinguishedName user_dn;
  crypto::Certificate user_certificate;
  /// BB path, source domain first (from the layer signatures — "the
  /// signatures ... allow for tracking the path taken by a request").
  std::vector<PathElement> path;
  /// Augmentations from every broker layer, in path order.
  std::vector<policy::Augmentation> augmentations;
  /// All encoded capability certificates, innermost (user-supplied) first,
  /// then per-hop delegations — the "Capability List" of Fig. 7. Views into
  /// the verified message, valid while it lives.
  std::vector<BytesView> capability_certs;
};

/// Verify a received RAR at a bandwidth broker.
///
/// `channel_peer` is the certificate of the upstream BB obtained from the
/// mutually authenticated channel; the outermost layer must be signed by
/// it; the channel handshake already chain-verified that certificate
/// against local trust anchors. `self_dn` is this broker's DN (the
/// outermost layer must be addressed to it). Every other key is accepted
/// by web-of-trust introduction only, up to
/// `policy.max_introduction_depth`.
Result<VerifiedRar> verify_rar(const RarMessage& msg,
                               const crypto::Certificate& channel_peer,
                               const crypto::DistinguishedName& self_dn,
                               const TrustPolicy& policy, SimTime at);

/// Source-domain variant: the user's request arrives directly (depth 0);
/// `user_cert` was authenticated out of band (the source BB knows its local
/// users — paper §6.1). Validates signature, DN binding and validity.
Result<VerifiedRar> verify_user_request(const RarMessage& msg,
                                        const crypto::Certificate& user_cert,
                                        const crypto::DistinguishedName& self_dn,
                                        SimTime at);

}  // namespace e2e::sig
