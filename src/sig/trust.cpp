#include "sig/trust.hpp"

#include <algorithm>

#include "obs/instruments.hpp"

namespace e2e::sig {

namespace {

Error auth_error(std::string msg) {
  return make_error(ErrorCode::kAuthenticationFailed, std::move(msg));
}

/// Collect views of the user-supplied and per-layer capability
/// certificates plus the augmentations into `out`, innermost first.
void collect_payload(const RarMessage& msg, VerifiedRar& out) {
  out.capability_certs.assign(msg.user_layer().capability_certs.begin(),
                              msg.user_layer().capability_certs.end());
  for (const auto& layer : msg.broker_layers()) {
    for (const auto& cap : layer.capability_certs) {
      out.capability_certs.push_back(cap);
    }
    for (const auto& aug : layer.augmentations) {
      out.augmentations.push_back(aug);
    }
  }
}

Result<crypto::DistinguishedName> user_dn_of(const bb::ResSpec& spec) {
  auto dn = crypto::DistinguishedName::parse(spec.user);
  if (!dn) {
    return make_error(ErrorCode::kBadMessage,
                      "res_spec.user is not a DN: " + spec.user);
  }
  return dn;
}

}  // namespace

static Result<VerifiedRar> verify_rar_impl(
    const RarMessage& msg, const crypto::Certificate& channel_peer,
    const crypto::DistinguishedName& self_dn, const TrustPolicy& policy,
    SimTime at) {
  const auto& layers = msg.broker_layers();
  if (layers.empty()) {
    return auth_error("inter-BB RAR must carry at least one broker layer");
  }
  const std::size_t n = layers.size();

  // 1. The outermost layer must be addressed to us and signed by the
  //    channel-authenticated peer.
  const BrokerLayer& outer = layers[n - 1];
  if (outer.downstream_dn != self_dn.to_string()) {
    return auth_error("RAR addressed to " + outer.downstream_dn + ", not " +
                      self_dn.to_string());
  }
  if (outer.signer_dn != channel_peer.subject().to_string()) {
    return auth_error("outer layer signed by " + outer.signer_dn +
                      " but channel peer is " +
                      channel_peer.subject().to_string());
  }
  if (!msg.verify_broker_signature(n - 1,
                                   channel_peer.subject_public_key())) {
    return make_error(ErrorCode::kBadSignature,
                      "outer broker signature invalid");
  }

  VerifiedRar out;
  out.res_spec = msg.user_layer().res_spec;
  auto user_dn = user_dn_of(out.res_spec);
  if (!user_dn) return user_dn.error();
  out.user_dn = *user_dn;

  // 2. Walk inward. Layer k introduces the certificate of layer k-1's
  //    signer; acceptance is by introduction (web of trust) bounded by the
  //    local depth policy.
  std::vector<PathElement> path_rev;  // destination-side first
  path_rev.push_back(PathElement{channel_peer.subject(), 0});

  for (std::size_t k = n - 1; k >= 1; --k) {
    const std::size_t depth = (n - 1) - (k - 1);
    if (depth > policy.max_introduction_depth) {
      return make_error(ErrorCode::kUntrustedKey,
                        "introduction chain exceeds local depth limit (" +
                            std::to_string(policy.max_introduction_depth) +
                            ")");
    }
    auto introduced = crypto::Certificate::decode(layers[k].upstream_certificate);
    if (!introduced) {
      return make_error(ErrorCode::kBadMessage,
                        "layer " + std::to_string(k) +
                            " carries an undecodable upstream certificate");
    }
    if (!introduced->valid_at(at)) {
      return make_error(ErrorCode::kExpired,
                        "introduced certificate for " +
                            introduced->subject().to_string() + " expired");
    }
    if (introduced->subject().to_string() != layers[k - 1].signer_dn) {
      return auth_error("introduced certificate subject " +
                        introduced->subject().to_string() +
                        " does not match layer signer " +
                        layers[k - 1].signer_dn);
    }
    if (!msg.verify_broker_signature(k - 1,
                                     introduced->subject_public_key())) {
      return make_error(ErrorCode::kBadSignature,
                        "signature of layer " + std::to_string(k - 1) +
                            " invalid under introduced key");
    }
    // Path tracing continuity: layer k-1 addressed the broker that signed
    // layer k.
    if (layers[k - 1].downstream_dn != layers[k].signer_dn) {
      return auth_error("path discontinuity: layer " + std::to_string(k - 1) +
                        " addressed " + layers[k - 1].downstream_dn +
                        " but layer " + std::to_string(k) + " was signed by " +
                        layers[k].signer_dn);
    }
    path_rev.push_back(PathElement{introduced->subject(), depth});
  }

  // 3. Innermost broker layer introduces the user's identity certificate.
  auto user_cert =
      crypto::Certificate::decode(layers[0].upstream_certificate);
  if (!user_cert) {
    return make_error(ErrorCode::kBadMessage,
                      "layer 0 carries an undecodable user certificate");
  }
  if (!user_cert->valid_at(at)) {
    return make_error(ErrorCode::kExpired, "user certificate expired");
  }
  if (user_cert->subject() != out.user_dn) {
    return auth_error("user certificate subject " +
                      user_cert->subject().to_string() +
                      " does not match res_spec.user " + out.res_spec.user);
  }
  if (!msg.verify_user_signature(user_cert->subject_public_key())) {
    return make_error(ErrorCode::kBadSignature, "user signature invalid");
  }
  // The user addressed the source-domain broker that signed layer 0.
  if (msg.user_layer().source_bb_dn != layers[0].signer_dn) {
    return auth_error("user addressed " + msg.user_layer().source_bb_dn +
                      " but layer 0 was signed by " + layers[0].signer_dn);
  }
  out.user_certificate = std::move(*user_cert);

  // Path in source-first order.
  out.path.assign(path_rev.rbegin(), path_rev.rend());
  collect_payload(msg, out);
  return out;
}

static Result<VerifiedRar> verify_user_request_impl(
    const RarMessage& msg, const crypto::Certificate& user_cert,
    const crypto::DistinguishedName& self_dn, SimTime at) {
  if (!msg.broker_layers().empty()) {
    return auth_error("direct user request must not carry broker layers");
  }
  if (msg.user_layer().source_bb_dn != self_dn.to_string()) {
    return auth_error("request addressed to " + msg.user_layer().source_bb_dn +
                      ", not " + self_dn.to_string());
  }
  if (!user_cert.valid_at(at)) {
    return make_error(ErrorCode::kExpired, "user certificate expired");
  }
  VerifiedRar out;
  out.res_spec = msg.user_layer().res_spec;
  auto user_dn = user_dn_of(out.res_spec);
  if (!user_dn) return user_dn.error();
  out.user_dn = *user_dn;
  if (user_cert.subject() != out.user_dn) {
    return auth_error("user certificate subject mismatch");
  }
  if (!msg.verify_user_signature(user_cert.subject_public_key())) {
    return make_error(ErrorCode::kBadSignature, "user signature invalid");
  }
  out.user_certificate = user_cert;
  collect_payload(msg, out);
  return out;
}

namespace {

/// Count the verification outcome and, for accepted inter-BB RARs, record
/// the deepest introduction step the verifier had to trust.
Result<VerifiedRar> metered(Result<VerifiedRar> result) {
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter(obs::kSigTrustVerificationsTotal,
               {{"result", result.ok() ? "ok" : "fail"}})
      .increment();
  if (result.ok() && !result->path.empty()) {
    std::size_t deepest = 0;
    for (const auto& elem : result->path) {
      deepest = std::max(deepest, elem.introduction_depth);
    }
    registry.histogram(obs::kSigTrustIntroductionDepth)
        .observe(static_cast<double>(deepest));
  }
  return result;
}

}  // namespace

Result<VerifiedRar> verify_rar(const RarMessage& msg,
                               const crypto::Certificate& channel_peer,
                               const crypto::DistinguishedName& self_dn,
                               const TrustPolicy& policy, SimTime at) {
  return metered(verify_rar_impl(msg, channel_peer, self_dn, policy, at));
}

Result<VerifiedRar> verify_user_request(
    const RarMessage& msg, const crypto::Certificate& user_cert,
    const crypto::DistinguishedName& self_dn, SimTime at) {
  return metered(verify_user_request_impl(msg, user_cert, self_dn, at));
}

}  // namespace e2e::sig
