// X.509v3-style certificates with extension fields.
//
// The paper's capability certificates are "capability attributes in the
// extension field of an ITU X.509v3 certificate" (§5) carrying a
// "Capability Certificate Flag", the capability list (e.g. "Capabilities of
// ESnet") and delegation restrictions ("Valid for Reservation in Domain C",
// Fig. 7). This module models exactly those observable parts: a canonical
// to-be-signed encoding, an issuer signature, and named extensions.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "crypto/dn.hpp"
#include "crypto/rsa.hpp"

namespace e2e::crypto {

/// Named extension. `critical` mirrors X.509 semantics: a verifier that does
/// not understand a critical extension must reject the certificate.
struct Extension {
  std::string name;
  bool critical = false;
  std::string value;

  bool operator==(const Extension&) const = default;
};

// Extension names used by the signalling protocol (paper Fig. 7).
inline constexpr const char* kExtCapabilityFlag = "CapabilityCertificateFlag";
inline constexpr const char* kExtCapabilities = "Capabilities";
inline constexpr const char* kExtValidForRar = "ValidForRAR";
inline constexpr const char* kExtCommunity = "Community";
inline constexpr const char* kExtGroup = "Group";
inline constexpr const char* kExtCa = "CA";  // basic-constraints stand-in

class Certificate {
 public:
  Certificate() = default;

  std::uint64_t serial() const { return serial_; }
  const DistinguishedName& issuer() const { return issuer_; }
  const DistinguishedName& subject() const { return subject_; }
  const TimeInterval& validity() const { return validity_; }
  const PublicKey& subject_public_key() const { return subject_key_; }
  const std::vector<Extension>& extensions() const { return extensions_; }
  const Bytes& signature() const { return signature_; }

  bool has_extension(std::string_view name) const;
  /// Value of the first extension with `name` (nullopt if absent).
  std::optional<std::string> extension_value(std::string_view name) const;

  /// True if the capability-certificate flag extension is present.
  bool is_capability_certificate() const {
    return has_extension(kExtCapabilityFlag);
  }
  /// Parsed comma-separated capability list ("Capabilities" extension).
  std::vector<std::string> capabilities() const;

  bool valid_at(SimTime t) const { return validity_.contains(t); }
  bool is_self_signed() const { return issuer_ == subject_; }

  /// To-be-signed bytes (everything except the signature): a view of the
  /// bytes this certificate was decoded from or signed into, so per-hop
  /// re-verification never re-serializes.
  BytesView tbs_encode() const;
  /// Full encoding: the TBS TLV followed by the signature TLV.
  const Bytes& encode() const;
  static Result<Certificate> decode(BytesView data);
  /// The TBS bytes rebuilt from the parsed fields (the canonical encoding);
  /// differential oracle for tbs_encode().
  Bytes tbs_encode_reference() const;

  /// Check the issuer signature over the TBS bytes.
  bool verify_signature(const PublicKey& issuer_key) const;

  /// SHA-256 of the full encoding; used as a stable identity in maps/logs.
  Digest fingerprint() const { return sha256(encode()); }

  bool operator==(const Certificate& o) const { return encode() == o.encode(); }

  /// Mutable builder; `CertificateAuthority::issue` and the delegation code
  /// are the only intended users.
  struct Builder {
    std::uint64_t serial = 0;
    DistinguishedName issuer;
    DistinguishedName subject;
    TimeInterval validity;
    PublicKey subject_key;
    std::vector<Extension> extensions;

    /// Sign the TBS with `issuer_key` and produce the certificate.
    Certificate sign_with(const PrivateKey& issuer_key) const;
  };

 private:
  std::uint64_t serial_ = 0;
  DistinguishedName issuer_;
  DistinguishedName subject_;
  TimeInterval validity_;
  PublicKey subject_key_;
  std::vector<Extension> extensions_;
  Bytes signature_;
  // The bytes decode() read or Builder::sign_with() produced: the TBS TLV
  // (the first tbs_size_ bytes), then the signature TLV. Empty for a
  // default-constructed certificate, which encodes its blank fields.
  Bytes encoded_;
  std::size_t tbs_size_ = 0;
};

}  // namespace e2e::crypto
