// Resource Allocation Request (RAR) messages with nested signature layers.
//
// Paper §6.4 notation, reproduced exactly:
//
//   RAR_U   = sign_pkeyU  ({res_spec, DN_BBA, CapCert'_CAS, CapCert'_U})
//   RAR_A   = sign_pkeyBBA({RAR_U, cert_U, DN_BBB, CapCert'_A})
//   RAR_B   = sign_pkeyBBB({RAR_A, cert_A, DN_BBC, CapCert'_B})
//   RAR_N+1 = sign_pkeyBBN+1({RAR_N, cert_N, DN_BBN+2, CapCert'_N+1})
//
// "A complete request therefore is comprised of a collection of
// information, each signed by the entity that added it. The signatures both
// assert the authenticity of the information and allow for tracking the
// path taken by a request as it moves from BB to BB."
//
// Each layer's to-be-signed bytes are the encoding of everything underneath
// it plus the fields the layer adds, so any tampering at any depth breaks an
// outer signature. A message keeps the bytes it was decoded from (or built
// into) and the offsets of its layers: signing and verifying slice those
// bytes, and forwarding appends one layer container to them, so no hop
// re-serializes the layers beneath it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bb/reservation.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/rsa.hpp"
#include "policy/policy_server.hpp"

namespace e2e::sig {

/// Innermost layer: the user's signed request (RAR_U).
struct UserLayer {
  bb::ResSpec res_spec;
  /// DN of the source-domain BB the user addresses (DN_BBA). Listing it
  /// binds the request to that broker: "BB_A, as source of the request,
  /// did approve the SLA with domain B by listing the DN of BB_B".
  std::string source_bb_dn;
  /// Encoded capability certificates the user supplies (CapCert'_CAS and
  /// the user's delegation CapCert'_U of Fig. 7).
  std::vector<Bytes> capability_certs;
  Bytes signature;  // by the user's identity key
};

/// One broker layer (RAR_A, RAR_B, ...).
struct BrokerLayer {
  /// Certificate of the *previous* signer, introduced by this broker
  /// (cert_U in RAR_A, cert_A in RAR_B, ...). Encoded form.
  Bytes upstream_certificate;
  /// DN of the broker this layer is addressed to (DN_BBB, DN_BBC, ...).
  std::string downstream_dn;
  /// Capability certificates this broker delegates onward (CapCert'_A...).
  std::vector<Bytes> capability_certs;
  /// Signed attribute-value pairs the broker's policy server attached
  /// (paper §4: "simple attribute-value pairs which might be signed by the
  /// assigning entity" — here they are covered by the layer signature).
  std::vector<policy::Augmentation> augmentations;
  /// DN of the broker that signed this layer (for path tracking).
  std::string signer_dn;
  Bytes signature;
};

class RarMessage {
 public:
  /// A message with no layers; it encodes to nothing.
  RarMessage() = default;

  /// Build and sign the innermost user layer.
  static RarMessage create_user_request(
      bb::ResSpec res_spec, std::string source_bb_dn,
      std::vector<Bytes> capability_certs,
      const crypto::PrivateKey& user_key);

  /// Sign and append a broker layer. All fields of `layer` except
  /// `signature` must be filled in.
  void append_broker_layer(BrokerLayer layer,
                           const crypto::PrivateKey& broker_key);
  /// Same, but signing through a callback (lets brokers keep their private
  /// key encapsulated).
  using Signer = std::function<Bytes(BytesView)>;
  void append_broker_layer(BrokerLayer layer, const Signer& signer);
  /// The encoding append_broker_layer() would leave, without changing this
  /// message: what a broker forwards to the next hop.
  Bytes encode_with_layer(BrokerLayer layer, const Signer& signer) const;

  const UserLayer& user_layer() const { return user_; }
  const std::vector<BrokerLayer>& broker_layers() const { return brokers_; }
  std::size_t depth() const { return brokers_.size(); }

  /// To-be-signed bytes of the user layer: its fields as they sit on the
  /// wire (a view into this message).
  BytesView user_tbs() const;
  /// To-be-signed bytes of broker layer `index`: a prefix header, the wire
  /// bytes of every layer beneath it, then its own fields.
  Bytes broker_tbs(std::size_t index) const;

  /// Verify the user-layer signature against `key`.
  bool verify_user_signature(const crypto::PublicKey& key) const;
  /// Verify broker layer `index`'s signature against `key`.
  bool verify_broker_signature(std::size_t index,
                               const crypto::PublicKey& key) const;

  /// The full message (all layers with signatures) as received or built.
  const Bytes& encode() const { return wire_; }
  static Result<RarMessage> decode(BytesView data);

  /// Total bytes on the wire — grows with each hop; used by the protocol
  /// benchmarks.
  std::size_t wire_size() const { return wire_.size(); }

  // Struct re-encoders: the same bytes rebuilt from the parsed layers.
  // Differential oracles for the kept-bytes accessors above.
  Bytes user_tbs_reference() const;
  Bytes broker_tbs_reference(std::size_t index) const;
  Bytes encode_reference() const;

 private:
  /// Where broker layer k sits in wire_: its container starts at `start`,
  /// its fields run from the container header to `fields_end`, and its
  /// signature element follows.
  struct LayerBounds {
    std::size_t start = 0;
    std::size_t fields_end = 0;
  };

  /// Sign `layer` over `header ‖ wire ‖ fields` and append its container
  /// to `wire`.
  static LayerBounds append_layer(Bytes& wire, BrokerLayer& layer,
                                  const Signer& signer);
  /// Encoding of the user layer plus broker layers [0, count), rebuilt
  /// from the structs.
  Bytes encode_prefix_reference(std::size_t broker_count) const;

  UserLayer user_;
  std::vector<BrokerLayer> brokers_;
  Bytes wire_;
  /// The user layer's fields are wire_[tlv::kHeaderSize, user_fields_end_).
  std::size_t user_fields_end_ = 0;
  std::vector<LayerBounds> bounds_;  // parallel to brokers_
};

/// Reply travelling back upstream: either an approval carrying the
/// reservation handles granted along the path, or a denial with the origin
/// and reason (paper §6.1: "Whenever a request is denied by one domain, the
/// event is propagated upstream to inform the user of the reason").
struct RarReply {
  bool granted = false;
  /// Per-domain reservation handles, destination last.
  std::vector<std::pair<std::string, bb::ReservationId>> handles;
  /// Tunnel id assigned by the destination domain (tunnel requests only).
  std::string tunnel_id;
  Error denial;  // valid when !granted

  static RarReply approve() {
    RarReply r;
    r.granted = true;
    return r;
  }
  static RarReply deny(Error e) {
    RarReply r;
    r.granted = false;
    r.denial = std::move(e);
    return r;
  }

  /// Canonical wire encoding — replies are transported over the same
  /// integrity-protected channels as requests.
  Bytes encode() const;
  static Result<RarReply> decode(BytesView data);
};

}  // namespace e2e::sig
