// Mutually authenticated channel between peered entities.
//
// Stand-in for the SSLv3/TLS channel the paper assumes between peered BBs
// (§6: "The direct signalling between peer BBs ... can easily be secured
// using SSLv3/TLS"). The handshake reproduces the *observable properties*
// the protocol depends on:
//  - mutual certificate exchange and verification against the trust
//    anchors installed from the SLA,
//  - proof of private-key possession (each side signs the transcript),
//  - an integrity-protected record layer with replay protection.
//
// After the handshake each side holds the peer's certificate — exactly the
// knowledge the signalling protocol leans on ("BB_C is able to check the
// signature of RAR_B because it does have access to the certificate of
// BB_B exchanged during the SSL handshake").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/tlv.hpp"
#include "crypto/certstore.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/x509.hpp"

namespace e2e::sig {

// TLV tags of the handshake and record wire messages (docs/DAEMON.md,
// "Channel handshake"). The staged halves below produce and consume the
// three handshake messages; handshake() hands them from one half to the
// other in process, and bbd/BbdClient carry them over a byte stream.
namespace channel_tag {
inline constexpr tlv::Tag kClientHello = 0xE280;  // container
inline constexpr tlv::Tag kServerHello = 0xE281;  // container
inline constexpr tlv::Tag kFinished = 0xE282;     // container
inline constexpr tlv::Tag kCertificate = 0xE283;  // bytes (cert encoding)
inline constexpr tlv::Tag kNonce = 0xE284;        // bytes (32)
inline constexpr tlv::Tag kProof = 0xE285;        // bytes (signature)
inline constexpr tlv::Tag kRecord = 0xE286;       // container
inline constexpr tlv::Tag kSequence = 0xE287;     // u64
inline constexpr tlv::Tag kPayload = 0xE288;      // bytes
inline constexpr tlv::Tag kMac = 0xE289;          // bytes
}  // namespace channel_tag

/// One party's handshake material.
struct ChannelEndpoint {
  crypto::Certificate certificate;
  crypto::PrivateKey private_key;
  const crypto::TrustStore* trust_store = nullptr;
  /// When set, a peer presenting exactly this certificate is accepted even
  /// without a trust-anchor path (proof of key possession still required).
  /// This models the introduction-based acceptance behind tunnels: the end
  /// domain learned the source BB's certificate through the signalling path
  /// and pins it for the direct channel (paper §6.1/§6.4).
  std::optional<crypto::Certificate> pinned_peer;
};

/// An integrity-protected record.
struct Record {
  std::uint64_t sequence = 0;
  Bytes payload;
  Bytes mac;
};

/// One direction-aware session half (each peer holds one).
///
/// A record's MAC is HMAC-SHA256(key, be64(sequence) || payload), keyed
/// per direction. The keyed HMAC states are built once, here, so sealing
/// or opening a record hashes only the sequence and the payload.
///
/// Two forms share the MAC and the sequence rules. seal()/open() work on
/// the Record struct, as the in-memory exchange carries it.
/// seal_frame()/open_record() work on wire bytes in place, as the daemon
/// and its clients carry them: the record is written straight into the
/// caller's buffer and read where it lies, and the payload is never
/// copied on its own. Their bytes are pinned to encode_record()/
/// decode_record(), which stay as the oracle.
class Session {
 public:
  Session() = default;
  Session(crypto::Certificate peer, BytesView send_key, BytesView recv_key)
      : peer_(std::move(peer)), send_mac_(send_key), recv_mac_(recv_key) {}

  const crypto::Certificate& peer_certificate() const { return peer_; }

  /// Wrap a payload for transmission.
  Record seal(BytesView payload);

  /// Verify integrity and (strictly increasing) sequence; returns the
  /// payload.
  Result<Bytes> open(const Record& record);

  /// Seal `payload` as the next record and append its frame, the u32
  /// big-endian length and then the record TLV, to `out`: the bytes of
  /// net::encode_frame(encode_record(seal(payload))). `payload` must not
  /// point into `out`.
  void seal_frame(BytesView payload, Bytes& out);

  /// open() over a record's wire bytes (a frame's payload): parse the
  /// record TLV in place, verify the MAC and the sequence, and return a
  /// view of the payload inside `record`. Malformed or trailing bytes are
  /// kBadMessage, as in decode_record().
  Result<BytesView> open_record(BytesView record);

 private:
  /// Check `mac` over (`sequence`, `payload`) and the sequence order;
  /// advances the expected sequence on success.
  Status accept(std::uint64_t sequence, BytesView payload, BytesView mac);

  crypto::Certificate peer_;
  crypto::HmacKey send_mac_;
  crypto::HmacKey recv_mac_;
  std::uint64_t next_send_seq_ = 0;
  std::uint64_t expected_recv_seq_ = 0;
};

struct SessionPair {
  Session initiator;
  Session responder;
};

/// Run the mutual-authentication handshake at virtual time `at`, in
/// process: a HandshakeInitiator and a HandshakeResponder (constructed in
/// that order, so the nonces are drawn initiator first) exchange the three
/// staged messages. Fails with kAuthenticationFailed if either side cannot
/// validate the other's certificate or proof of key possession. Counts the
/// outcome (count_handshake) and, inside an active span, writes one
/// peer_auth audit record.
Result<SessionPair> handshake(const ChannelEndpoint& initiator,
                              const ChannelEndpoint& responder, SimTime at,
                              Rng& rng);

/// Count one handshake outcome in e2e_sig_channel_handshakes_total. The
/// staged halves count nothing themselves: handshake() counts each call,
/// and a process driving one half over a socket counts that half's
/// outcome.
void count_handshake(bool ok);

/// Canonical wire form of a sealed record (channel_tag::kRecord container).
Bytes encode_record(const Record& record);
/// Decode a record; kBadMessage on truncated or malformed input — a peer
/// that disconnects mid-record must surface as a Status, never a crash.
Result<Record> decode_record(BytesView bytes);

/// Initiator half of the staged handshake — the mutual authentication
/// decomposed into the three messages that cross a byte stream:
///
///   ClientHello { cert_i, nonce_i }            initiator -> responder
///   ServerHello { cert_r, nonce_r, proof_r }   responder -> initiator
///   Finished    { proof_i }                    initiator -> responder
///
/// Both proofs sign the transcript enc(cert_i) || enc(cert_r) || nonce_i
/// || nonce_r, and the session keys derive from both proofs and the
/// transcript. Every consume step returns Status/Result: truncated or
/// malformed peer messages (mid-handshake disconnects) are errors, not
/// assertion failures.
class HandshakeInitiator {
 public:
  /// `endpoint` is copied; `rng` is borrowed only for the constructor's
  /// nonce draw.
  HandshakeInitiator(ChannelEndpoint endpoint, SimTime at, Rng& rng);

  /// The ClientHello to send. Call exactly once, first.
  Bytes client_hello();

  /// Consume the responder's ServerHello; validates the responder and
  /// returns the Finished message to send. The session is ready after
  /// this returns ok.
  Result<Bytes> on_server_hello(BytesView bytes);

  bool done() const { return done_; }
  /// Valid only after on_server_hello() succeeded.
  Session& session() { return session_; }

 private:
  ChannelEndpoint endpoint_;
  SimTime at_;
  Bytes nonce_;
  bool hello_sent_ = false;
  bool done_ = false;
  Session session_;
};

/// Responder half of the staged handshake (see HandshakeInitiator).
class HandshakeResponder {
 public:
  HandshakeResponder(ChannelEndpoint endpoint, SimTime at, Rng& rng);

  /// Consume the ClientHello; returns the ServerHello to send.
  Result<Bytes> on_client_hello(BytesView bytes);

  /// Consume the Finished message; validates the initiator. The session
  /// is ready after this returns ok.
  Status on_finished(BytesView bytes);

  bool done() const { return done_; }
  /// Valid only after on_finished() succeeded.
  Session& session() { return session_; }

 private:
  ChannelEndpoint endpoint_;
  SimTime at_;
  Bytes nonce_;
  Bytes transcript_;
  Bytes proof_r_;
  crypto::Certificate peer_cert_;
  bool hello_seen_ = false;
  bool done_ = false;
  Session session_;
};

}  // namespace e2e::sig
