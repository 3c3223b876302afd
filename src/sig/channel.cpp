#include "sig/channel.hpp"

#include <cstring>

#include "common/tlv.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace e2e::sig {

namespace {

void count_auth_failure() {
  static obs::Counter& failures = obs::MetricsRegistry::global().counter(
      obs::kSigChannelAuthFailuresTotal);
  failures.increment();
}

std::uint8_t* put_be(std::uint8_t* p, std::uint64_t v, int nbytes) {
  for (int i = nbytes - 1; i >= 0; --i) {
    *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p;
}

crypto::Digest record_mac(const crypto::HmacKey& key, std::uint64_t sequence,
                          BytesView payload) {
  std::uint8_t be_seq[8];
  put_be(be_seq, sequence, 8);
  crypto::Sha256 inner = key.begin();
  inner.update(BytesView(be_seq, sizeof(be_seq)));
  inner.update(payload);
  return key.finish(inner);
}

void count_seal() {
  static obs::Counter& seals = obs::MetricsRegistry::global().counter(
      obs::kSigChannelRecordsTotal, {{"op", "seal"}});
  seals.increment();
}

void count_open() {
  static obs::Counter& opens = obs::MetricsRegistry::global().counter(
      obs::kSigChannelRecordsTotal, {{"op", "open"}});
  opens.increment();
}

std::uint8_t* put_tlv_header(std::uint8_t* p, tlv::Tag tag,
                             std::size_t length) {
  p = put_be(p, tag, 2);
  return put_be(p, length, 4);
}

}  // namespace

Record Session::seal(BytesView payload) {
  count_seal();
  Record rec;
  rec.sequence = next_send_seq_++;
  rec.payload.assign(payload.begin(), payload.end());
  rec.mac = crypto::digest_bytes(record_mac(send_mac_, rec.sequence, payload));
  return rec;
}

Result<Bytes> Session::open(const Record& record) {
  count_open();
  if (auto ok = accept(record.sequence, record.payload, record.mac);
      !ok.ok()) {
    return ok.error();
  }
  return record.payload;
}

void Session::seal_frame(BytesView payload, Bytes& out) {
  count_seal();
  const std::uint64_t sequence = next_send_seq_++;
  // Record TLV: container { sequence u64, payload bytes, mac bytes }.
  constexpr std::size_t kMacBytes = crypto::kSha256DigestSize;
  const std::size_t body =
      3 * tlv::kHeaderSize + 8 + payload.size() + kMacBytes;
  const std::size_t record = tlv::kHeaderSize + body;
  const std::size_t at = out.size();
  out.resize(at + 4 + record);
  std::uint8_t* p = out.data() + at;
  p = put_be(p, record, 4);
  p = put_tlv_header(p, channel_tag::kRecord, body);
  p = put_tlv_header(p, channel_tag::kSequence, 8);
  p = put_be(p, sequence, 8);
  p = put_tlv_header(p, channel_tag::kPayload, payload.size());
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
  p += payload.size();
  p = put_tlv_header(p, channel_tag::kMac, kMacBytes);
  const crypto::Digest mac = record_mac(send_mac_, sequence, payload);
  std::memcpy(p, mac.data(), mac.size());
}

Result<BytesView> Session::open_record(BytesView record) {
  tlv::Reader outer(record);
  auto nested = outer.read_nested(channel_tag::kRecord);
  if (!nested.ok()) return nested.error();
  tlv::Reader& reader = nested.value();
  auto sequence = reader.read_u64(channel_tag::kSequence);
  if (!sequence.ok()) return sequence.error();
  auto payload = reader.expect(channel_tag::kPayload);
  if (!payload.ok()) return payload.error();
  auto mac = reader.expect(channel_tag::kMac);
  if (!mac.ok()) return mac.error();
  if (!reader.at_end() || !outer.at_end()) {
    return make_error(ErrorCode::kBadMessage, "trailing bytes after record");
  }
  // Counted once the record parses, as decode_record() then open() count.
  count_open();
  if (auto ok = accept(sequence.value(), payload.value().value,
                       mac.value().value);
      !ok.ok()) {
    return ok.error();
  }
  return payload.value().value;
}

Status Session::accept(std::uint64_t sequence, BytesView payload,
                       BytesView mac) {
  const crypto::Digest expected = record_mac(recv_mac_, sequence, payload);
  if (!equal_ct(mac, BytesView(expected.data(), expected.size()))) {
    count_auth_failure();
    return make_error(ErrorCode::kAuthenticationFailed,
                      "record MAC verification failed");
  }
  if (sequence < expected_recv_seq_) {
    count_auth_failure();
    return make_error(ErrorCode::kAuthenticationFailed,
                      "record replay detected (seq " +
                          std::to_string(sequence) + ")");
  }
  expected_recv_seq_ = sequence + 1;
  return Status::ok_status();
}

namespace {

constexpr std::size_t kNonceBytes = 32;

Bytes draw_nonce(Rng& rng) {
  Bytes nonce(kNonceBytes);
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());
  return nonce;
}

/// The transcript both proofs sign: both certificates and both nonces.
Bytes make_transcript(BytesView cert_i, BytesView cert_r, BytesView nonce_i,
                      BytesView nonce_r) {
  Bytes transcript;
  append(transcript, cert_i);
  append(transcript, cert_r);
  append(transcript, nonce_i);
  append(transcript, nonce_r);
  return transcript;
}

/// One side validates the other: certificate chains to a local anchor, is
/// time-valid, and the peer proved possession of the matching private key
/// by signing the handshake transcript.
Status validate_peer(const ChannelEndpoint& self,
                     const crypto::Certificate& peer_cert,
                     BytesView transcript, BytesView proof, SimTime at) {
  const bool pinned =
      self.pinned_peer.has_value() && *self.pinned_peer == peer_cert &&
      peer_cert.valid_at(at);
  if (!pinned) {
    if (self.trust_store == nullptr) {
      return make_error(ErrorCode::kInternal, "endpoint has no trust store");
    }
    auto chain = self.trust_store->verify_chain(peer_cert, {}, at);
    if (!chain.ok()) {
      return make_error(ErrorCode::kAuthenticationFailed,
                        "peer certificate rejected: " +
                            chain.error().to_text());
    }
  }
  if (!crypto::verify(peer_cert.subject_public_key(), transcript, proof)) {
    return make_error(ErrorCode::kAuthenticationFailed,
                      "peer failed proof of key possession");
  }
  return Status::ok_status();
}

/// Both proofs are public in this exchange; the session secret mixes them
/// with the transcript, sha256(proof_i || proof_r || transcript), split
/// with the fixed direction labels. (A real deployment would run a key
/// exchange here; the simulation only needs both ends to agree on keys —
/// see DESIGN.md.) Returns {initiator->responder, responder->initiator}.
std::pair<Bytes, Bytes> derive_session_keys(BytesView proof_i,
                                            BytesView proof_r,
                                            BytesView transcript) {
  Bytes secret_input;
  append(secret_input, proof_i);
  append(secret_input, proof_r);
  append(secret_input, transcript);
  const Bytes secret = crypto::digest_bytes(crypto::sha256(secret_input));
  return {crypto::derive_key(secret, "initiator->responder", 32),
          crypto::derive_key(secret, "responder->initiator", 32)};
}

/// Audit the mutual authentication — but only when a span is active:
/// world-setup handshakes (SLA peering before any RAR exists) would
/// otherwise flood the log with records that join to no trace.
void audit_peer_auth(const ChannelEndpoint& initiator,
                     const ChannelEndpoint& responder, const Status& outcome) {
  if (!obs::current_span_ref().valid()) return;
  const std::string initiator_dn = initiator.certificate.subject().to_string();
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("result", outcome.ok() ? "ok" : "fail");
  fields.emplace_back("initiator", initiator_dn);
  fields.emplace_back("responder",
                      responder.certificate.subject().to_string());
  if (!outcome.ok()) fields.emplace_back("reason", outcome.error().message);
  obs::AuditLog::global().append(initiator_dn, obs::audit_kind::kPeerAuth,
                                 std::move(fields));
}

}  // namespace

void count_handshake(bool ok) {
  obs::MetricsRegistry::global()
      .counter(obs::kSigChannelHandshakesTotal,
               {{"result", ok ? "ok" : "fail"}})
      .increment();
}

Result<SessionPair> handshake(const ChannelEndpoint& initiator,
                              const ChannelEndpoint& responder, SimTime at,
                              Rng& rng) {
  // The initiator is constructed first so the nonces are drawn in
  // initiator, responder order.
  HandshakeInitiator client(initiator, at, rng);
  HandshakeResponder server(responder, at, rng);
  const Status outcome = [&]() -> Status {
    auto server_hello = server.on_client_hello(client.client_hello());
    if (!server_hello.ok()) return server_hello.error();
    auto finished = client.on_server_hello(server_hello.value());
    if (!finished.ok()) return finished.error();
    return server.on_finished(finished.value());
  }();
  count_handshake(outcome.ok());
  audit_peer_auth(initiator, responder, outcome);
  if (!outcome.ok()) return outcome.error();
  return SessionPair{std::move(client.session()), std::move(server.session())};
}

Bytes encode_record(const Record& record) {
  tlv::Writer writer;
  writer.open(channel_tag::kRecord);
  writer.put_u64(channel_tag::kSequence, record.sequence);
  writer.put_bytes(channel_tag::kPayload, record.payload);
  writer.put_bytes(channel_tag::kMac, record.mac);
  writer.close();
  return writer.take();
}

Result<Record> decode_record(BytesView bytes) {
  tlv::Reader outer(bytes);
  auto nested = outer.read_nested(channel_tag::kRecord);
  if (!nested.ok()) return nested.error();
  tlv::Reader& reader = nested.value();
  Record record;
  auto sequence = reader.read_u64(channel_tag::kSequence);
  if (!sequence.ok()) return sequence.error();
  record.sequence = sequence.value();
  auto payload = reader.read_bytes(channel_tag::kPayload);
  if (!payload.ok()) return payload.error();
  record.payload = std::move(payload.value());
  auto mac = reader.read_bytes(channel_tag::kMac);
  if (!mac.ok()) return mac.error();
  record.mac = std::move(mac.value());
  if (!reader.at_end() || !outer.at_end()) {
    return make_error(ErrorCode::kBadMessage, "trailing bytes after record");
  }
  return record;
}

HandshakeInitiator::HandshakeInitiator(ChannelEndpoint endpoint, SimTime at,
                                       Rng& rng)
    : endpoint_(std::move(endpoint)), at_(at), nonce_(draw_nonce(rng)) {}

Bytes HandshakeInitiator::client_hello() {
  hello_sent_ = true;
  tlv::Writer writer;
  writer.open(channel_tag::kClientHello);
  writer.put_bytes(channel_tag::kCertificate, endpoint_.certificate.encode());
  writer.put_bytes(channel_tag::kNonce, nonce_);
  writer.close();
  return writer.take();
}

Result<Bytes> HandshakeInitiator::on_server_hello(BytesView bytes) {
  if (!hello_sent_ || done_) {
    return make_error(ErrorCode::kInvalidArgument,
                      "ServerHello out of handshake order");
  }
  tlv::Reader outer(bytes);
  auto nested = outer.read_nested(channel_tag::kServerHello);
  if (!nested.ok()) return nested.error();
  tlv::Reader& reader = nested.value();
  auto cert_bytes = reader.read_bytes(channel_tag::kCertificate);
  if (!cert_bytes.ok()) return cert_bytes.error();
  auto nonce_r = reader.read_bytes(channel_tag::kNonce);
  if (!nonce_r.ok()) return nonce_r.error();
  auto proof_r = reader.read_bytes(channel_tag::kProof);
  if (!proof_r.ok()) return proof_r.error();
  if (nonce_r.value().size() != kNonceBytes) {
    return make_error(ErrorCode::kBadMessage, "ServerHello nonce size");
  }
  auto peer_cert = crypto::Certificate::decode(cert_bytes.value());
  if (!peer_cert.ok()) return peer_cert.error();

  const Bytes transcript =
      make_transcript(endpoint_.certificate.encode(), cert_bytes.value(),
                      nonce_, nonce_r.value());
  auto check = validate_peer(endpoint_, peer_cert.value(), transcript,
                             proof_r.value(), at_);
  if (!check.ok()) return check.error();

  const Bytes proof_i = crypto::sign(endpoint_.private_key, transcript);
  auto [i_to_r, r_to_i] =
      derive_session_keys(proof_i, proof_r.value(), transcript);
  session_ = Session(std::move(peer_cert.value()), std::move(i_to_r),
                     std::move(r_to_i));
  done_ = true;

  tlv::Writer writer;
  writer.open(channel_tag::kFinished);
  writer.put_bytes(channel_tag::kProof, proof_i);
  writer.close();
  return writer.take();
}

HandshakeResponder::HandshakeResponder(ChannelEndpoint endpoint, SimTime at,
                                       Rng& rng)
    : endpoint_(std::move(endpoint)), at_(at), nonce_(draw_nonce(rng)) {}

Result<Bytes> HandshakeResponder::on_client_hello(BytesView bytes) {
  if (hello_seen_ || done_) {
    return make_error(ErrorCode::kInvalidArgument,
                      "ClientHello out of handshake order");
  }
  tlv::Reader outer(bytes);
  auto nested = outer.read_nested(channel_tag::kClientHello);
  if (!nested.ok()) return nested.error();
  tlv::Reader& reader = nested.value();
  auto cert_bytes = reader.read_bytes(channel_tag::kCertificate);
  if (!cert_bytes.ok()) return cert_bytes.error();
  auto nonce_i = reader.read_bytes(channel_tag::kNonce);
  if (!nonce_i.ok()) return nonce_i.error();
  if (nonce_i.value().size() != kNonceBytes) {
    return make_error(ErrorCode::kBadMessage, "ClientHello nonce size");
  }
  auto peer_cert = crypto::Certificate::decode(cert_bytes.value());
  if (!peer_cert.ok()) return peer_cert.error();
  peer_cert_ = std::move(peer_cert.value());
  hello_seen_ = true;

  const Bytes own_cert = endpoint_.certificate.encode();
  transcript_ =
      make_transcript(cert_bytes.value(), own_cert, nonce_i.value(), nonce_);
  proof_r_ = crypto::sign(endpoint_.private_key, transcript_);

  tlv::Writer writer;
  writer.open(channel_tag::kServerHello);
  writer.put_bytes(channel_tag::kCertificate, own_cert);
  writer.put_bytes(channel_tag::kNonce, nonce_);
  writer.put_bytes(channel_tag::kProof, proof_r_);
  writer.close();
  return writer.take();
}

Status HandshakeResponder::on_finished(BytesView bytes) {
  if (!hello_seen_ || done_) {
    return make_error(ErrorCode::kInvalidArgument,
                      "Finished out of handshake order");
  }
  tlv::Reader outer(bytes);
  auto nested = outer.read_nested(channel_tag::kFinished);
  if (!nested.ok()) return nested.error();
  auto proof_i = nested.value().read_bytes(channel_tag::kProof);
  if (!proof_i.ok()) return proof_i.error();
  auto check =
      validate_peer(endpoint_, peer_cert_, transcript_, proof_i.value(), at_);
  if (!check.ok()) return check.error();
  auto [i_to_r, r_to_i] =
      derive_session_keys(proof_i.value(), proof_r_, transcript_);
  session_ = Session(peer_cert_, std::move(r_to_i), std::move(i_to_r));
  done_ = true;
  return Status::ok_status();
}

}  // namespace e2e::sig
