// HMAC-SHA256 (RFC 2104).
//
// Used by sig::Session for record integrity after the handshake — the
// stand-in for the TLS record layer the paper assumes between peered
// bandwidth brokers.
//
// HmacKey holds one key's two padded blocks already compressed: the inner
// and outer SHA-256 states after ipad and opad. A session builds one per
// direction at the handshake, so a record's MAC costs only the message's
// compressions plus the outer block, not the two pad blocks again.
// hmac_sha256() is the one-shot form over the same type.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace e2e::crypto {

class HmacKey {
 public:
  /// The empty key (HMAC is defined for it).
  HmacKey() : HmacKey(BytesView{}) {}
  explicit HmacKey(BytesView key);

  /// A hasher already fed the inner pad: update() it with the message,
  /// then hand it to finish().
  Sha256 begin() const { return inner_; }
  /// The MAC of everything `inner` was fed after begin().
  Digest finish(Sha256 inner) const;

  Digest mac(BytesView message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256(key, message).
Digest hmac_sha256(BytesView key, BytesView message);

/// HKDF-style key derivation used by the channel handshake: derives
/// `out_len` bytes from the shared secret and a context label by counter-mode
/// expansion of HMAC-SHA256.
Bytes derive_key(BytesView secret, std::string_view label, std::size_t out_len);

}  // namespace e2e::crypto
