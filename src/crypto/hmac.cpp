#include "crypto/hmac.hpp"

#include <cstring>

namespace e2e::crypto {

HmacKey::HmacKey(BytesView key) {
  constexpr std::size_t kBlockSize = 64;
  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Digest kd = sha256(key);
    std::memcpy(key_block.data(), kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(key_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

Digest HmacKey::finish(Sha256 inner) const {
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest HmacKey::mac(BytesView message) const {
  Sha256 inner = begin();
  inner.update(message);
  return finish(inner);
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

Bytes derive_key(BytesView secret, std::string_view label,
                 std::size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  std::uint32_t counter = 1;
  while (out.size() < out_len) {
    Bytes info(label.begin(), label.end());
    info.push_back(static_cast<std::uint8_t>(counter >> 24));
    info.push_back(static_cast<std::uint8_t>(counter >> 16));
    info.push_back(static_cast<std::uint8_t>(counter >> 8));
    info.push_back(static_cast<std::uint8_t>(counter));
    const Digest block = hmac_sha256(secret, info);
    const std::size_t take = std::min(out_len - out.size(), block.size());
    out.insert(out.end(), block.begin(), block.begin() + take);
    ++counter;
  }
  return out;
}

}  // namespace e2e::crypto
