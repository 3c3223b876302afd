// SHA-256 (FIPS 180-4), implemented from scratch.
//
// All digital signatures in the signalling protocol hash the canonical TLV
// encoding of the signed object with this function. Tested against the FIPS
// test vectors in tests/crypto_sha256_test.cpp.
//
// Block kernel. Sha256::update hands every whole run of 64-byte blocks to
// one compress call. On x86-64 CPUs with the SHA extensions (CPUID leaf 7
// EBX bit 29, plus SSSE3 and SSE4.1 from leaf 1 ECX bits 9 and 19) that call
// runs a SHA-NI kernel; the choice is made once, from CPUID, at the first
// hash. Only that one function is compiled for those instructions, so a
// binary built on a SHA-capable host still runs on a CPU without them.
// Everywhere else the portable scalar kernel runs. The scalar kernel is also
// the oracle: sha256_reference() hashes with it alone, and the differential
// test pins sha256()/Sha256 against it across lengths and chunkings.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace e2e::crypto {

constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental hasher.
class Sha256 {
 public:
  Sha256();
  void update(BytesView data);
  /// Finalize and return the digest; the object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// The same digest from the portable scalar kernel alone, whatever the CPU
/// offers: the differential oracle for the accelerated kernel.
Digest sha256_reference(BytesView data);

/// Name of the block kernel this process hashes with: "sha-ni" or
/// "portable".
const char* sha256_kernel();

/// Digest as Bytes (for embedding in messages).
Bytes digest_bytes(const Digest& d);

}  // namespace e2e::crypto
