#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define E2E_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace e2e::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

/// The portable scalar kernel: one 64-byte block into `state`.
void process_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef E2E_SHA256_X86
/// The SHA-NI kernel. State lives in two registers as ABEF and CDGH (the
/// order sha256rnds2 takes); each group of four rounds adds four schedule
/// words to their round constants and runs two rnds2 steps, while msg1/msg2
/// extend the schedule four words at a time in a ring of four registers.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);                 // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);           // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);        // CDGH

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteswap);
      }
      __m128i msg = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        // Words for the next group: W[t] needs W[t-7], which straddles
        // this group and the one before it.
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);              // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);           // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}
#endif

/// Chosen once, at the first hash.
bool use_sha_ni() {
#ifdef E2E_SHA256_X86
  static const bool available = cpu_has_sha_ni();
  return available;
#else
  return false;
#endif
}

void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t nblocks) {
#ifdef E2E_SHA256_X86
  if (use_sha_ni()) return compress_shani(state, data, nblocks);
#endif
  for (; nblocks > 0; --nblocks, data += 64) process_block(state, data);
}

Digest state_digest(const std::uint32_t* state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

Sha256::Sha256() : state_(kInitialState) {}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (n >= 64) {
    compress(state_.data(), p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

Digest Sha256::finish() {
  // Buffered bytes, then 0x80, zeros, and the 64-bit big-endian bit length
  // at the end of the last block: one block, or two when fewer than 9
  // bytes are left in this one.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  compress(state_.data(), tail, tail_len / 64);
  return state_digest(state_.data());
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256_reference(BytesView data) {
  // Textbook padding on a copy of the message, then the scalar kernel
  // block by block: shares no code with Sha256's buffering, padding or
  // accelerated kernel.
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<std::uint8_t>(bit_len >> (56 - i * 8)));
  }
  std::array<std::uint32_t, 8> state = kInitialState;
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    process_block(state.data(), padded.data() + off);
  }
  return state_digest(state.data());
}

const char* sha256_kernel() { return use_sha_ni() ? "sha-ni" : "portable"; }

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace e2e::crypto
