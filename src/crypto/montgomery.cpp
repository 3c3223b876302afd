#include "crypto/montgomery.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "obs/instruments.hpp"

namespace e2e::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// a >= b over exactly n limbs.
bool limbs_ge(const u64* a, const u64* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

/// out = a - b over exactly n limbs (requires a >= b).
void limbs_sub(const u64* a, const u64* b, u64* out, std::size_t n) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 bi = b[i];
    const u64 t = a[i] - bi;
    const u64 next_borrow = (a[i] < bi) | (t < borrow ? 1u : 0u);
    out[i] = t - borrow;
    borrow = next_borrow;
  }
}

/// Final conditional subtraction shared by all REDC paths: the reduced
/// value is < 2m, held in `t` (n limbs) plus a carry bit.
void reduce_once(const u64* t, u64 carry, const u64* mod, u64* out,
                 std::size_t n) {
  if (carry || limbs_ge(t, mod, n)) {
    limbs_sub(t, mod, out, n);
  } else {
    std::copy(t, t + n, out);
  }
}

/// Pad a normalized BigUInt into exactly n limbs.
std::vector<u64> padded(const BigUInt& v, std::size_t n) {
  std::vector<u64> out(n, 0);
  const auto& limbs = v.limbs();
  std::copy(limbs.begin(), limbs.end(), out.begin());
  return out;
}

/// Bits [pos, pos + width) of the exponent, little-endian.
unsigned exp_window(const std::vector<u64>& e, unsigned pos, unsigned width) {
  unsigned out = 0;
  for (unsigned i = 0; i < width; ++i) {
    const unsigned bit = pos + i;
    const std::size_t limb = bit / 64;
    if (limb >= e.size()) break;
    out |= static_cast<unsigned>((e[limb] >> (bit % 64)) & 1) << i;
  }
  return out;
}

/// Window width for an exponent of `ebits` bits: the 2^w - 2 table
/// multiplies must pay for themselves.
unsigned window_width(unsigned ebits) {
  return ebits >= 128 ? 4 : (ebits >= 24 ? 2 : 1);
}
constexpr unsigned kMaxWindow = 4;

// --- Fixed-width kernels ----------------------------------------------------
//
// The same CIOS product and window loop as the generic kernel, with the limb
// count a template constant: loop bounds are known, the loops unroll and all
// scratch lives on the stack. Instantiated only for the widths in
// modexp_fixed(); every other width runs the generic kernel. Inside the
// window loop the product is force-inlined, so each lane's operands stay in
// registers and the lanes' instructions sit side by side; the table and the
// exit from the Montgomery domain call one out-of-line copy, which keeps
// the code small. Carries go through __builtin_add_overflow rather than
// 128-bit sums, which GCC assembles through the stack.

/// One modexp's operands: the context's precomputed limbs, a reduced
/// non-zero base and an exponent > 1.
struct Lane {
  const u64* mod;
  u64 inv64;
  const u64* one;  // R mod m
  const u64* rr;   // R^2 mod m
  BigUInt base;
  const BigUInt* exp;
};

/// lo + hi * 2^64 = a * b + c + d, which cannot overflow; returns lo.
[[gnu::always_inline]] inline u64 mac(u64 a, u64 b, u64 c, u64 d,
                                      u64& hi) {
  const u128 p = static_cast<u128>(a) * b;
  u64 lo = static_cast<u64>(p);
  hi = static_cast<u64>(p >> 64);
  hi += __builtin_add_overflow(lo, c, &lo);
  hi += __builtin_add_overflow(lo, d, &lo);
  return lo;
}

/// out = REDC(a * b) over N limbs: the generic CIOS loop with N fixed.
/// Reads every input before writing `out`, so `out` may alias `a` or `b`.
template <std::size_t N>
[[gnu::always_inline]] inline void mul_fixed(const u64* a, const u64* b,
                                             const u64* mod, u64 inv64,
                                             u64* out) {
  u64 t[N + 1] = {};
#pragma GCC unroll 8
  for (std::size_t i = 0; i < N; ++i) {
    // t += a[i] * b
    u64 carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) {
      t[j] = mac(a[i], b[j], t[j], carry, carry);
    }
    u64 top = __builtin_add_overflow(t[N], carry, &t[N]);
    // (t + mfac * m) / 2^64
    const u64 mfac = t[0] * inv64;
    mac(mfac, mod[0], t[0], 0, carry);
#pragma GCC unroll 8
    for (std::size_t j = 1; j < N; ++j) {
      t[j - 1] = mac(mfac, mod[j], t[j], carry, carry);
    }
    top += __builtin_add_overflow(t[N], carry, &t[N - 1]);
    t[N] = top;
  }
  // t < 2m: subtract m once unless t < m.
  u64 diff[N] = {};
  u64 borrow = 0;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < N; ++j) {
    u64 next = __builtin_sub_overflow(t[j], mod[j], &diff[j]);
    next += __builtin_sub_overflow(diff[j], borrow, &diff[j]);
    borrow = next;
  }
  const bool subtract = t[N] != 0 || borrow == 0;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < N; ++j) out[j] = subtract ? diff[j] : t[j];
}

/// mul_fixed as a call, for the products outside the window loop.
template <std::size_t N>
[[gnu::noinline]] void mul_fixed_call(const u64* a, const u64* b,
                                      const u64* mod, u64 inv64, u64* out) {
  mul_fixed<N>(a, b, mod, inv64, out);
}

/// base^exp mod m for every lane, in one window loop: each step does one
/// product per lane, so the core overlaps the lanes' independent chains.
/// The window width follows the longest exponent; a lane whose top window
/// is 0 starts from R mod m.
template <std::size_t N, std::size_t L>
void modexp_lanes(const Lane (&lanes)[L], BigUInt (&out)[L]) {
  unsigned ebits = 0;
  for (const Lane& lane : lanes) {
    ebits = std::max(ebits, lane.exp->bit_length());
  }
  const unsigned w = window_width(ebits);
  const unsigned windows = (ebits + w - 1) / w;
  u64 mod[L][N] = {};
  u64 inv64[L] = {};
  // table[l][v] = base_l^v in Montgomery form; table[l][0] = R mod m_l.
  u64 table[L][1u << kMaxWindow][N] = {};
  u64 acc[L][N] = {};
  for (std::size_t l = 0; l < L; ++l) {
    const Lane& lane = lanes[l];
    std::copy(lane.mod, lane.mod + N, mod[l]);
    inv64[l] = lane.inv64;
    u64 base[N] = {};
    std::copy(lane.base.limbs().begin(), lane.base.limbs().end(), base);
    std::copy(lane.one, lane.one + N, table[l][0]);
    mul_fixed_call<N>(base, lane.rr, mod[l], inv64[l], table[l][1]);
    for (unsigned v = 2; v < (1u << w); ++v) {
      mul_fixed_call<N>(table[l][v - 1], table[l][1], mod[l], inv64[l],
                        table[l][v]);
    }
    const unsigned top = exp_window(lane.exp->limbs(), (windows - 1) * w, w);
    std::copy(table[l][top], table[l][top] + N, acc[l]);
  }
  for (unsigned wi = windows - 1; wi-- > 0;) {
    for (unsigned s = 0; s < w; ++s) {
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        mul_fixed<N>(acc[l], acc[l], mod[l], inv64[l], acc[l]);
      }
    }
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      const unsigned v = exp_window(lanes[l].exp->limbs(), wi * w, w);
      if (v != 0) mul_fixed<N>(acc[l], table[l][v], mod[l], inv64[l], acc[l]);
    }
  }
  // Leave the Montgomery domain: REDC(acc * 1).
  for (std::size_t l = 0; l < L; ++l) {
    const u64 unit[N] = {1};
    u64 res[N] = {};
    mul_fixed_call<N>(acc[l], unit, mod[l], inv64[l], res);
    out[l] = BigUInt::from_limbs(std::vector<u64>(res, res + N));
  }
}

/// Runs the lanes on the fixed-width kernel for `n` limbs; false when `n`
/// has none.
template <std::size_t L>
bool modexp_fixed(const Lane (&lanes)[L], std::size_t n, BigUInt (&out)[L]) {
  switch (n) {
    case 2:
      modexp_lanes<2>(lanes, out);
      return true;
    case 4:
      modexp_lanes<4>(lanes, out);
      return true;
    default:
      return false;
  }
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigUInt& m) : m_(m) {
  if (!m.is_odd() || m == BigUInt(1)) {
    throw std::domain_error(
        "MontgomeryContext: modulus must be odd and > 1");
  }
  mod_ = m.limbs();
  n_ = mod_.size();
  // inv64 = -m^-1 mod 2^64 by Newton: x_{k+1} = x_k * (2 - m0 * x_k)
  // doubles the number of correct low bits; seeding with m0 gives 3, five
  // iterations reach 96 >= 64.
  const u64 m0 = mod_[0];
  u64 x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  inv64_ = ~x + 1;
  const BigUInt r = BigUInt(1) << static_cast<unsigned>(64 * n_);
  one_ = padded(r % m_, n_);
  rr_ = padded((r * r) % m_, n_);
}

void MontgomeryContext::redc_raw(u64* wide, u64* out) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 mfac = wide[i] * inv64_;
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(mfac) * mod_[j] + wide[i + j] + carry;
      wide[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t k = i + n;
    while (carry != 0) {
      const u128 s = static_cast<u128>(wide[k]) + carry;
      wide[k] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
      ++k;
    }
  }
  reduce_once(wide + n, wide[2 * n], mod_.data(), out, n);
}

void MontgomeryContext::mul_raw(const u64* a, const u64* b, u64* out,
                                u64* t) const {
  // CIOS: interleave one row of schoolbook multiplication with one REDC
  // step, keeping the running value in t[0 .. n+1].
  const std::size_t n = n_;
  std::fill(t, t + n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<u64>(s);
    t[n + 1] += static_cast<u64>(s >> 64);
    // (t + mfac * m) / 2^64
    const u64 mfac = t[0] * inv64_;
    u128 cur = static_cast<u128>(mfac) * mod_[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(mfac) * mod_[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(s);
    s = static_cast<u128>(t[n + 1]) + (s >> 64);
    t[n] = static_cast<u64>(s);
    t[n + 1] = 0;
  }
  reduce_once(t, t[n], mod_.data(), out, n);
}

void MontgomeryContext::sqr_raw(const u64* a, u64* out, u64* wide) const {
  // Dedicated squaring: cross products a[i]*a[j] (j > i) computed once,
  // doubled with one full-width shift, diagonal squares added after — about
  // half the multiplies of mul_raw — then a separate REDC pass.
  const std::size_t n = n_;
  std::fill(wide, wide + 2 * n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      const u128 cur = static_cast<u128>(ai) * a[j] + wide[i + j] + carry;
      wide[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    wide[i + n] = carry;
  }
  // Double the cross products: cross < 2^(128n - 1), so no bit is lost.
  u64 shift_carry = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const u64 next = wide[k] >> 63;
    wide[k] = (wide[k] << 1) | shift_carry;
    shift_carry = next;
  }
  // Add the diagonal a[i]^2 at position 2i.
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(wide[2 * i]) + static_cast<u64>(sq) + carry;
    wide[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(wide[2 * i + 1]) + static_cast<u64>(sq >> 64) +
          static_cast<u64>(cur >> 64);
    wide[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  redc_raw(wide, out);
}

BigUInt MontgomeryContext::to_mont(const BigUInt& x) const {
  std::vector<u64> in = padded(x, n_);
  std::vector<u64> out(n_);
  std::vector<u64> scratch(2 * n_ + 2);
  mul_raw(in.data(), rr_.data(), out.data(), scratch.data());
  return BigUInt::from_limbs(std::move(out));
}

BigUInt MontgomeryContext::from_mont(const BigUInt& x) const {
  std::vector<u64> wide(2 * n_ + 1, 0);
  const auto& limbs = x.limbs();
  std::copy(limbs.begin(), limbs.end(), wide.begin());
  std::vector<u64> out(n_);
  redc_raw(wide.data(), out.data());
  return BigUInt::from_limbs(std::move(out));
}

BigUInt MontgomeryContext::mul(const BigUInt& a_mont,
                               const BigUInt& b_mont) const {
  std::vector<u64> a = padded(a_mont, n_);
  std::vector<u64> b = padded(b_mont, n_);
  std::vector<u64> out(n_);
  std::vector<u64> scratch(2 * n_ + 2);
  mul_raw(a.data(), b.data(), out.data(), scratch.data());
  return BigUInt::from_limbs(std::move(out));
}

BigUInt MontgomeryContext::sqr(const BigUInt& a_mont) const {
  std::vector<u64> a = padded(a_mont, n_);
  std::vector<u64> out(n_);
  std::vector<u64> scratch(2 * n_ + 2);
  sqr_raw(a.data(), out.data(), scratch.data());
  return BigUInt::from_limbs(std::move(out));
}

BigUInt MontgomeryContext::modexp(const BigUInt& base,
                                  const BigUInt& exp) const {
  if (exp.is_zero()) return BigUInt(1);  // m > 1
  BigUInt reduced = base >= m_ ? base % m_ : base;
  if (exp == BigUInt(1)) return reduced;
  if (reduced.is_zero()) return {};
  const Lane lanes[1] = {
      {mod_.data(), inv64_, one_.data(), rr_.data(), std::move(reduced), &exp}};
  BigUInt out[1];
  if (modexp_fixed(lanes, n_, out)) return std::move(out[0]);
  return modexp_generic(lanes[0].base, exp);
}

std::pair<BigUInt, BigUInt> MontgomeryContext::modexp_pair(
    const BigUInt& base, const BigUInt& exp_a, const BigUInt& m_a,
    const BigUInt& exp_b, const BigUInt& m_b) {
  const BigUInt one(1);
  if (!m_a.is_odd() || !m_b.is_odd() || m_a == one || m_b == one) {
    return {base.modexp(exp_a, m_a), base.modexp(exp_b, m_b)};
  }
  static obs::Counter& montgomery_count =
      obs::MetricsRegistry::global().counter(obs::kCryptoModexpTotal,
                                             {{"kernel", "montgomery"}});
  montgomery_count.increment(2);
  const auto ctx_a = shared(m_a);
  const auto ctx_b = shared(m_b);
  const MontgomeryContext& a = *ctx_a;
  const MontgomeryContext& b = *ctx_b;
  BigUInt reduced_a = base >= m_a ? base % m_a : base;
  BigUInt reduced_b = base >= m_b ? base % m_b : base;
  // Lockstep needs one limb count and a window loop on both sides.
  if (a.n_ != b.n_ || exp_a <= one || exp_b <= one || reduced_a.is_zero() ||
      reduced_b.is_zero()) {
    return {a.modexp(reduced_a, exp_a), b.modexp(reduced_b, exp_b)};
  }
  const Lane lanes[2] = {{a.mod_.data(), a.inv64_, a.one_.data(),
                          a.rr_.data(), std::move(reduced_a), &exp_a},
                         {b.mod_.data(), b.inv64_, b.one_.data(),
                          b.rr_.data(), std::move(reduced_b), &exp_b}};
  BigUInt out[2];
  if (modexp_fixed(lanes, a.n_, out)) {
    return {std::move(out[0]), std::move(out[1])};
  }
  return {a.modexp_generic(lanes[0].base, exp_a),
          b.modexp_generic(lanes[1].base, exp_b)};
}

BigUInt MontgomeryContext::modexp_generic(const BigUInt& reduced,
                                          const BigUInt& exp) const {
  const unsigned ebits = exp.bit_length();
  const unsigned w = window_width(ebits);
  const unsigned table_size = 1u << w;
  const std::size_t n = n_;

  std::vector<u64> scratch(2 * n + 2);
  std::vector<u64> base_mont = padded(reduced, n);
  {
    std::vector<u64> tmp(n);
    mul_raw(base_mont.data(), rr_.data(), tmp.data(), scratch.data());
    base_mont = std::move(tmp);
  }

  // table[v] = base^v in Montgomery form; table[0] = R mod m.
  std::vector<u64> table(static_cast<std::size_t>(table_size) * n);
  std::copy(one_.begin(), one_.end(), table.begin());
  std::copy(base_mont.begin(), base_mont.end(), table.begin() + n);
  for (unsigned v = 2; v < table_size; ++v) {
    mul_raw(&table[(v - 1) * n], base_mont.data(), &table[v * n],
            scratch.data());
  }

  const unsigned windows = (ebits + w - 1) / w;
  const std::vector<u64>& elimbs = exp.limbs();
  // Seed with the top window (always non-zero: it holds the exponent's top
  // set bit), skipping its w squarings.
  std::vector<u64> acc(n);
  std::vector<u64> tmp(n);
  const unsigned top = exp_window(elimbs, (windows - 1) * w, w);
  std::copy(&table[top * n], &table[top * n] + n, acc.begin());
  for (unsigned wi = windows - 1; wi-- > 0;) {
    for (unsigned s = 0; s < w; ++s) {
      sqr_raw(acc.data(), tmp.data(), scratch.data());
      std::swap(acc, tmp);
    }
    const unsigned v = exp_window(elimbs, wi * w, w);
    if (v != 0) {
      mul_raw(acc.data(), &table[v * n], tmp.data(), scratch.data());
      std::swap(acc, tmp);
    }
  }

  // Leave the Montgomery domain: REDC(acc * 1).
  std::vector<u64> wide(2 * n + 1, 0);
  std::copy(acc.begin(), acc.end(), wide.begin());
  std::vector<u64> out(n);
  redc_raw(wide.data(), out.data());
  return BigUInt::from_limbs(std::move(out));
}

std::shared_ptr<const MontgomeryContext> MontgomeryContext::shared(
    const BigUInt& m) {
  struct Entry {
    std::shared_ptr<const MontgomeryContext> context;
    std::uint64_t last_used = 0;
  };
  // One cache per thread, so no lock: two threads of one process that run
  // RSA (a daemon's loop and a client beside it) each keep their own.
  thread_local std::map<BigUInt, Entry> cache;
  thread_local std::uint64_t tick = 0;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& hits = registry.counter(
      obs::kCryptoMontCtxLookupsTotal, {{"result", "hit"}});
  static obs::Counter& misses = registry.counter(
      obs::kCryptoMontCtxLookupsTotal, {{"result", "miss"}});

  ++tick;
  if (auto it = cache.find(m); it != cache.end()) {
    it->second.last_used = tick;
    hits.increment();
    return it->second.context;
  }
  misses.increment();
  auto context = std::make_shared<const MontgomeryContext>(m);
  if (cache.size() >= kSharedCacheCapacity) {
    auto oldest = cache.begin();
    for (auto it = cache.begin(); it != cache.end(); ++it) {
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    }
    cache.erase(oldest);
  }
  cache.emplace(m, Entry{context, tick});
  return context;
}

}  // namespace e2e::crypto
