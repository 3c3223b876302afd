// Montgomery-form modular arithmetic: the modexp fast path.
//
// A MontgomeryContext precomputes, for one odd modulus m of n 64-bit limbs:
//   - inv64 = -m^-1 mod 2^64 (Newton iteration on the low limb),
//   - R mod m and R^2 mod m for R = 2^(64n),
// after which modular multiplication is division-free: the CIOS (coarsely
// integrated operand scanning) interleaving of schoolbook multiplication
// with word-by-word REDC reduction. Squaring takes a dedicated path that
// exploits the symmetry of the partial products (cross terms computed once
// and doubled) before a separate REDC pass.
//
// Exponentiation is fixed-window over the Montgomery domain: 4-bit windows
// for full-size (private) exponents, narrower windows when the exponent is
// small (the public e = 65537 case), so the table precompute never
// outweighs the multiplies it saves.
//
// modexp() picks its kernel from the modulus's limb count alone. At 2 and
// 4 limbs (the CRT halves and the verify modulus of a 256-bit key, the CRT
// halves of a 512-bit one) it runs a fixed-width kernel: the limb count is
// a template constant, so the loops unroll and scratch stays on the stack
// (it squares with the general product; a dedicated squaring measured no
// faster at these widths). Every other width, and the exposed mul/sqr/to_mont/from_mont, run the
// generic kernel. modexp_pair() runs two modexps of one width through
// one window loop, one product of each per step, so the core overlaps two
// independent chains of dependent multiplies: the two CRT halves of a
// signature.
//
// Contexts are immutable after construction. `shared()` hands out contexts
// from a bounded per-thread cache keyed by modulus value, so every verify
// against the same key — and every Miller-Rabin round against the same
// prime candidate — reuses one context instead of recomputing R^2. Differential tests pin the whole kernel
// against BigUInt::modexp_reference (tests/crypto_montgomery_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/biguint.hpp"

namespace e2e::crypto {

class MontgomeryContext {
 public:
  /// Precompute for modulus `m`, which must be odd and > 1 (throws
  /// std::domain_error otherwise — REDC needs m invertible mod 2^64).
  explicit MontgomeryContext(const BigUInt& m);

  const BigUInt& modulus() const { return m_; }

  /// base^exp mod m. Handles base >= m (reduces first), exp == 0 and
  /// exp == 1 without entering the window machinery.
  BigUInt modexp(const BigUInt& base, const BigUInt& exp) const;

  /// {base.modexp(exp_a, m_a), base.modexp(exp_b, m_b)}, counted the same
  /// (one e2e_crypto_modexp_total and one shared-context lookup per
  /// half): CRT signing's two half-size exponentiations. Runs the halves
  /// in lockstep on the fixed-width kernel when both moduli are odd and
  /// have the same limb count, and it has one; otherwise two single
  /// modexps.
  static std::pair<BigUInt, BigUInt> modexp_pair(const BigUInt& base,
                                                 const BigUInt& exp_a,
                                                 const BigUInt& m_a,
                                                 const BigUInt& exp_b,
                                                 const BigUInt& m_b);

  // Montgomery-domain primitives, exposed for the differential tests and
  // the micro benches. Values must already be < m.
  BigUInt to_mont(const BigUInt& x) const;    // x * R mod m
  BigUInt from_mont(const BigUInt& x) const;  // x * R^-1 mod m
  /// REDC(a * b): the Montgomery product of two Montgomery-domain values.
  BigUInt mul(const BigUInt& a_mont, const BigUInt& b_mont) const;
  /// REDC(a * a) via the dedicated squaring path.
  BigUInt sqr(const BigUInt& a_mont) const;

  /// Find-or-create a context in the calling thread's bounded cache (LRU
  /// over kSharedCacheCapacity moduli; hit/miss counters in the obs
  /// registry).
  static std::shared_ptr<const MontgomeryContext> shared(const BigUInt& m);
  static constexpr std::size_t kSharedCacheCapacity = 64;

 private:
  /// The window loop over the generic kernels; `reduced` is in (0, m) and
  /// `exp` > 1.
  BigUInt modexp_generic(const BigUInt& reduced, const BigUInt& exp) const;
  // Raw kernels over n-limb little-endian arrays. `scratch` must hold at
  // least 2n + 2 limbs; `out` may not alias the inputs.
  void mul_raw(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out, std::uint64_t* scratch) const;
  void sqr_raw(const std::uint64_t* a, std::uint64_t* out,
               std::uint64_t* scratch) const;
  /// Montgomery-reduce the 2n-limb product in `wide` (plus carry limb
  /// wide[2n]) into `out`.
  void redc_raw(std::uint64_t* wide, std::uint64_t* out) const;

  BigUInt m_;
  std::vector<std::uint64_t> mod_;  // m, exactly n limbs
  std::size_t n_ = 0;
  std::uint64_t inv64_ = 0;         // -m^-1 mod 2^64
  std::vector<std::uint64_t> one_;  // R mod m, n limbs
  std::vector<std::uint64_t> rr_;   // R^2 mod m, n limbs
};

}  // namespace e2e::crypto
