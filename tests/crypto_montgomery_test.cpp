// Differential tests for the Montgomery fast path: every result is pinned
// against BigUInt::modexp_reference (the pre-Montgomery square-and-multiply
// oracle), across random operands, every limb count the kernel dispatch
// distinguishes, the lockstep CRT pair and the edge cases the kernel special-
// cases (base >= m, exp 0/1, single-limb moduli).
#include "crypto/montgomery.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"
#include "crypto/biguint.hpp"
#include "obs/instruments.hpp"

namespace e2e::crypto {
namespace {

BigUInt random_odd(Rng& rng, unsigned bits) {
  BigUInt m = BigUInt::random_bits(rng, bits);
  if (!m.is_odd()) m = m + BigUInt(1);
  return m;
}

TEST(Montgomery, MatchesReferenceAcrossRandomOddModuli) {
  Rng rng(20010801);
  for (unsigned bits : {16u, 63u, 64u, 65u, 128u, 257u, 512u, 1024u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt m = random_odd(rng, bits);
      if (m == BigUInt(1)) continue;
      const BigUInt base = BigUInt::random_below(rng, m);
      const BigUInt exp = BigUInt::random_bits(rng, bits);
      EXPECT_EQ(base.modexp(exp, m), base.modexp_reference(exp, m))
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

TEST(Montgomery, BaseLargerThanModulusReduces) {
  Rng rng(7);
  const BigUInt m = random_odd(rng, 256);
  const BigUInt base = m * BigUInt(12345) + BigUInt(678);
  const BigUInt exp = BigUInt::random_bits(rng, 200);
  EXPECT_EQ(base.modexp(exp, m), base.modexp_reference(exp, m));
}

TEST(Montgomery, ExponentZeroAndOne) {
  Rng rng(8);
  const BigUInt m = random_odd(rng, 192);
  const BigUInt base = BigUInt::random_below(rng, m);
  EXPECT_EQ(base.modexp(BigUInt(0), m), BigUInt(1));
  EXPECT_EQ(base.modexp(BigUInt(1), m), base);
  // exp == 1 with base >= m must still reduce.
  const BigUInt big_base = base + m;
  EXPECT_EQ(big_base.modexp(BigUInt(1), m), base);
}

TEST(Montgomery, ZeroBase) {
  Rng rng(9);
  const BigUInt m = random_odd(rng, 128);
  EXPECT_EQ(BigUInt(0).modexp(BigUInt(12345), m), BigUInt(0));
  EXPECT_EQ(BigUInt(0).modexp(BigUInt(0), m), BigUInt(1));
}

TEST(Montgomery, SingleLimbModuli) {
  Rng rng(10);
  for (std::uint64_t m64 :
       {3ull, 5ull, 65537ull, 0x7fffffffull, 0xfffffffffffffff1ull}) {
    const BigUInt m(m64);
    for (int trial = 0; trial < 4; ++trial) {
      const BigUInt base = BigUInt::random_below(rng, m);
      const BigUInt exp = BigUInt::random_bits(rng, 80);
      EXPECT_EQ(base.modexp(exp, m), base.modexp_reference(exp, m)) << m64;
    }
  }
}

TEST(Montgomery, SmallPublicExponentShape) {
  // e = 65537 is the verify-side shape: a 17-bit exponent must not pay the
  // 4-bit-window table and must still be exact.
  Rng rng(11);
  const BigUInt m = random_odd(rng, 512);
  const BigUInt base = BigUInt::random_below(rng, m);
  const BigUInt e(65537);
  EXPECT_EQ(base.modexp(e, m), base.modexp_reference(e, m));
}

TEST(Montgomery, EvenModulusFallsBackToReference) {
  // BigUInt::modexp must still be correct for even moduli (reference
  // kernel), since MontgomeryContext cannot represent them.
  Rng rng(12);
  BigUInt m = BigUInt::random_bits(rng, 128);
  if (m.is_odd()) m = m + BigUInt(1);
  const BigUInt base = BigUInt::random_below(rng, m);
  const BigUInt exp = BigUInt::random_bits(rng, 100);
  EXPECT_EQ(base.modexp(exp, m), base.modexp_reference(exp, m));
}

TEST(Montgomery, ContextRejectsEvenOrTrivialModulus) {
  EXPECT_THROW(MontgomeryContext(BigUInt(0)), std::domain_error);
  EXPECT_THROW(MontgomeryContext(BigUInt(1)), std::domain_error);
  EXPECT_THROW(MontgomeryContext(BigUInt(4096)), std::domain_error);
  Rng rng(13);
  BigUInt even = BigUInt::random_bits(rng, 256);
  if (even.is_odd()) even = even + BigUInt(1);
  EXPECT_THROW(MontgomeryContext ctx(even), std::domain_error);
}

TEST(Montgomery, ModexpThrowsOnTrivialModulus) {
  EXPECT_THROW(BigUInt(5).modexp(BigUInt(3), BigUInt(0)), std::domain_error);
  EXPECT_THROW(BigUInt(5).modexp(BigUInt(3), BigUInt(1)), std::domain_error);
}

TEST(Montgomery, DomainRoundTripAndPrimitives) {
  Rng rng(14);
  const BigUInt m = random_odd(rng, 320);
  const MontgomeryContext ctx(m);
  const BigUInt a = BigUInt::random_below(rng, m);
  const BigUInt b = BigUInt::random_below(rng, m);

  // to_mont / from_mont are inverses.
  EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
  // mul in the Montgomery domain is ordinary modular multiplication.
  const BigUInt prod =
      ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
  EXPECT_EQ(prod, (a * b) % m);
  // The dedicated squaring path agrees with mul(a, a).
  EXPECT_EQ(ctx.sqr(ctx.to_mont(a)), ctx.mul(ctx.to_mont(a), ctx.to_mont(a)));
}

TEST(Montgomery, SharedContextIsReusedAndCounted) {
  Rng rng(15);
  const BigUInt m = random_odd(rng, 256);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& hits = registry.counter(obs::kCryptoMontCtxLookupsTotal,
                                        {{"result", "hit"}});
  const std::uint64_t hits_before = hits.value();
  const auto first = MontgomeryContext::shared(m);
  const auto second = MontgomeryContext::shared(m);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_GT(hits.value(), hits_before);
}

TEST(Montgomery, SharedCacheEvictsBeyondCapacity) {
  Rng rng(16);
  // Fill well past capacity with distinct moduli; every lookup must still
  // return a working context (eviction is LRU, correctness is unaffected).
  for (std::size_t i = 0; i < MontgomeryContext::kSharedCacheCapacity + 8;
       ++i) {
    const BigUInt m = random_odd(rng, 96);
    const auto ctx = MontgomeryContext::shared(m);
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->modulus(), m);
  }
}

// Fixed-width dispatch: every limb count the dispatcher distinguishes (the
// fixed widths and the generic kernel) plus one on each side, with exponent
// lengths at and around each window-width threshold, and the base edge
// cases, all against the reference oracle.
constexpr unsigned kLimbCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16};
constexpr unsigned kExpBits[] = {1, 2, 17, 23, 24, 127, 128, 129};

TEST(Montgomery, EveryLimbCountMatchesReference) {
  Rng rng(19);
  for (unsigned limbs : kLimbCounts) {
    const BigUInt m = random_odd(rng, 64 * limbs);
    ASSERT_EQ(m.limbs().size(), limbs);
    const MontgomeryContext ctx(m);
    for (unsigned ebits : kExpBits) {
      const BigUInt exp = BigUInt::random_bits(rng, ebits);
      const BigUInt base = BigUInt::random_below(rng, m);
      EXPECT_EQ(ctx.modexp(base, exp), base.modexp_reference(exp, m))
          << "limbs=" << limbs << " ebits=" << ebits;
      const BigUInt big_base = m * BigUInt::random_bits(rng, 70) + base;
      EXPECT_EQ(ctx.modexp(big_base, exp), big_base.modexp_reference(exp, m))
          << "base >= m, limbs=" << limbs << " ebits=" << ebits;
      EXPECT_EQ(ctx.modexp(m, exp), BigUInt(0)) << "base == m";
      EXPECT_EQ(ctx.modexp(BigUInt(0), exp), BigUInt(0)) << "base 0";
    }
    // A full-width exponent, and a modulus one bit short of the width.
    const BigUInt d = BigUInt::random_bits(rng, 64 * limbs);
    const BigUInt base = BigUInt::random_below(rng, m);
    EXPECT_EQ(ctx.modexp(base, d), base.modexp_reference(d, m)) << limbs;
    const BigUInt short_m = random_odd(rng, 64 * limbs - 1);
    EXPECT_EQ(base.modexp(d, short_m), base.modexp_reference(d, short_m))
        << limbs;
  }
}

TEST(Montgomery, PairMatchesReferenceAtEveryLimbCount) {
  Rng rng(20);
  for (unsigned limbs : kLimbCounts) {
    const BigUInt ma = random_odd(rng, 64 * limbs);
    const BigUInt mb = random_odd(rng, 64 * limbs - 3);
    for (unsigned ebits_a : kExpBits) {
      // Unequal exponent lengths: the shorter lane starts from R mod m.
      const unsigned ebits_b = ebits_a == 129 ? 2 : ebits_a + 37;
      const BigUInt exp_a = BigUInt::random_bits(rng, ebits_a);
      const BigUInt exp_b = BigUInt::random_bits(rng, ebits_b);
      const BigUInt base = BigUInt::random_bits(rng, 64 * limbs + 5);
      const auto [ra, rb] =
          MontgomeryContext::modexp_pair(base, exp_a, ma, exp_b, mb);
      EXPECT_EQ(ra, base.modexp_reference(exp_a, ma))
          << "limbs=" << limbs << " ebits=" << ebits_a << "/" << ebits_b;
      EXPECT_EQ(rb, base.modexp_reference(exp_b, mb))
          << "limbs=" << limbs << " ebits=" << ebits_a << "/" << ebits_b;
      const auto [swapped_b, swapped_a] =
          MontgomeryContext::modexp_pair(base, exp_b, mb, exp_a, ma);
      EXPECT_EQ(swapped_a, ra);
      EXPECT_EQ(swapped_b, rb);
    }
  }
}

TEST(Montgomery, PairEdgeLanes) {
  Rng rng(21);
  const BigUInt ma = random_odd(rng, 128);
  const BigUInt mb = random_odd(rng, 127);
  const BigUInt base = BigUInt::random_below(rng, mb);
  const BigUInt exp = BigUInt::random_bits(rng, 128);
  // Exponent 0 or 1 on one lane.
  for (const BigUInt& edge_exp : {BigUInt(0), BigUInt(1)}) {
    const auto [ra, rb] =
        MontgomeryContext::modexp_pair(base, edge_exp, ma, exp, mb);
    EXPECT_EQ(ra, base.modexp_reference(edge_exp, ma));
    EXPECT_EQ(rb, base.modexp_reference(exp, mb));
  }
  // A base that reduces to 0 on one lane only.
  const BigUInt multiple = mb * BigUInt(3);
  const auto [ra, rb] =
      MontgomeryContext::modexp_pair(multiple, exp, ma, exp, mb);
  EXPECT_EQ(ra, multiple.modexp_reference(exp, ma));
  EXPECT_EQ(rb, BigUInt(0));
}

TEST(Montgomery, PairUnequalLimbCountsFallsBack) {
  // Halves of different widths run as two single modexps, still exact.
  Rng rng(22);
  for (auto [bits_a, bits_b] : {std::pair{128u, 192u}, std::pair{256u, 128u},
                                std::pair{64u, 512u}}) {
    const BigUInt ma = random_odd(rng, bits_a);
    const BigUInt mb = random_odd(rng, bits_b);
    const BigUInt base = BigUInt::random_bits(rng, 600);
    const BigUInt exp_a = BigUInt::random_bits(rng, bits_a);
    const BigUInt exp_b = BigUInt::random_bits(rng, bits_b - 1);
    const auto [ra, rb] =
        MontgomeryContext::modexp_pair(base, exp_a, ma, exp_b, mb);
    EXPECT_EQ(ra, base.modexp_reference(exp_a, ma)) << bits_a;
    EXPECT_EQ(rb, base.modexp_reference(exp_b, mb)) << bits_b;
  }
}

TEST(Montgomery, PairHandlesEvenAndTrivialModuli) {
  Rng rng(23);
  const BigUInt base = BigUInt::random_bits(rng, 256);
  const BigUInt odd = random_odd(rng, 128);
  BigUInt even = BigUInt::random_bits(rng, 128);
  if (even.is_odd()) even = even + BigUInt(1);
  const BigUInt exp_a = BigUInt::random_bits(rng, 127);
  const BigUInt exp_b = BigUInt::random_bits(rng, 128);
  const auto [ra, rb] =
      MontgomeryContext::modexp_pair(base, exp_a, odd, exp_b, even);
  EXPECT_EQ(ra, base.modexp_reference(exp_a, odd));
  EXPECT_EQ(rb, base.modexp_reference(exp_b, even));
  EXPECT_THROW(
      MontgomeryContext::modexp_pair(base, exp_a, odd, exp_b, BigUInt(1)),
      std::domain_error);
}

// Property sweep at the RSA shapes the protocol actually uses.
class MontgomeryRsaShapes : public ::testing::TestWithParam<unsigned> {};

TEST_P(MontgomeryRsaShapes, SignVerifyShapesMatchReference) {
  const unsigned bits = GetParam();
  Rng rng(1000 + bits);
  const BigUInt m = random_odd(rng, bits);
  const BigUInt base = BigUInt::random_below(rng, m);
  // Private-exponent shape (full width) and public shape (65537).
  const BigUInt d = BigUInt::random_bits(rng, bits);
  EXPECT_EQ(base.modexp(d, m), base.modexp_reference(d, m));
  const BigUInt e(65537);
  EXPECT_EQ(base.modexp(e, m), base.modexp_reference(e, m));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, MontgomeryRsaShapes,
                         ::testing::Values(256u, 512u, 768u, 1024u));

}  // namespace
}  // namespace e2e::crypto
