// Microbenchmarks for the crypto substrate: the per-hop cost of the
// signalling protocol is dominated by sign/verify over canonical encodings,
// so these numbers anchor the protocol-level benches.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_cache.hpp"

namespace {

using namespace e2e;
using namespace e2e::crypto;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data(static_cast<std::size_t>(state.range(0)));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = to_bytes("session-integrity-key");
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

const KeyPair& bench_keys(unsigned bits) {
  static KeyPair kp256 = [] {
    Rng rng(10);
    return generate_keypair(rng, 256);
  }();
  static KeyPair kp512 = [] {
    Rng rng(11);
    return generate_keypair(rng, 512);
  }();
  static KeyPair kp1024 = [] {
    Rng rng(12);
    return generate_keypair(rng, 1024);
  }();
  if (bits == 256) return kp256;
  return bits == 512 ? kp512 : kp1024;
}

void BM_RsaSign(benchmark::State& state) {
  const KeyPair& kp = bench_keys(static_cast<unsigned>(state.range(0)));
  const Bytes msg = to_bytes("RAR: 10Mb/s A->C, user=Alice");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(256)->Arg(512)->Arg(1024);

/// Signing without the CRT parameters: the plain s = H^d mod n path.
void BM_RsaSignPlain(benchmark::State& state) {
  const KeyPair& kp = bench_keys(static_cast<unsigned>(state.range(0)));
  PrivateKey plain{kp.priv.n, kp.priv.d, std::nullopt};
  const Bytes msg = to_bytes("RAR: 10Mb/s A->C, user=Alice");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sign(plain, msg));
  }
}
BENCHMARK(BM_RsaSignPlain)->Arg(256)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
  const KeyPair& kp = bench_keys(static_cast<unsigned>(state.range(0)));
  const Bytes msg = to_bytes("RAR: 10Mb/s A->C, user=Alice");
  const Bytes sig = sign(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(256)->Arg(512)->Arg(1024);

/// Verification with the memo cache disabled: every iteration pays the
/// real modexp, isolating the Montgomery kernel from the VerifyCache.
void BM_RsaVerifyUncached(benchmark::State& state) {
  const KeyPair& kp = bench_keys(static_cast<unsigned>(state.range(0)));
  const Bytes msg = to_bytes("RAR: 10Mb/s A->C, user=Alice");
  const Bytes sig = sign(kp.priv, msg);
  VerifyCache::global().set_capacity(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(kp.pub, msg, sig));
  }
  VerifyCache::global().set_capacity(VerifyCache::kDefaultCapacity);
}
BENCHMARK(BM_RsaVerifyUncached)->Arg(256)->Arg(512)->Arg(1024);

// --- modexp kernels, head to head at RSA private-exponent shapes ----------

struct ModexpFixture {
  BigUInt base;
  BigUInt exp;
  BigUInt mod;
};

ModexpFixture modexp_fixture(unsigned bits) {
  Rng rng(42 + bits);
  BigUInt mod = BigUInt::random_bits(rng, bits);
  if (!mod.is_odd()) mod = mod + BigUInt(1);
  return ModexpFixture{BigUInt::random_below(rng, mod),
                       BigUInt::random_bits(rng, bits), mod};
}

/// The pre-Montgomery square-and-multiply oracle — this is what the
/// pre-fast-path BM_RsaSign cost per modexp; the ≥5× acceptance bar is
/// measured against it.
void BM_ModexpReference(benchmark::State& state) {
  const ModexpFixture fx = modexp_fixture(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.base.modexp_reference(fx.exp, fx.mod));
  }
}
BENCHMARK(BM_ModexpReference)->Arg(512)->Arg(1024);

/// 128 bits is one CRT half of a world (256-bit) key, and 256 bits its
/// modulus: the fixed-width kernel's 2- and 4-limb shapes.
void BM_ModexpMontgomery(benchmark::State& state) {
  const ModexpFixture fx = modexp_fixture(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.base.modexp(fx.exp, fx.mod));
  }
}
BENCHMARK(BM_ModexpMontgomery)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

/// One Montgomery-domain multiplication (the CIOS kernel itself).
void BM_MontgomeryMul(benchmark::State& state) {
  const ModexpFixture fx = modexp_fixture(static_cast<unsigned>(state.range(0)));
  const MontgomeryContext ctx(fx.mod);
  const BigUInt a = ctx.to_mont(fx.base);
  const BigUInt b = ctx.to_mont(fx.exp % fx.mod);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mul(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul)->Arg(512)->Arg(1024);

/// One Montgomery-domain squaring (the dedicated half-products path).
void BM_MontgomerySqr(benchmark::State& state) {
  const ModexpFixture fx = modexp_fixture(static_cast<unsigned>(state.range(0)));
  const MontgomeryContext ctx(fx.mod);
  const BigUInt a = ctx.to_mont(fx.base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.sqr(a));
  }
}
BENCHMARK(BM_MontgomerySqr)->Arg(512)->Arg(1024);

void BM_KeyGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        generate_keypair(rng, static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_KeyGeneration)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
