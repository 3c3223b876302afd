#include "crypto/rsa.hpp"

#include "common/tlv.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/verify_cache.hpp"
#include "obs/instruments.hpp"

namespace e2e::crypto {

namespace {
// TLV tags local to key encoding.
constexpr tlv::Tag kTagModulus = 0x0101;
constexpr tlv::Tag kTagExponent = 0x0102;
// CRT extension of the private-key encoding. Readers that predate these
// tags (the legacy two-field decoder) never see them because encode() only
// appends them after modulus+exponent, and decode() treats them as an
// optional trailer.
constexpr tlv::Tag kTagPrimeP = 0x0103;
constexpr tlv::Tag kTagPrimeQ = 0x0104;
constexpr tlv::Tag kTagExpDp = 0x0105;
constexpr tlv::Tag kTagExpDq = 0x0106;
constexpr tlv::Tag kTagQInv = 0x0107;
}  // namespace

Bytes PublicKey::encode() const {
  tlv::Writer w;
  w.put_bytes(kTagModulus, n.to_bytes());
  w.put_bytes(kTagExponent, e.to_bytes());
  return w.take();
}

Result<PublicKey> PublicKey::decode(BytesView data) {
  tlv::Reader r(data);
  auto n_bytes = r.read_bytes(kTagModulus);
  if (!n_bytes) return n_bytes.error();
  auto e_bytes = r.read_bytes(kTagExponent);
  if (!e_bytes) return e_bytes.error();
  if (!r.at_end()) {
    return make_error(ErrorCode::kBadMessage, "PublicKey: trailing bytes");
  }
  return PublicKey{BigUInt::from_bytes(*n_bytes), BigUInt::from_bytes(*e_bytes)};
}

Digest PublicKey::fingerprint() const { return sha256(encode()); }

Bytes PrivateKey::encode() const {
  tlv::Writer w;
  w.put_bytes(kTagModulus, n.to_bytes());
  w.put_bytes(kTagExponent, d.to_bytes());
  if (crt) {
    w.put_bytes(kTagPrimeP, crt->p.to_bytes());
    w.put_bytes(kTagPrimeQ, crt->q.to_bytes());
    w.put_bytes(kTagExpDp, crt->dp.to_bytes());
    w.put_bytes(kTagExpDq, crt->dq.to_bytes());
    w.put_bytes(kTagQInv, crt->qinv.to_bytes());
  }
  return w.take();
}

Result<PrivateKey> PrivateKey::decode(BytesView data) {
  tlv::Reader r(data);
  auto n_bytes = r.read_bytes(kTagModulus);
  if (!n_bytes) return n_bytes.error();
  auto d_bytes = r.read_bytes(kTagExponent);
  if (!d_bytes) return d_bytes.error();
  PrivateKey key{BigUInt::from_bytes(*n_bytes), BigUInt::from_bytes(*d_bytes),
                 std::nullopt};
  if (r.at_end()) return key;  // legacy two-field encoding
  auto p_bytes = r.read_bytes(kTagPrimeP);
  if (!p_bytes) return p_bytes.error();
  auto q_bytes = r.read_bytes(kTagPrimeQ);
  if (!q_bytes) return q_bytes.error();
  auto dp_bytes = r.read_bytes(kTagExpDp);
  if (!dp_bytes) return dp_bytes.error();
  auto dq_bytes = r.read_bytes(kTagExpDq);
  if (!dq_bytes) return dq_bytes.error();
  auto qinv_bytes = r.read_bytes(kTagQInv);
  if (!qinv_bytes) return qinv_bytes.error();
  key.crt = CrtParams{BigUInt::from_bytes(*p_bytes),
                      BigUInt::from_bytes(*q_bytes),
                      BigUInt::from_bytes(*dp_bytes),
                      BigUInt::from_bytes(*dq_bytes),
                      BigUInt::from_bytes(*qinv_bytes)};
  return key;
}

KeyPair generate_keypair(Rng& rng, unsigned bits) {
  if (bits < 128) bits = 128;
  const BigUInt e(65537);
  for (;;) {
    const BigUInt p = BigUInt::random_prime(rng, bits / 2);
    const BigUInt q = BigUInt::random_prime(rng, bits - bits / 2);
    if (p == q) continue;
    const BigUInt n = p * q;
    const BigUInt one(1);
    const BigUInt phi = (p - one) * (q - one);
    if (BigUInt::gcd(e, phi) != one) continue;
    const BigUInt d = e.modinv(phi);
    if (d.is_zero()) continue;
    // CRT precomputation is pure arithmetic on p/q/d — it consumes no RNG,
    // so keypairs stay bit-identical to the pre-CRT generator for a given
    // seed.
    CrtParams crt{p, q, d % (p - one), d % (q - one), q.modinv(p)};
    return KeyPair{PublicKey{n, e}, PrivateKey{n, d, std::move(crt)}};
  }
}

namespace {
BigUInt digest_to_int(const Digest& digest, const BigUInt& n) {
  BigUInt h = BigUInt::from_bytes(BytesView(digest.data(), digest.size()));
  // A 256-bit key (ChainWorld's default) has n < 2^256, so a digest is
  // often >= n: the reduction is part of the scheme, not a safeguard.
  return h % n;
}
}  // namespace

namespace {
/// Garner recombination: s = h^d mod n from the two half-size residues.
/// Algebraically equal to h^d mod n, so signatures are byte-identical to
/// the plain path (pinned by the differential test in crypto_rsa_test).
BigUInt sign_crt(const CrtParams& crt, const BigUInt& h) {
  const auto [m1, m2] =
      MontgomeryContext::modexp_pair(h, crt.dp, crt.p, crt.dq, crt.q);
  const BigUInt m2p = m2 % crt.p;
  const BigUInt diff = m1 >= m2p ? m1 - m2p : m1 + crt.p - m2p;
  const BigUInt t = (diff * crt.qinv) % crt.p;
  return m2 + t * crt.q;
}
}  // namespace

Bytes sign(const PrivateKey& key, BytesView message) {
  auto& registry = obs::MetricsRegistry::global();
  const BigUInt h = digest_to_int(sha256(message), key.n);
  BigUInt s;
  if (key.crt) {
    static obs::Counter& crt_count =
        registry.counter(obs::kCryptoSignsTotal, {{"path", "crt"}});
    crt_count.increment();
    s = sign_crt(*key.crt, h);
  } else {
    static obs::Counter& plain_count =
        registry.counter(obs::kCryptoSignsTotal, {{"path", "plain"}});
    plain_count.increment();
    s = h.modexp(key.d, key.n);
  }
  // Fixed-width output so signatures are canonical for a given key size.
  return s.to_bytes((key.n.bit_length() + 7) / 8);
}

bool verify(const PublicKey& key, BytesView message, BytesView signature) {
  auto& registry = obs::MetricsRegistry::global();
  // Montgomery precondition guard: an even or <= 1 modulus (or a zero
  // exponent) can never come from generate_keypair, so reject before any
  // arithmetic rather than falling back to a slow kernel.
  if (key.n.is_zero() || key.e.is_zero() || !key.n.is_odd() ||
      key.n == BigUInt(1)) {
    static obs::Counter& bad_key =
        registry.counter(obs::kCryptoBadKeyRejectsTotal, {});
    bad_key.increment();
    return false;
  }
  const BigUInt s = BigUInt::from_bytes(signature);
  if (s >= key.n) {
    static obs::Counter& bad_sig =
        registry.counter(obs::kCryptoBadKeyRejectsTotal, {});
    bad_sig.increment();
    return false;
  }

  // Memoize on the full (key, message, signature) triple so any mutation
  // of any component misses. The message digest in the key is also the
  // one a miss checks the signature against.
  Sha256 hasher;
  hasher.update(key.encode());
  const Digest msg_digest = sha256(message);
  hasher.update(BytesView(msg_digest.data(), msg_digest.size()));
  hasher.update(signature);
  const Digest cache_key = hasher.finish();

  VerifyCache& cache = VerifyCache::global();
  if (auto cached = cache.lookup(cache_key)) return *cached;

  const BigUInt recovered = s.modexp(key.e, key.n);
  const bool valid = recovered == digest_to_int(msg_digest, key.n);
  cache.insert(cache_key, valid);
  return valid;
}

}  // namespace e2e::crypto
