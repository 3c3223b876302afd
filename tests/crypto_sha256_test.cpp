#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.hpp"

namespace e2e::crypto {
namespace {

std::string hash_hex(std::string_view input) {
  const Digest d = sha256(to_bytes(input));
  return hex_encode(BytesView(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const Digest d = h.finish();
  EXPECT_EQ(hex_encode(BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exactly one block before padding.
  const std::string input(64, 'x');
  Sha256 h;
  h.update(to_bytes(input));
  const Digest whole = h.finish();

  // Same input fed byte by byte must agree.
  Sha256 h2;
  for (char c : input) {
    const auto b = static_cast<std::uint8_t>(c);
    h2.update(BytesView(&b, 1));
  }
  const Digest incremental = h2.finish();
  EXPECT_EQ(whole, incremental);
}

TEST(Sha256, ChunkingInvariance) {
  const Bytes data = to_bytes(
      "the bandwidth broker configures the edge routers of a single "
      "administrative network domain and provides admission control");
  const Digest whole = sha256(data);
  for (std::size_t split = 1; split < data.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(data).subspan(0, split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(hash_hex("reservation-1"), hash_hex("reservation-2"));
}

TEST(Sha256, LengthExtensionSensitivity) {
  // Appending a byte (even a NUL) must change the digest.
  const std::string with_nul{"msg\x00", 4};
  EXPECT_NE(hash_hex("msg"), hash_hex(with_nul));
}

TEST(Sha256, DigestBytesMatchesArray) {
  const Digest d = sha256(to_bytes("x"));
  const Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), kSha256DigestSize);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

// Differential oracle: the one-shot and incremental hashers, on whatever
// kernel this CPU selected, against the portable scalar kernel alone.
TEST(Sha256, AcceleratedMatchesReference) {
  std::printf("[ info ] sha256 kernel: %s%s\n", sha256_kernel(),
              std::string(sha256_kernel()) == "portable"
                  ? " (no SHA extensions: the portable path is compared "
                    "with itself)"
                  : "");
  Rng rng(20010807);
  Bytes data(1100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());

  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView input = BytesView(data).subspan(0, len);
    const Digest expected = sha256_reference(input);
    ASSERT_EQ(sha256(input), expected) << "one-shot, length " << len;

    // A seeded random chunking of the same bytes.
    Sha256 h;
    std::size_t offset = 0;
    while (offset < len) {
      const std::size_t chunk = std::min<std::size_t>(
          len - offset, 1 + rng.next_u64() % 150);
      h.update(input.subspan(offset, chunk));
      offset += chunk;
    }
    ASSERT_EQ(h.finish(), expected) << "chunked, length " << len;
  }

  Bytes big(1 << 20);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_EQ(sha256(big), sha256_reference(big)) << "1 MiB";
}

// Parameterized sweep over message lengths crossing padding boundaries
// (55/56/57 and 63/64/65 are the classic edge cases).
class Sha256PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256PaddingBoundary, IncrementalMatchesOneShot) {
  const std::size_t len = GetParam();
  Bytes data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const Digest whole = sha256(data);
  Sha256 h;
  // Feed in two uneven pieces.
  const std::size_t cut = len / 3;
  h.update(BytesView(data).subspan(0, cut));
  h.update(BytesView(data).subspan(cut));
  EXPECT_EQ(h.finish(), whole);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256PaddingBoundary,
                         ::testing::Values(1, 54, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129, 1000));

}  // namespace
}  // namespace e2e::crypto
