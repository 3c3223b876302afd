// Stream-framing robustness suite (ISSUE 7, satellite 2).
//
// Length-framed byte streams must survive everything a real socket does to
// them: reads torn at arbitrary byte boundaries, multiple messages
// coalesced into one read, hostile length headers, peers that vanish
// mid-message, and handshakes cut off half way. The seeded fuzzer drives
// random frame sequences through random chunkings; tier1 runs this binary
// under the ASan/UBSan preset, so any buffer-edge mistake in the decoder
// is an immediate failure.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "crypto/ca.hpp"
#include "net/stream_framing.hpp"
#include "net/stream_socket.hpp"
#include "sig/channel.hpp"

namespace e2e::net {
namespace {

Bytes pattern_payload(std::size_t n, std::uint8_t seed = 0x42) {
  Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(seed + i);
  }
  return payload;
}

TEST(Framing, EncodeDecodeRoundTrip) {
  const Bytes payload = pattern_payload(100);
  const Bytes wire = encode_frame(payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire).ok());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Framing, EmptyPayloadIsAValidFrame) {
  const Bytes wire = encode_frame(Bytes{});
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire).ok());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(Framing, TornOneByteDripReassembles) {
  const Bytes payload = pattern_payload(257);
  const Bytes wire = encode_frame(payload);
  FrameDecoder decoder;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    // No frame may surface before the last byte lands.
    EXPECT_FALSE(decoder.next().has_value());
    const Bytes drip{wire[i]};
    ASSERT_TRUE(decoder.feed(drip).ok());
    if (i + 1 < wire.size()) {
      // A partially-buffered header or payload counts as mid-frame — a
      // peer disconnecting here tore the message in half.
      EXPECT_TRUE(decoder.mid_frame());
    }
  }
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Framing, CoalescedMessagesAllSurface) {
  Bytes wire;
  std::vector<Bytes> payloads;
  for (std::size_t n : {0u, 1u, 3u, 200u, 1000u}) {
    payloads.push_back(pattern_payload(n, static_cast<std::uint8_t>(n)));
    const Bytes one = encode_frame(payloads.back());
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire).ok());
  for (const Bytes& expected : payloads) {
    auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, expected);
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.frames_decoded(), payloads.size());
}

TEST(Framing, OversizedLengthHeaderPoisonsTheStream) {
  Bytes wire;
  const std::uint32_t huge =
      static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  wire.push_back(static_cast<std::uint8_t>(huge >> 24));
  wire.push_back(static_cast<std::uint8_t>(huge >> 16));
  wire.push_back(static_cast<std::uint8_t>(huge >> 8));
  wire.push_back(static_cast<std::uint8_t>(huge));
  FrameDecoder decoder;
  auto fed = decoder.feed(wire);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.error().code, ErrorCode::kBadMessage);
  EXPECT_TRUE(decoder.poisoned());
  // A poisoned stream cannot resync: further feeds keep failing.
  ASSERT_FALSE(decoder.feed(encode_frame(Bytes{0x01})).ok());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Framing, MaxSizedFrameIsAccepted) {
  const Bytes payload(kMaxFramePayload, 0x7f);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(encode_frame(payload)).ok());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), kMaxFramePayload);
}

// Seeded fuzzer over frame boundaries: random payload sequences pushed
// through random chunk sizes (1 byte up to several frames at once) must
// come out byte-identical, in order, with the decoder never poisoned.
TEST(Framing, SeededBoundaryFuzzer) {
  Rng rng(0xf8a31);
  for (int round = 0; round < 20; ++round) {
    std::vector<Bytes> payloads;
    Bytes wire;
    const std::size_t count = 1 + rng.next_u64() % 40;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t size = rng.next_u64() % 2000;
      Bytes payload(size);
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      const Bytes one = encode_frame(payload);
      wire.insert(wire.end(), one.begin(), one.end());
      payloads.push_back(std::move(payload));
    }
    FrameDecoder decoder;
    std::vector<Bytes> decoded;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t chunk = 1 + rng.next_u64() % 700;
      const std::size_t end = std::min(pos + chunk, wire.size());
      ASSERT_TRUE(
          decoder
              .feed(BytesView(wire.data() + pos, end - pos))
              .ok());
      pos = end;
      while (auto frame = decoder.next_view()) {
        decoded.emplace_back(frame->begin(), frame->end());
      }
    }
    ASSERT_EQ(decoded.size(), payloads.size()) << "round " << round;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_EQ(decoded[i], payloads[i]) << "round " << round;
    }
    EXPECT_FALSE(decoder.poisoned());
    EXPECT_FALSE(decoder.mid_frame());
  }
}

// --- Real-socket edge cases ------------------------------------------------

struct SocketPair {
  Listener listener;
  StreamSocket client;
  StreamSocket server;

  SocketPair() {
    auto endpoint = Endpoint::parse("tcp:127.0.0.1:0");
    auto listening = Listener::listen(endpoint.value());
    EXPECT_TRUE(listening.ok());
    listener = std::move(listening.value());
    auto connected = StreamSocket::connect(listener.local_endpoint());
    EXPECT_TRUE(connected.ok());
    client = std::move(connected.value());
    auto accepted = listener.accept();
    EXPECT_TRUE(accepted.ok());
    server = std::move(accepted.value());
  }
};

TEST(StreamSocket, FrameRoundTripOverTcp) {
  SocketPair pair;
  const Bytes payload = pattern_payload(5000);
  ASSERT_TRUE(pair.client.send_frame(payload).ok());
  auto received = pair.server.recv_frame(std::chrono::milliseconds(2000));
  ASSERT_TRUE(received.ok()) << received.error().to_text();
  EXPECT_EQ(Bytes(received.value().begin(), received.value().end()), payload);
}

TEST(StreamSocket, MidMessageDisconnectIsAnError) {
  SocketPair pair;
  // Half a frame: a correct header promising 100 bytes, but only 10 sent
  // before the peer vanishes.
  const Bytes full = encode_frame(pattern_payload(100));
  const Bytes torn(full.begin(), full.begin() + kFrameHeaderBytes + 10);
  ASSERT_TRUE(pair.client.send_raw(torn).ok());
  pair.client.close();
  auto received = pair.server.recv_frame(std::chrono::milliseconds(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(received.error().message.find("mid-message"), std::string::npos);
}

TEST(StreamSocket, CleanEofIsUnavailableWithoutMidMessageDetail) {
  SocketPair pair;
  pair.client.close();
  auto received = pair.server.recv_frame(std::chrono::milliseconds(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(received.error().message.find("mid-message"), std::string::npos);
}

TEST(StreamSocket, SilentPeerTimesOut) {
  SocketPair pair;
  auto received = pair.server.recv_frame(std::chrono::milliseconds(100));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.error().code, ErrorCode::kTimeout);
}

TEST(StreamSocket, OversizedHeaderOverTcpIsBadMessage) {
  SocketPair pair;
  const Bytes hostile = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(pair.client.send_raw(hostile).ok());
  auto received = pair.server.recv_frame(std::chrono::milliseconds(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.error().code, ErrorCode::kBadMessage);
}

// A handshake message truncated by a disconnect surfaces as a Status from
// the channel layer — never an assert (ISSUE 7, satellite 4).
TEST(StreamSocket, TruncatedHandshakeMessageIsAStatus) {
  const TimeInterval validity{0, hours(1000)};
  Rng rng(31337);
  crypto::CertificateAuthority ca(
      crypto::DistinguishedName::make("CA", "D"), rng, validity, 256);
  auto keys = crypto::generate_keypair(rng, 256);
  auto cert = ca.issue(crypto::DistinguishedName::make("peer", "D"),
                       keys.pub, validity);
  sig::ChannelEndpoint endpoint{cert, keys.priv, nullptr, cert};
  sig::HandshakeInitiator initiator(endpoint, seconds(1), rng);
  const Bytes hello = initiator.client_hello();

  sig::HandshakeResponder responder(endpoint, seconds(1), rng);
  for (std::size_t cut = 0; cut < hello.size(); cut += 7) {
    sig::HandshakeResponder fresh(endpoint, seconds(1), rng);
    const Bytes truncated(hello.begin(), hello.begin() + cut);
    auto result = fresh.on_client_hello(truncated);
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
  // The untruncated message still works after all those failures.
  EXPECT_TRUE(responder.on_client_hello(hello).ok());
}

}  // namespace
}  // namespace e2e::net
