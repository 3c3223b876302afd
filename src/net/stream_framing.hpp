// Length-prefixed framing for the stream transports.
//
// A TCP or UNIX-domain socket is a byte stream: one write() can arrive
// torn across many read()s, and many writes can coalesce into one. Every
// protocol message the daemon speaks (handshake messages, sealed records,
// RPC requests) is therefore wrapped in the simplest possible frame:
//
//   +----------------+----------------------+
//   | length (u32be) | payload (length bytes)|
//   +----------------+----------------------+
//
// The length covers the payload only and is capped at kMaxFramePayload
// (1 MiB), the largest message any peer accepts. A length above the cap
// is a framing error: the decoder latches kBadMessage and the connection
// must be dropped, because a desynchronized stream can never recover (the
// "length" being parsed is protocol bytes misread as a header).
//
// FrameDecoder is incremental: feed() accepts whatever the socket
// produced — a single byte, half a frame, three frames and a torn fourth —
// and next() hands back complete payloads in order. It never blocks and
// never copies more than once. tests/net_framing_test.cpp drives it with
// torn reads, coalesced writes and a seeded boundary fuzzer.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace e2e::net {

/// Bytes of the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Largest payload a frame may carry.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;  // 1 MiB

/// Wrap `payload` in a length-prefixed frame. Precondition: payload fits
/// the cap (callers go through Status-returning send paths that check).
Bytes encode_frame(BytesView payload);

/// Incremental frame parser over an arbitrary chunking of the stream.
class FrameDecoder {
 public:
  /// Consume one chunk as read off the socket. Returns kBadMessage when
  /// the stream announces a payload above the cap; after that the decoder
  /// is poisoned (the stream cannot be resynchronized) and every further
  /// feed() fails the same way.
  Status feed(BytesView chunk);

  /// Pop the next complete payload, arrival order; nullopt when no full
  /// frame is buffered.
  std::optional<Bytes> next();

  /// True when a partial frame (header or payload) is buffered — a peer
  /// that disconnects now tore a message in half.
  bool mid_frame() const { return !buffer_.empty(); }

  bool poisoned() const { return !poison_.ok(); }

  /// Complete frames decoded over the decoder's lifetime.
  std::uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  Bytes buffer_;             // unparsed tail: partial header or payload
  std::deque<Bytes> ready_;  // complete payloads, arrival order
  Status poison_;
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace e2e::net
