// Blocking stream sockets: endpoint parsing, listen/connect, framed IO.
//
// This is the client-facing half of the stream layer: the daemon's event
// loop (stream_server.hpp) never blocks, but clients — the bbd driver, the
// soak test's worker processes, the benchmarks — want plain call/return
// semantics. StreamSocket wraps a connected fd with send_frame/recv_frame
// that handle the realities of byte streams: short writes are retried
// until the whole frame is out, torn reads are accumulated through a
// FrameDecoder until a full payload exists, and recv deadlines are
// enforced with poll() so a silent peer surfaces as kTimeout instead of a
// hang.
//
// Endpoints are spelled as strings so every tool and test shares one
// parser:   tcp:HOST:PORT    (e.g. tcp:127.0.0.1:7700, port 0 = ephemeral)
//           unix:/PATH       (filesystem UNIX-domain socket)
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/stream_framing.hpp"

namespace e2e::net {

struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;         // tcp only
  std::uint16_t port = 0;   // tcp only; 0 asks the kernel for a free port
  std::string path;         // unix only

  /// Parse "tcp:HOST:PORT" or "unix:/PATH".
  static Result<Endpoint> parse(const std::string& spec);
  std::string to_string() const;

  const char* transport_label() const {
    return kind == Kind::kTcp ? "tcp" : "unix";
  }
};

/// A connected stream socket (client side, or handed out by Listener).
/// Move-only; the destructor closes the fd.
class StreamSocket {
 public:
  StreamSocket() = default;
  explicit StreamSocket(int fd) : fd_(fd) {}
  ~StreamSocket();
  StreamSocket(StreamSocket&& other) noexcept;
  StreamSocket& operator=(StreamSocket&& other) noexcept;
  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  /// Connect to `endpoint` (blocking). kUnavailable on refusal.
  static Result<StreamSocket> connect(const Endpoint& endpoint);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write one complete frame, retrying short writes until done.
  /// kInvalidArgument over the frame cap; kUnavailable when the peer hung
  /// up mid-write.
  Status send_frame(BytesView payload);

  /// Write one frame the caller already encoded, length prefix included
  /// (sig::Session::seal_frame), as send_frame() writes its own.
  Status send_encoded_frame(BytesView frame);

  /// Read the next complete frame, accumulating torn reads. kTimeout when
  /// `deadline` passes first, kUnavailable on EOF/reset (with mid-frame
  /// detail when the peer tore a message in half), kBadMessage on a
  /// framing error. The payload is a view into the socket's receive
  /// buffer, valid until the next recv_frame().
  Result<BytesView> recv_frame(std::chrono::milliseconds deadline);

  /// Send raw bytes as-is (tests feeding deliberately broken streams).
  Status send_raw(BytesView bytes);

  void close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// A listening socket. Move-only; closes (and unlinks, for UNIX paths) on
/// destruction.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen. For tcp:...:0 the chosen port is reflected in
  /// local_endpoint(). An existing UNIX socket path is unlinked first
  /// (stale socket from a crashed daemon).
  static Result<Listener> listen(const Endpoint& endpoint, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The bound address, with the kernel-assigned port filled in.
  const Endpoint& local_endpoint() const { return endpoint_; }

  /// Accept one connection (blocking).
  Result<StreamSocket> accept();

  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

}  // namespace e2e::net
