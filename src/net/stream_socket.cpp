#include "net/stream_socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/instruments.hpp"

namespace e2e::net {

namespace {

Error errno_error(ErrorCode code, const std::string& what) {
  return make_error(code, what + ": " + std::strerror(errno));
}

Status fill_sockaddr_in(const Endpoint& endpoint, sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorCode::kInvalidArgument,
                      "not an IPv4 address: " + endpoint.host);
  }
  return Status::ok_status();
}

Status fill_sockaddr_un(const Endpoint& endpoint, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (endpoint.path.size() >= sizeof(addr.sun_path)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unix socket path too long: " + endpoint.path);
  }
  std::memcpy(addr.sun_path, endpoint.path.c_str(), endpoint.path.size());
  return Status::ok_status();
}

}  // namespace

Result<Endpoint> Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    Endpoint e;
    e.kind = Kind::kUnix;
    e.path = spec.substr(5);
    if (e.path.empty()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "empty unix socket path: " + spec);
    }
    return e;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "expected tcp:HOST:PORT, got " + spec);
    }
    Endpoint e;
    e.kind = Kind::kTcp;
    e.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    unsigned long port = 0;
    try {
      std::size_t used = 0;
      port = std::stoul(port_text, &used);
      if (used != port_text.size()) throw std::invalid_argument(port_text);
    } catch (const std::exception&) {
      return make_error(ErrorCode::kInvalidArgument,
                        "bad tcp port: " + port_text);
    }
    if (port > 65535) {
      return make_error(ErrorCode::kInvalidArgument,
                        "tcp port out of range: " + port_text);
    }
    e.port = static_cast<std::uint16_t>(port);
    return e;
  }
  return make_error(ErrorCode::kInvalidArgument,
                    "endpoint must start with tcp: or unix:, got " + spec);
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

StreamSocket::~StreamSocket() { close(); }

StreamSocket::StreamSocket(StreamSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)) {}

StreamSocket& StreamSocket::operator=(StreamSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
  }
  return *this;
}

void StreamSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<StreamSocket> StreamSocket::connect(const Endpoint& endpoint) {
  const int domain = endpoint.kind == Endpoint::Kind::kTcp ? AF_INET : AF_UNIX;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return errno_error(ErrorCode::kInternal, "socket()");
  int rc = -1;
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    sockaddr_in addr{};
    auto filled = fill_sockaddr_in(endpoint, addr);
    if (!filled.ok()) {
      ::close(fd);
      return filled.error();
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_un addr{};
    auto filled = fill_sockaddr_un(endpoint, addr);
    if (!filled.ok()) {
      ::close(fd);
      return filled.error();
    }
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    const Error e =
        errno_error(ErrorCode::kUnavailable,
                    "connect(" + endpoint.to_string() + ")");
    ::close(fd);
    return e;
  }
  return StreamSocket(fd);
}

Status StreamSocket::send_raw(BytesView bytes) {
  if (fd_ < 0) {
    return make_error(ErrorCode::kInvalidArgument, "socket is closed");
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error(ErrorCode::kUnavailable, "send()");
    }
    sent += static_cast<std::size_t>(n);
  }
  static obs::Counter& bytes_tx = obs::MetricsRegistry::global().counter(
      obs::kNetStreamBytesTotal, {{"dir", "tx"}});
  bytes_tx.increment(bytes.size());
  return Status::ok_status();
}

Status StreamSocket::send_frame(BytesView payload) {
  return send_encoded_frame(encode_frame(payload));
}

Status StreamSocket::send_encoded_frame(BytesView frame) {
  if (frame.size() > kFrameHeaderBytes + kMaxFramePayload) {
    return make_error(ErrorCode::kInvalidArgument,
                      "payload exceeds frame cap",
                      std::to_string(frame.size() - kFrameHeaderBytes));
  }
  auto sent = send_raw(frame);
  if (sent.ok()) {
    static obs::Counter& frames_tx = obs::MetricsRegistry::global().counter(
        obs::kNetFramesTotal, {{"dir", "tx"}});
    frames_tx.increment();
  }
  return sent;
}

Result<BytesView> StreamSocket::recv_frame(
    std::chrono::milliseconds deadline) {
  if (fd_ < 0) {
    return make_error(ErrorCode::kInvalidArgument, "socket is closed");
  }
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (auto payload = decoder_.next_view()) {
      static obs::Counter& frames_rx = obs::MetricsRegistry::global().counter(
          obs::kNetFramesTotal, {{"dir", "rx"}});
      frames_rx.increment();
      return *payload;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    const auto remaining = deadline - elapsed;
    if (remaining <= std::chrono::milliseconds::zero()) {
      return make_error(ErrorCode::kTimeout,
                        "no frame within " + std::to_string(deadline.count()) +
                            "ms");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return errno_error(ErrorCode::kInternal, "poll()");
    }
    if (ready == 0) {
      return make_error(ErrorCode::kTimeout,
                        "no frame within " + std::to_string(deadline.count()) +
                            "ms");
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error(ErrorCode::kUnavailable, "recv()");
    }
    if (n == 0) {
      return make_error(ErrorCode::kUnavailable,
                        decoder_.mid_frame()
                            ? "peer disconnected mid-message"
                            : "peer disconnected");
    }
    static obs::Counter& bytes_rx = obs::MetricsRegistry::global().counter(
        obs::kNetStreamBytesTotal, {{"dir", "rx"}});
    bytes_rx.increment(static_cast<std::size_t>(n));
    auto fed = decoder_.feed(
        BytesView(chunk, static_cast<std::size_t>(n)));
    if (!fed.ok()) return fed.error();
  }
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint_.path.c_str());
    }
  }
}

Result<Listener> Listener::listen(const Endpoint& endpoint, int backlog) {
  const int domain = endpoint.kind == Endpoint::Kind::kTcp ? AF_INET : AF_UNIX;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return errno_error(ErrorCode::kInternal, "socket()");
  Listener listener;
  listener.fd_ = fd;
  listener.endpoint_ = endpoint;
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    auto filled = fill_sockaddr_in(endpoint, addr);
    if (!filled.ok()) return filled.error();
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_error(ErrorCode::kUnavailable,
                         "bind(" + endpoint.to_string() + ")");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      listener.endpoint_.port = ntohs(addr.sin_port);
    }
  } else {
    ::unlink(endpoint.path.c_str());  // stale socket from a crashed daemon
    sockaddr_un addr{};
    auto filled = fill_sockaddr_un(endpoint, addr);
    if (!filled.ok()) return filled.error();
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return errno_error(ErrorCode::kUnavailable,
                         "bind(" + endpoint.to_string() + ")");
    }
  }
  if (::listen(fd, backlog) != 0) {
    return errno_error(ErrorCode::kUnavailable,
                       "listen(" + endpoint.to_string() + ")");
  }
  return listener;
}

Result<StreamSocket> Listener::accept() {
  if (fd_ < 0) {
    return make_error(ErrorCode::kInvalidArgument, "listener is closed");
  }
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return StreamSocket(fd);
    if (errno == EINTR) continue;
    return errno_error(ErrorCode::kUnavailable, "accept()");
  }
}

}  // namespace e2e::net
