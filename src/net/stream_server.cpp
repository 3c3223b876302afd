#include "net/stream_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "obs/instruments.hpp"

namespace e2e::net {

namespace {

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("fcntl(O_NONBLOCK): ") +
                          std::strerror(errno));
  }
  return Status::ok_status();
}

}  // namespace

StreamServer::StreamServer(Options options, Callbacks callbacks)
    : options_(std::move(options)), callbacks_(std::move(callbacks)) {}

StreamServer::~StreamServer() {
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  connections_.clear();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

Status StreamServer::watch(int op, int fd, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("epoll_ctl(): ") + std::strerror(errno));
  }
  return Status::ok_status();
}

void StreamServer::unwatch(int fd) {
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

Status StreamServer::start() {
  if (options_.listen_on.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "no listen endpoints");
  }
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("epoll_create1(): ") +
                          std::strerror(errno));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("pipe(): ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  if (auto s = set_nonblocking(wake_read_fd_); !s.ok()) return s;
  if (auto s = set_nonblocking(wake_write_fd_); !s.ok()) return s;
  if (auto s = watch(EPOLL_CTL_ADD, wake_read_fd_, false); !s.ok()) {
    return s;
  }

  // listeners_ holds listen_on's endpoints, then raw_listen_on's.
  std::vector<Endpoint> endpoints = options_.listen_on;
  endpoints.insert(endpoints.end(), options_.raw_listen_on.begin(),
                   options_.raw_listen_on.end());
  for (const Endpoint& endpoint : endpoints) {
    auto listener = Listener::listen(endpoint);
    if (!listener.ok()) return listener.error();
    if (auto s = set_nonblocking(listener.value().fd()); !s.ok()) return s;
    if (auto s = watch(EPOLL_CTL_ADD, listener.value().fd(), false);
        !s.ok()) {
      return s;
    }
    listener_by_fd_[listener.value().fd()] = listeners_.size();
    listeners_.push_back(std::move(listener.value()));
  }
  return Status::ok_status();
}

std::vector<Endpoint> StreamServer::bound_endpoints() const {
  std::vector<Endpoint> endpoints;
  endpoints.reserve(listeners_.size());
  for (const Listener& listener : listeners_) {
    endpoints.push_back(listener.local_endpoint());
  }
  return endpoints;
}

void StreamServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void StreamServer::shutdown_gracefully() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 'd';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

bool StreamServer::draining() const {
  return drain_requested_.load(std::memory_order_acquire);
}

void StreamServer::require_loop_thread(const char* api) const {
  if (!loop_live_.load(std::memory_order_acquire)) return;
  if (loop_thread_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return;
  }
  // Always-on (CI builds define NDEBUG, so assert() would never fire):
  // a foreign thread reaching the loop-owned write path is a data race
  // on every connection structure — abort before it corrupts anything.
  std::fprintf(stderr,
               "StreamServer::%s called off the loop thread\n",
               api);
  std::abort();
}

void StreamServer::drain_wake_pipe() {
  char sink[64];
  while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
  }
}

std::chrono::milliseconds StreamServer::idle_limit(
    const Connection& conn) const {
  return conn.raw ? kRawIdleTimeout : options_.idle_timeout;
}

int StreamServer::next_timeout_ms() const {
  const auto now = std::chrono::steady_clock::now();
  std::optional<std::chrono::milliseconds> soonest;
  for (const auto& [id, conn] : connections_) {
    const auto limit = idle_limit(conn);
    if (limit.count() <= 0) continue;
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
        now - conn.last_activity);
    soonest = std::min(soonest.value_or(limit), limit - idle);
  }
  if (!soonest) return -1;
  return static_cast<int>(std::max<std::int64_t>(soonest->count(), 0));
}

void StreamServer::sweep_idle() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<ConnId> expired;
  for (const auto& [id, conn] : connections_) {
    const auto limit = idle_limit(conn);
    if (limit.count() > 0 && now - conn.last_activity >= limit) {
      expired.push_back(id);
    }
  }
  for (ConnId id : expired) {
    obs::MetricsRegistry::global()
        .counter(obs::kNetIdleClosesTotal)
        .increment();
    close_connection(
        id, make_error(ErrorCode::kTimeout, "idle timeout exceeded"));
  }
}

void StreamServer::run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  loop_live_.store(true, std::memory_order_release);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      // Stop accepting framed connections; existing ones get to drain
      // their writes. Raw listeners keep answering until run() returns.
      for (std::size_t i = 0; i < options_.listen_on.size(); ++i) {
        unwatch(listeners_[i].fd());
        listener_by_fd_.erase(listeners_[i].fd());
        listeners_[i].close();
      }
    }
    if (draining_) {
      sweep_draining();
      if (connections_.size() == raw_connections_) break;
    }

    const int ready = ::epoll_wait(epfd_, events, kMaxEvents,
                                   next_timeout_ms());
    if (ready < 0 && errno != EINTR) break;
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t flags = events[i].events;
      const bool readable = (flags & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
      if (fd == wake_read_fd_) {
        drain_wake_pipe();
        continue;
      }
      if (listener_by_fd_.contains(fd)) {
        if (readable) accept_ready(fd);
        continue;
      }
      const auto it = conn_by_fd_.find(fd);
      if (it == conn_by_fd_.end()) continue;
      const ConnId id = it->second;
      if ((flags & EPOLLOUT) != 0) {
        if (!flush_writes(id)) continue;
      }
      if (readable) {
        read_ready(id);
      } else if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(
            id, make_error(ErrorCode::kUnavailable, "peer hung up"));
      }
    }
    sweep_idle();
  }
  loop_live_.store(false, std::memory_order_release);

  // Loop exit: close whatever is left (stop(), or an epoll_wait failure).
  std::vector<ConnId> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) remaining.push_back(id);
  for (ConnId id : remaining) close_connection(id, Status::ok_status());
  for (Listener& listener : listeners_) {
    if (listener.valid()) {
      unwatch(listener.fd());
      listener.close();
    }
  }
  listener_by_fd_.clear();
}

void StreamServer::sweep_draining() {
  std::vector<ConnId> idle_now;
  for (auto& [id, conn] : connections_) {
    if (conn.raw) continue;
    if (conn.write_queue.empty()) {
      idle_now.push_back(id);
    } else {
      conn.closing_after_flush = true;
    }
  }
  for (ConnId id : idle_now) close_connection(id, Status::ok_status());
}

void StreamServer::accept_ready(int listener_fd) {
  const std::size_t index = listener_by_fd_.at(listener_fd);
  Listener& listener = listeners_[index];
  const bool raw = index >= options_.listen_on.size();
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listener stays armed
    }
    if (!set_nonblocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    if (listener.local_endpoint().kind == Endpoint::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (!watch(EPOLL_CTL_ADD, fd, false).ok()) {
      ::close(fd);
      continue;
    }
    const ConnId id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.via = listener.local_endpoint();
    conn.raw = raw;
    conn.last_activity = std::chrono::steady_clock::now();
    connections_.emplace(id, std::move(conn));
    conn_by_fd_[fd] = id;
    if (raw) {
      ++raw_connections_;
    } else {
      obs::MetricsRegistry::global()
          .counter(
              obs::kNetConnsAcceptedTotal,
              {{"transport", listener.local_endpoint().transport_label()}})
          .increment();
      publish_conns_gauge();
    }
  }
}

void StreamServer::read_ready(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  conn.last_activity = std::chrono::steady_clock::now();
  // One chunk per readiness event: epoll is level-triggered, so any
  // bytes left in the socket are reported again next iteration, after
  // the other ready connections had their turn.
  std::uint8_t chunk[16384];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_connection(id, make_error(ErrorCode::kUnavailable,
                                    std::string("recv(): ") +
                                        std::strerror(errno)));
    return;
  }
  if (n == 0) {
    close_connection(id,
                     !conn.raw && conn.decoder.mid_frame()
                         ? Status(make_error(ErrorCode::kUnavailable,
                                             "peer disconnected "
                                             "mid-message"))
                         : Status::ok_status());
    return;
  }
  static obs::Counter& bytes_rx = obs::MetricsRegistry::global().counter(
      obs::kNetStreamBytesTotal, {{"dir", "rx"}});
  bytes_rx.increment(static_cast<std::size_t>(n));
  conn.bytes_rx += static_cast<std::uint64_t>(n);
  if (conn.raw) {
    if (callbacks_.on_data) {
      callbacks_.on_data(id, BytesView(chunk, static_cast<std::size_t>(n)));
    }
    return;
  }
  auto fed = conn.decoder.feed(BytesView(chunk, static_cast<std::size_t>(n)));
  if (!fed.ok()) {
    close_connection(id, fed);
    return;
  }
  while (auto frame = conn.decoder.next()) {
    static obs::Counter& frames_rx = obs::MetricsRegistry::global().counter(
        obs::kNetFramesTotal, {{"dir", "rx"}});
    frames_rx.increment();
    ++conn.frames_rx;
    if (callbacks_.on_frame) callbacks_.on_frame(id, std::move(*frame));
    // The callback may have closed the connection (protocol error, or a
    // response that overran the write-queue bound).
    if (!connections_.contains(id)) return;
  }
}

bool StreamServer::flush_writes(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return false;
  Connection& conn = it->second;
  while (!conn.write_queue.empty()) {
    const Bytes& front = conn.write_queue.front();
    const std::size_t remaining = front.size() - conn.front_offset;
    const ssize_t n = ::send(conn.fd, front.data() + conn.front_offset,
                             remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          (void)watch(EPOLL_CTL_MOD, conn.fd, true);
        }
        return true;
      }
      if (errno == EINTR) continue;
      close_connection(id, make_error(ErrorCode::kUnavailable,
                                      std::string("send(): ") +
                                          std::strerror(errno)));
      return false;
    }
    static obs::Counter& bytes_tx = obs::MetricsRegistry::global().counter(
        obs::kNetStreamBytesTotal, {{"dir", "tx"}});
    bytes_tx.increment(static_cast<std::size_t>(n));
    conn.bytes_tx += static_cast<std::uint64_t>(n);
    conn.front_offset += static_cast<std::size_t>(n);
    conn.queued_bytes -= static_cast<std::size_t>(n);
    if (!conn.raw) total_queued_bytes_ -= static_cast<std::size_t>(n);
    if (conn.front_offset == front.size()) {
      conn.write_queue.pop_front();
      conn.front_offset = 0;
    }
  }
  if (!conn.raw) publish_write_queue_gauge();
  if (conn.want_write) {
    conn.want_write = false;
    (void)watch(EPOLL_CTL_MOD, conn.fd, false);
  }
  if (conn.closing_after_flush) {
    close_connection(id, Status::ok_status());
    return false;
  }
  return true;
}

Status StreamServer::send(ConnId id, BytesView payload) {
  require_loop_thread("send");
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "unknown connection " + std::to_string(id));
  }
  if (payload.size() > kMaxFramePayload) {
    return make_error(ErrorCode::kInvalidArgument,
                      "payload exceeds frame cap",
                      std::to_string(payload.size()));
  }
  static obs::Counter& frames_tx = obs::MetricsRegistry::global().counter(
      obs::kNetFramesTotal, {{"dir", "tx"}});
  frames_tx.increment();
  ++it->second.frames_tx;
  return enqueue_bytes(id, encode_frame(payload));
}

Status StreamServer::send_raw(ConnId id, BytesView payload) {
  require_loop_thread("send_raw");
  if (connections_.find(id) == connections_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "unknown connection " + std::to_string(id));
  }
  return enqueue_bytes(id, Bytes(payload.begin(), payload.end()));
}

Status StreamServer::enqueue_bytes(ConnId id, Bytes wire_bytes) {
  Connection& conn = connections_.at(id);
  const bool was_empty = conn.write_queue.empty();
  conn.queued_bytes += wire_bytes.size();
  if (!conn.raw) total_queued_bytes_ += wire_bytes.size();
  conn.write_queue.push_back(std::move(wire_bytes));
  if (!conn.raw) publish_write_queue_gauge();
  if (conn.queued_bytes > options_.max_write_queue_bytes) {
    // Slow consumer: shedding beats unbounded buffering.
    obs::MetricsRegistry::global()
        .counter(obs::kNetBackpressureStallsTotal)
        .increment();
    close_connection(id, make_error(ErrorCode::kUnavailable,
                                    "write queue bound exceeded"));
    return make_error(ErrorCode::kUnavailable, "write queue bound exceeded");
  }
  if (was_empty) {
    if (!flush_writes(id)) {
      return make_error(ErrorCode::kUnavailable, "connection closed");
    }
    auto again = connections_.find(id);
    if (again != connections_.end() && again->second.want_write) {
      obs::MetricsRegistry::global()
          .counter(obs::kNetBackpressureStallsTotal)
          .increment();
    }
  }
  return Status::ok_status();
}

void StreamServer::close_after_flush(ConnId id) {
  require_loop_thread("close_after_flush");
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  if (it->second.write_queue.empty()) {
    close_connection(id, Status::ok_status());
  } else {
    it->second.closing_after_flush = true;
  }
}

void StreamServer::close_connection(ConnId id, const Status& reason) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  const int fd = it->second.fd;
  const bool raw = it->second.raw;
  unwatch(fd);
  ::close(fd);
  conn_by_fd_.erase(fd);
  if (raw) {
    --raw_connections_;
  } else {
    total_queued_bytes_ -= it->second.queued_bytes;
  }
  connections_.erase(it);
  if (!raw) {
    publish_conns_gauge();
    publish_write_queue_gauge();
  }
  if (callbacks_.on_close) callbacks_.on_close(id, reason);
}

void StreamServer::publish_conns_gauge() {
  static obs::Gauge& active =
      obs::MetricsRegistry::global().gauge(obs::kNetConnsActive);
  active.set(static_cast<double>(connections_.size() - raw_connections_));
}

void StreamServer::publish_write_queue_gauge() {
  static obs::Gauge& queued =
      obs::MetricsRegistry::global().gauge(obs::kNetWriteQueueBytes);
  queued.set(static_cast<double>(total_queued_bytes_));
}

std::vector<StreamServer::ConnectionStats> StreamServer::connection_stats()
    const {
  require_loop_thread("connection_stats");
  std::vector<ConnectionStats> out;
  out.reserve(connections_.size() - raw_connections_);
  for (const auto& [id, conn] : connections_) {
    if (conn.raw) continue;
    out.push_back(ConnectionStats{id, conn.via.transport_label(),
                                  conn.bytes_rx, conn.bytes_tx,
                                  conn.frames_rx, conn.frames_tx,
                                  conn.queued_bytes});
  }
  return out;
}

}  // namespace e2e::net
