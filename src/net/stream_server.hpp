// Non-blocking event-loop server for length-framed stream connections.
//
// This is the daemon's IO core (tools/bbd): it owns the listening sockets
// (any mix of TCP and UNIX-domain), accepts connections, reassembles
// length-prefixed frames out of arbitrarily torn reads, and writes replies
// through bounded per-connection queues. The loop multiplexes with one
// level-triggered epoll instance (Linux).
//
// Two listener kinds share the one loop. A connection accepted on
// Options::listen_on is framed (on_frame/send()); one accepted on
// Options::raw_listen_on is a raw byte stream (on_data/send_raw()) — bbd
// serves its admin plane's HTTP there. Raw connections are shed after
// kRawIdleTimeout of silence, stay out of the connection, frame and
// write-queue series, and are not listed by connection_stats().
//
// Contract with the application (bbd_service.hpp):
//  - callbacks run on the loop thread, one at a time, never concurrently;
//  - send()/send_raw()/close_after_flush()/connection_stats() may only be
//    called from the loop thread (i.e. from inside a callback). This is
//    enforced: while run() is live, calling them from any other thread
//    aborts the process — the check is always on, not assert()-gated,
//    because every CI preset builds RelWithDebInfo (NDEBUG);
//  - stop()/shutdown_gracefully() are the thread-safe entry points: they
//    wake the loop through a pipe;
//  - a frame passed to send() is either fully written or the connection is
//    closed; there is no partial-message state an application can observe.
//
// Fairness: each readiness event reads one recv() chunk, then the loop
// moves on to the next ready connection. epoll is level-triggered, so a
// connection with more bytes waiting is reported again on the next
// iteration; one busy peer cannot starve the others.
//
// Backpressure: writes that cannot complete inline queue for EPOLLOUT.
// The queue is bounded (Options::max_write_queue_bytes); a peer that stops
// reading until the bound is hit is a slow consumer and its connection is
// closed — a daemon must shed such clients, not buffer without limit.
//
// Shutdown: shutdown_gracefully() stops accepting framed connections, lets
// every framed connection drain its pending writes, then closes them and
// returns from run(). Raw listeners keep serving until run() returns, so
// a readiness probe sees the drain (draining()). Callbacks queue their
// responses before the loop iterates again, so the write queues are all a
// drain waits on. stop() closes everything immediately.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/stream_framing.hpp"
#include "net/stream_socket.hpp"

namespace e2e::net {

class StreamServer {
 public:
  using ConnId = std::uint64_t;

  struct Options {
    std::vector<Endpoint> listen_on;
    /// Close connections silent for this long; zero disables the sweep.
    std::chrono::milliseconds idle_timeout{0};
    /// Slow-consumer bound on queued unwritten bytes per connection.
    std::size_t max_write_queue_bytes = 4u << 20;
    /// Raw byte-stream listeners (the admin plane's HTTP): no frame
    /// decoding — on_data delivers bytes as they arrive, send_raw()
    /// writes without a length prefix. Their connections skip the
    /// net-plane gauges and frame counters (kNetConnsActive,
    /// kNetWriteQueueBytes, kNetFramesTotal, kNetConnsAcceptedTotal);
    /// byte counters still accumulate.
    std::vector<Endpoint> raw_listen_on;
  };

  /// Silence after which a raw connection is shed, whatever idle_timeout
  /// says: a scraper that connects and never finishes its request.
  static constexpr std::chrono::milliseconds kRawIdleTimeout{10000};

  struct Callbacks {
    /// One complete frame arrived (framed connections only).
    std::function<void(ConnId, Bytes frame)> on_frame;
    /// A chunk of bytes arrived (raw connections only).
    std::function<void(ConnId, BytesView data)> on_data;
    /// The connection is gone (peer close, error, idle timeout, shed).
    /// `reason` is ok for an orderly peer close.
    std::function<void(ConnId, const Status& reason)> on_close;
  };

  /// Point-in-time view of one live framed connection, for /statz.
  struct ConnectionStats {
    ConnId id = 0;
    std::string transport;        // "tcp" | "unix"
    std::uint64_t bytes_rx = 0;   // stream bytes received
    std::uint64_t bytes_tx = 0;   // stream bytes written to the socket
    std::uint64_t frames_rx = 0;  // frames decoded
    std::uint64_t frames_tx = 0;  // frames queued
    std::uint64_t queued_bytes = 0;  // unwritten bytes in flight
  };

  StreamServer(Options options, Callbacks callbacks);
  ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Bind and listen on every configured endpoint.
  Status start();

  /// Bound addresses (ephemeral TCP ports resolved): listen_on's, then
  /// raw_listen_on's, each in configuration order.
  std::vector<Endpoint> bound_endpoints() const;

  /// Run the event loop until stop() or graceful-shutdown completion.
  void run();

  /// Thread-safe: close everything and return from run() now.
  void stop();

  /// Thread-safe: stop accepting, drain pending writes, then return from
  /// run().
  void shutdown_gracefully();

  /// shutdown_gracefully() has been called.
  bool draining() const;

  /// Queue one frame (loop thread only). Closes the connection and
  /// returns kUnavailable when the write queue bound is exceeded.
  Status send(ConnId id, BytesView payload);

  /// Queue raw bytes with no length prefix (loop thread only; raw
  /// connections). Same backpressure contract as send().
  Status send_raw(ConnId id, BytesView payload);

  /// Close once pending writes drain (loop thread only).
  void close_after_flush(ConnId id);

  /// Every live framed connection, sorted by id (loop thread only).
  std::vector<ConnectionStats> connection_stats() const;

 private:
  struct Connection {
    int fd = -1;
    Endpoint via;
    /// Accepted on a raw_listen_on endpoint.
    bool raw = false;
    FrameDecoder decoder;
    std::deque<Bytes> write_queue;
    std::size_t queued_bytes = 0;
    std::size_t front_offset = 0;
    std::chrono::steady_clock::time_point last_activity;
    bool closing_after_flush = false;
    bool want_write = false;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
  };

  /// epoll_ctl(op) for `fd`: always EPOLLIN, plus EPOLLOUT while a
  /// write is pending.
  Status watch(int op, int fd, bool want_write);
  void unwatch(int fd);
  void accept_ready(int listener_fd);
  /// Read one recv() chunk and deliver what it completes.
  void read_ready(ConnId id);
  /// Close drained connections; flag the rest to close after flush.
  void sweep_draining();
  /// Abort unless called on the loop thread while run() is live.
  void require_loop_thread(const char* api) const;
  /// Write as much queued data as the socket takes; registers EPOLLOUT
  /// interest on a partial write. Returns false when the connection died.
  bool flush_writes(ConnId id);
  /// Shared enqueue path for send()/send_raw(): bound check, inline
  /// flush, backpressure accounting.
  Status enqueue_bytes(ConnId id, Bytes wire_bytes);
  void close_connection(ConnId id, const Status& reason);
  /// Silence after which `conn` is shed; zero never sheds.
  std::chrono::milliseconds idle_limit(const Connection& conn) const;
  void sweep_idle();
  int next_timeout_ms() const;
  void drain_wake_pipe();
  /// Republish the framed-connection gauges (kNetConnsActive,
  /// kNetWriteQueueBytes).
  void publish_conns_gauge();
  void publish_write_queue_gauge();

  Options options_;
  Callbacks callbacks_;
  int epfd_ = -1;
  std::vector<Listener> listeners_;
  std::map<int, std::size_t> listener_by_fd_;
  std::map<ConnId, Connection> connections_;
  std::map<int, ConnId> conn_by_fd_;
  ConnId next_conn_id_ = 1;
  std::size_t raw_connections_ = 0;
  std::size_t total_queued_bytes_ = 0;  // across framed connections
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;

  /// Loop-thread identity for require_loop_thread(). loop_live_ flips
  /// true/false at run() entry/exit; loop_thread_ is written before the
  /// flag is released so a reader that observes loop_live_ sees the id.
  std::atomic<bool> loop_live_{false};
  std::atomic<std::thread::id> loop_thread_{};
};

}  // namespace e2e::net
