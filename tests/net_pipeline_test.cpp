// Wire-pipelining tests: the multiplexed BbdClient, the
// daemon's pipelined execution, and StreamServer's loop discipline.
//
// Three layers of coverage:
//   - a mock daemon (raw Listener + HandshakeResponder + manual sealing)
//     that misorders and withholds responses, proving the client matches
//     strictly by request id — including the timeout-mid-pipeline case
//     where a late response must be discarded, never mis-matched to a
//     newer call;
//   - pipelined conformance against the real BbdService: the window is
//     the client's own pipeline_depth (100 in flight, above any cap a
//     daemon ever advertised; depth 1 stays serial) and byte/decision-
//     identity of a pipelined op sequence vs the serial client on an
//     identically-seeded daemon;
//   - the daemon's write path: a window's replies leave in one send, and
//     a reader that stalls the daemon mid-frame still gets every reply in
//     order, byte-identical to a serial run;
//   - StreamServer's one-read-per-readiness-event fairness across
//     connections, and the always-on loop-thread guard on send()
//     (fork-based death check, skipped under sanitizers). TSan covers
//     this file via tier1.sh --daemon.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/bbd_client.hpp"
#include "net/bbd_protocol.hpp"
#include "net/bbd_service.hpp"
#include "net/stream_server.hpp"
#include "net/stream_socket.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"

namespace e2e::net {
namespace {

constexpr std::chrono::milliseconds kWait{5000};

// ---------------------------------------------------------------------
// Mock daemon: one accepted connection, hand-driven frames.

/// The daemon half of one connection, after the staged handshake: the
/// test script decides exactly which responses to seal and in what order.
struct MockConn {
  StreamSocket socket;
  sig::Session session;

  Result<BbdRequest> recv_request() {
    auto frame = socket.recv_frame(kWait);
    if (!frame.ok()) return frame.error();
    auto record = sig::decode_record(frame.value());
    if (!record.ok()) return record.error();
    auto payload = session.open(record.value());
    if (!payload.ok()) return payload.error();
    return BbdRequest::decode(payload.value());
  }

  Status send_response(const BbdResponse& response) {
    const sig::Record record = session.seal(response.encode());
    return socket.send_frame(sig::encode_record(record));
  }

  /// Consume the client's hello and answer it, as the real daemon does.
  Status reply_hello() {
    auto req = recv_request();
    if (!req.ok()) return req.error();
    return send_response(BbdResponse::success(req.value().id));
  }
};

/// Accept one connection and run the responder side of the handshake.
Result<MockConn> accept_and_handshake(Listener& listener, Rng& rng) {
  auto socket = listener.accept();
  if (!socket.ok()) return socket.error();
  const ServiceIdentity identity = make_service_identity(kDefaultAuthSeed);
  sig::HandshakeResponder responder(identity.daemon_endpoint(), 0, rng);
  auto hello = socket.value().recv_frame(kWait);
  if (!hello.ok()) return hello.error();
  auto server_hello = responder.on_client_hello(hello.value());
  if (!server_hello.ok()) return server_hello.error();
  if (auto sent = socket.value().send_frame(server_hello.value());
      !sent.ok()) {
    return sent.error();
  }
  auto finished = socket.value().recv_frame(kWait);
  if (!finished.ok()) return finished.error();
  if (auto done = responder.on_finished(finished.value()); !done.ok()) {
    return done.error();
  }
  return MockConn{std::move(socket.value()),
                  std::move(responder.session())};
}

BbdRequest ping_request() {
  BbdRequest req;
  req.op = BbdOp::kPing;
  return req;
}

BbdClient::Options mock_client_options(const Listener& listener,
                                       std::uint64_t depth,
                                       std::chrono::milliseconds timeout) {
  BbdClient::Options options;
  options.connect_to = listener.local_endpoint();
  options.pipeline_depth = depth;
  options.call_timeout = timeout;
  return options;
}

TEST(Pipeline, OutOfOrderResponsesMatchById) {
  auto listener =
      Listener::listen(Endpoint::parse("tcp:127.0.0.1:0").value());
  ASSERT_TRUE(listener.ok()) << listener.error().to_text();

  std::atomic<bool> mock_ok{true};
  std::thread mock([&] {
    Rng rng(42);
    auto conn = accept_and_handshake(listener.value(), rng);
    if (!conn.ok()) {
      mock_ok = false;
      return;
    }
    if (!conn.value().reply_hello().ok()) {
      mock_ok = false;
      return;
    }
    auto req1 = conn.value().recv_request();
    auto req2 = conn.value().recv_request();
    if (!req1.ok() || !req2.ok()) {
      mock_ok = false;
      return;
    }
    // Respond to the SECOND request first: the client must route each
    // payload to its own wait() by id, not by arrival order.
    BbdResponse res2 = BbdResponse::success(req2.value().id);
    res2.stra = "two";
    BbdResponse res1 = BbdResponse::success(req1.value().id);
    res1.stra = "one";
    if (!conn.value().send_response(res2).ok() ||
        !conn.value().send_response(res1).ok()) {
      mock_ok = false;
    }
  });

  auto client = BbdClient::connect(
      mock_client_options(listener.value(), 8, kWait));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  ASSERT_TRUE(client.value().hello(false).ok());

  auto h1 = client.value().call_async(ping_request());
  auto h2 = client.value().call_async(ping_request());
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(client.value().in_flight(), 2u);
  auto r1 = client.value().wait(h1.value());
  auto r2 = client.value().wait(h2.value());
  ASSERT_TRUE(r1.ok()) << r1.error().to_text();
  ASSERT_TRUE(r2.ok()) << r2.error().to_text();
  EXPECT_EQ(r1.value().stra, "one");
  EXPECT_EQ(r2.value().stra, "two");
  EXPECT_EQ(r1.value().id, h1.value().id);
  EXPECT_EQ(r2.value().id, h2.value().id);
  EXPECT_EQ(client.value().in_flight(), 0u);
  mock.join();
  EXPECT_TRUE(mock_ok.load());
}

TEST(Pipeline, LateResponseAfterTimeoutIsNotMisMatched) {
  auto listener =
      Listener::listen(Endpoint::parse("tcp:127.0.0.1:0").value());
  ASSERT_TRUE(listener.ok()) << listener.error().to_text();

  std::atomic<bool> mock_ok{true};
  std::thread mock([&] {
    Rng rng(43);
    auto conn = accept_and_handshake(listener.value(), rng);
    if (!conn.ok()) {
      mock_ok = false;
      return;
    }
    if (!conn.value().reply_hello().ok()) {
      mock_ok = false;
      return;
    }
    // Receive the first call and sit on it. The client times out and
    // abandons it; only when the SECOND call arrives (proof the client
    // moved on) are both responses sent — the stale one first.
    auto req1 = conn.value().recv_request();
    auto req2 = conn.value().recv_request();
    if (!req1.ok() || !req2.ok()) {
      mock_ok = false;
      return;
    }
    BbdResponse stale = BbdResponse::success(req1.value().id);
    stale.stra = "stale";
    BbdResponse fresh = BbdResponse::success(req2.value().id);
    fresh.stra = "fresh";
    if (!conn.value().send_response(stale).ok() ||
        !conn.value().send_response(fresh).ok()) {
      mock_ok = false;
      return;
    }
    // A third round trip proves the connection survived the whole
    // episode with the seal chain intact.
    auto req3 = conn.value().recv_request();
    if (!req3.ok()) {
      mock_ok = false;
      return;
    }
    if (!conn.value().send_response(
            BbdResponse::success(req3.value().id)).ok()) {
      mock_ok = false;
    }
  });

  auto client = BbdClient::connect(mock_client_options(
      listener.value(), 8, std::chrono::milliseconds(250)));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  ASSERT_TRUE(client.value().hello(false).ok());

  auto h1 = client.value().call_async(ping_request());
  ASSERT_TRUE(h1.ok());
  auto r1 = client.value().wait(h1.value());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code, ErrorCode::kTimeout);

  // The next call gets a fresh id; its response must be the fresh one —
  // the stale frame (which arrives first) is discarded, not mis-matched.
  auto h2 = client.value().call_async(ping_request());
  ASSERT_TRUE(h2.ok());
  auto r2 = client.value().wait(h2.value());
  ASSERT_TRUE(r2.ok()) << r2.error().to_text();
  EXPECT_EQ(r2.value().stra, "fresh");
  EXPECT_EQ(r2.value().id, h2.value().id);

  // And the client is still fully usable serially.
  auto r3 = client.value().call(ping_request());
  ASSERT_TRUE(r3.ok()) << r3.error().to_text();
  EXPECT_EQ(client.value().in_flight(), 0u);
  mock.join();
  EXPECT_TRUE(mock_ok.load());
}

// ---------------------------------------------------------------------
// Pipelined conformance against the real daemon.

BbdService::Options service_options() {
  BbdService::Options options;
  options.listen_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  return options;
}

Result<BbdClient> service_client(const BbdService& service,
                                 std::uint64_t depth) {
  BbdClient::Options options;
  options.connect_to = service.bound_endpoints().front();
  options.pipeline_depth = depth;
  return BbdClient::connect(options);
}

// The window is the client's pipeline_depth, with nothing negotiated: a
// depth-100 client (above the 64 any daemon once advertised) keeps 100
// pings in flight, and a depth-1 client never has two.
TEST(Pipeline, ClientOwnsItsWindowWithRealDaemon) {
  BbdService service(service_options());
  ASSERT_TRUE(service.start().ok());

  constexpr std::size_t kDeep = 100;
  auto deep = service_client(service, kDeep);
  ASSERT_TRUE(deep.ok()) << deep.error().to_text();
  ASSERT_TRUE(deep.value().hello(false).ok());
  std::vector<BbdClient::Call> calls;
  for (std::size_t i = 0; i < kDeep; ++i) {
    auto call = deep.value().call_async(ping_request());
    ASSERT_TRUE(call.ok()) << call.error().to_text();
    calls.push_back(call.value());
    EXPECT_EQ(deep.value().in_flight(), i + 1);
  }
  for (const auto& call : calls) {
    auto res = deep.value().wait(call);
    ASSERT_TRUE(res.ok()) << res.error().to_text();
    EXPECT_EQ(res.value().id, call.id);
  }
  EXPECT_EQ(deep.value().in_flight(), 0u);

  auto serial = service_client(service, 1);
  ASSERT_TRUE(serial.ok()) << serial.error().to_text();
  ASSERT_TRUE(serial.value().hello(false).ok());
  calls.clear();
  for (int i = 0; i < 8; ++i) {
    auto call = serial.value().call_async(ping_request());
    ASSERT_TRUE(call.ok()) << call.error().to_text();
    calls.push_back(call.value());
    EXPECT_EQ(serial.value().in_flight(), 1u);
  }
  for (const auto& call : calls) {
    auto res = serial.value().wait(call);
    ASSERT_TRUE(res.ok()) << res.error().to_text();
    EXPECT_EQ(res.value().id, call.id);
  }
  service.stop();
  service.wait();
}

BbdRequest tunnel_flow_request(const std::string& tunnel_id,
                               const std::string& user_dn) {
  BbdRequest req;
  req.op = BbdOp::kTunnelReserve;
  req.stra = tunnel_id;
  req.strb = user_dn;
  req.f64a = 1e6;
  req.u64a = 0;
  req.u64b = static_cast<std::uint64_t>(seconds(600));
  req.f64b = static_cast<double>(seconds(2));
  return req;
}

/// The same op sequence — make_user, establish an aggregate tunnel, then
/// `flows` per-flow reservations — through a serial and a pipelined
/// client against two identically-seeded daemons must produce
/// byte-identical grant bytes in the same order (the daemon executes each
/// connection's requests in FIFO order regardless of the window).
TEST(PipelineConformance, PipelinedMatchesSerialByteForByte) {
  auto run = [](std::uint64_t depth) -> std::vector<Bytes> {
    BbdService service(service_options());
    EXPECT_TRUE(service.start().ok());
    auto client = service_client(service, depth);
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE(client.value().hello(false).ok());
    // Headroom for the aggregate tunnel (the default world's capacity
    // denies a 1 Gb/s aggregate).
    EXPECT_TRUE(client.value().configure(3, 0, 0, 10e9, 10e9).ok());
    auto dn = client.value().make_user("Alice", 0);
    EXPECT_TRUE(dn.ok());
    BbdClient::ReserveArgs agg;
    agg.user = "Alice";
    agg.rate = 1e9;
    agg.interval = {0, seconds(36000)};
    agg.is_tunnel = true;
    agg.at = seconds(1);
    auto established = client.value().reserve(agg);
    EXPECT_TRUE(established.ok() && established->reply.granted);

    std::vector<Bytes> grants;
    grants.push_back(established->reply_bytes);
    // 6 flows through a window of `depth`: with depth 4 this exercises
    // the full-window slot-reclaim path in call_async too.
    constexpr int kFlows = 6;
    std::vector<BbdClient::Call> calls;
    for (int i = 0; i < kFlows; ++i) {
      auto call = client.value().call_async(tunnel_flow_request(
          established->reply.tunnel_id, dn.value()));
      EXPECT_TRUE(call.ok());
      calls.push_back(call.value());
    }
    for (const auto& call : calls) {
      auto res = client.value().wait(call);
      EXPECT_TRUE(res.ok());
      grants.push_back(res.value().bytes);
    }
    service.stop();
    service.wait();
    return grants;
  };

  const std::vector<Bytes> serial = run(1);
  const std::vector<Bytes> pipelined = run(4);
  ASSERT_EQ(serial.size(), pipelined.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pipelined[i]) << "grant " << i << " diverged";
  }
  // Decisions, not just bytes: every grant decodes and is granted.
  for (const auto& bytes : pipelined) {
    auto reply = sig::RarReply::decode(bytes);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->granted);
  }
}

// ---------------------------------------------------------------------
// The daemon's write path: one send per read.

Result<StreamSocket> connect_tcp_with_rcvbuf(const Endpoint& endpoint,
                                             int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error(ErrorCode::kInternal, "socket()");
  StreamSocket socket(fd);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  ::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return make_error(ErrorCode::kUnavailable, "connect()");
  }
  return socket;
}

/// A client that speaks the sealed wire by hand, so a test decides how
/// request frames are batched into writes and when replies are read. The
/// nonce seed is fixed: against a fresh daemon with the same auth seed,
/// two such clients hold the same session keys.
struct RawClient {
  StreamSocket socket;
  sig::Session session;
  std::uint64_t next_id = 1;

  /// `rcvbuf` > 0 sets the socket's receive buffer before it connects
  /// (tcp endpoints only), so a client that stops reading backs the
  /// daemon up after little output.
  static Result<RawClient> connect(const Endpoint& endpoint,
                                   int rcvbuf = 0) {
    auto socket = rcvbuf > 0 ? connect_tcp_with_rcvbuf(endpoint, rcvbuf)
                             : StreamSocket::connect(endpoint);
    if (!socket.ok()) return socket.error();
    const ServiceIdentity identity = make_service_identity(kDefaultAuthSeed);
    Rng rng(7);
    sig::HandshakeInitiator initiator(identity.client_endpoint(), 0, rng);
    if (auto sent = socket.value().send_frame(initiator.client_hello());
        !sent.ok()) {
      return sent.error();
    }
    auto server_hello = socket.value().recv_frame(kWait);
    if (!server_hello.ok()) return server_hello.error();
    auto finished = initiator.on_server_hello(server_hello.value());
    if (!finished.ok()) return finished.error();
    if (auto sent = socket.value().send_frame(finished.value());
        !sent.ok()) {
      return sent.error();
    }
    return RawClient{std::move(socket.value()),
                     std::move(initiator.session())};
  }

  /// Seal `count` pings into one buffer and write it with one send.
  Status send_pings(std::size_t count) {
    Bytes batch;
    for (std::size_t i = 0; i < count; ++i) {
      BbdRequest req = ping_request();
      req.id = next_id++;
      session.seal_frame(req.encode(), batch);
    }
    return socket.send_raw(batch);
  }

  /// Read one reply; its record bytes as received, and its id.
  Result<std::pair<Bytes, std::uint64_t>> recv_reply() {
    auto frame = socket.recv_frame(kWait);
    if (!frame.ok()) return frame.error();
    Bytes record(frame.value().begin(), frame.value().end());
    auto payload = session.open_record(record);
    if (!payload.ok()) return payload.error();
    auto response = BbdResponse::decode(payload.value());
    if (!response.ok()) return response.error();
    return std::make_pair(std::move(record), response.value().id);
  }
};

/// GET `path` from an admin endpoint; the response body.
Result<std::string> admin_body(const Endpoint& admin,
                               const std::string& path) {
  auto socket = StreamSocket::connect(admin);
  if (!socket.ok()) return socket.error();
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (auto sent = socket.value().send_raw(
          BytesView(reinterpret_cast<const std::uint8_t*>(request.data()),
                    request.size()));
      !sent.ok()) {
    return sent.error();
  }
  std::string wire;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(socket.value().fd(), chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return make_error(ErrorCode::kBadMessage, "malformed admin response");
  }
  return wire.substr(head_end + 4);
}

/// The one RPC connection's /statz counters.
struct ConnCounters {
  std::uint64_t bytes_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t sends = 0;
  std::uint64_t queued_bytes = 0;
};

Result<ConnCounters> statz_counters(const Endpoint& admin) {
  auto body = admin_body(admin, "/statz");
  if (!body.ok()) return body.error();
  const std::string& json = body.value();
  bool found = true;
  auto field = [&](const std::string& key) -> std::uint64_t {
    const std::size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos) {
      found = false;
      return 0;
    }
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
  };
  ConnCounters counters{field("bytes_tx"), field("frames_rx"),
                        field("frames_tx"), field("sends"),
                        field("queued_bytes")};
  if (!found) return make_error(ErrorCode::kBadMessage, "statz: " + json);
  return counters;
}

BbdService::Options admin_service_options() {
  BbdService::Options options = service_options();
  options.admin_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  return options;
}

// Eight pipelined requests written in one chunk are decoded from one
// read, run in arrival order, and their eight replies leave in one send.
TEST(StreamServer, PipelinedWindowLeavesInOneSend) {
  BbdService service(admin_service_options());
  ASSERT_TRUE(service.start().ok());
  const Endpoint admin = service.admin_endpoints().front();
  auto client = RawClient::connect(service.bound_endpoints().front());
  ASSERT_TRUE(client.ok()) << client.error().to_text();

  auto before = statz_counters(admin);
  ASSERT_TRUE(before.ok()) << before.error().to_text();
  constexpr std::size_t kWindow = 8;
  ASSERT_TRUE(client.value().send_pings(kWindow).ok());
  for (std::uint64_t id = 1; id <= kWindow; ++id) {
    auto reply = client.value().recv_reply();
    ASSERT_TRUE(reply.ok()) << reply.error().to_text();
    EXPECT_EQ(reply.value().second, id) << "replies left FIFO order";
  }
  auto after = statz_counters(admin);
  ASSERT_TRUE(after.ok()) << after.error().to_text();
  EXPECT_EQ(after.value().frames_rx - before.value().frames_rx, kWindow);
  EXPECT_EQ(after.value().frames_tx - before.value().frames_tx, kWindow);
  EXPECT_EQ(after.value().sends - before.value().sends, 1u);
  EXPECT_EQ(after.value().queued_bytes, 0u);
  service.stop();
  service.wait();
}

// A client that stops reading backs the daemon's output up until the
// socket refuses part of a frame (EAGAIN mid-frame), then reads it all:
// every reply arrives, in order, byte-identical to a serial run of the
// same pings against an identically seeded daemon.
TEST(StreamServer, StalledReaderGetsEveryReplyInOrderAfterEagain) {
  std::vector<Bytes> pipelined;
  {
    BbdService service(admin_service_options());
    ASSERT_TRUE(service.start().ok());
    const Endpoint admin = service.admin_endpoints().front();
    auto client =
        RawClient::connect(service.bound_endpoints().front(), 4096);
    ASSERT_TRUE(client.ok()) << client.error().to_text();
    auto start = statz_counters(admin);
    ASSERT_TRUE(start.ok()) << start.error().to_text();
    // Every ping reply has the same size, so the bytes written since
    // `start` end mid-frame exactly when they are not a whole multiple.
    const std::size_t reply_frame =
        4 + 64 + BbdResponse::success(1).encode().size();

    // Loopback TCP absorbs a few MB before the daemon's send() is refused
    // (its send buffer grows up to net.ipv4.tcp_wmem's 4 MB maximum);
    // kMaxPings is well past that.
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kMaxPings = 40000;
    std::size_t sent = 0;
    auto read_replies = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        auto reply = client.value().recv_reply();
        ASSERT_TRUE(reply.ok()) << reply.error().to_text();
        ASSERT_EQ(reply.value().second, pipelined.size() + 1);
        pipelined.push_back(std::move(reply.value().first));
      }
    };
    bool stalled_mid_frame = false;
    bool stalled_on_a_boundary = false;
    while (!stalled_mid_frame && sent < kMaxPings) {
      // A stall that fell on a frame boundary shows nothing; read some
      // replies so the daemon writes on, and stalls again elsewhere.
      if (stalled_on_a_boundary) read_replies(1000);
      ASSERT_TRUE(client.value().send_pings(kBatch).ok());
      sent += kBatch;
      // Wait until the daemon has run every ping sent so far.
      Result<ConnCounters> now = make_error(ErrorCode::kTimeout, "statz");
      const auto deadline = std::chrono::steady_clock::now() + kWait;
      while (std::chrono::steady_clock::now() < deadline) {
        now = statz_counters(admin);
        ASSERT_TRUE(now.ok()) << now.error().to_text();
        if (now.value().frames_tx - start.value().frames_tx == sent) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(now.value().frames_tx - start.value().frames_tx, sent);
      const std::uint64_t written =
          now.value().bytes_tx - start.value().bytes_tx;
      const bool stalled = now.value().queued_bytes > 0;
      stalled_mid_frame = stalled && written % reply_frame != 0;
      stalled_on_a_boundary = stalled && !stalled_mid_frame;
    }
    ASSERT_TRUE(stalled_mid_frame)
        << "the daemon never hit EAGAIN mid-frame in " << sent << " pings";
    read_replies(sent - pipelined.size());
    auto drained = statz_counters(admin);
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained.value().queued_bytes, 0u);
    service.stop();
    service.wait();
  }

  BbdService service(admin_service_options());
  ASSERT_TRUE(service.start().ok());
  auto client = RawClient::connect(service.bound_endpoints().front());
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  for (std::size_t i = 0; i < pipelined.size(); ++i) {
    ASSERT_TRUE(client.value().send_pings(1).ok());
    auto reply = client.value().recv_reply();
    ASSERT_TRUE(reply.ok()) << reply.error().to_text();
    ASSERT_EQ(reply.value().first, pipelined[i]) << "reply " << i;
  }
  service.stop();
  service.wait();
}

// ---------------------------------------------------------------------
// StreamServer's read fairness and the loop-thread guard.

// Each readiness event reads one 16 KiB recv() chunk, so a peer with a
// backlog cannot hold the loop while another peer waits: B's single
// frame is delivered before the last of A's 48 KiB.
TEST(StreamServer, OneReadPerReadinessEventInterleavesConnections) {
  constexpr std::size_t kFramesA = 48;
  constexpr std::size_t kPayload = 1020;  // 1 KiB on the wire per frame
  // First payload byte of each delivered frame, in delivery order. Loop
  // thread only until the join below.
  std::vector<std::uint8_t> order;
  std::atomic<std::size_t> delivered{0};
  StreamServer::Options options;
  options.listen_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  StreamServer::Callbacks callbacks;
  callbacks.on_frame = [&](StreamServer::ConnId, BytesView frame) {
    order.push_back(frame.front());
    delivered.fetch_add(1, std::memory_order_release);
  };
  StreamServer server(std::move(options), std::move(callbacks));
  ASSERT_TRUE(server.start().ok());

  // Both peers connect and write everything before the loop runs, so
  // both sockets hold their bytes when the loop first reports them.
  auto a = StreamSocket::connect(server.bound_endpoints().front());
  auto b = StreamSocket::connect(server.bound_endpoints().front());
  ASSERT_TRUE(a.ok() && b.ok());
  const Bytes frame_a(kPayload, 0xaa);
  for (std::size_t i = 0; i < kFramesA; ++i) {
    ASSERT_TRUE(a.value().send_frame(frame_a).ok());
  }
  ASSERT_TRUE(b.value().send_frame(Bytes{0xbb}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread loop([&] { server.run(); });
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (delivered.load(std::memory_order_acquire) < kFramesA + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  loop.join();
  ASSERT_EQ(order.size(), kFramesA + 1);
  std::size_t b_at = order.size();
  std::size_t last_a_at = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 0xbb) b_at = i;
    if (order[i] == 0xaa) last_a_at = i;
  }
  ASSERT_LT(b_at, order.size());
  EXPECT_LT(b_at, last_a_at) << "B's frame waited for all of A's backlog";
}

bool running_under_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// The guard is always-on (RelWithDebInfo strips assert(), so it is a
// plain abort): send() from a foreign thread while the loop runs must
// kill the process. Fork-based so the abort happens in a child; skipped
// under sanitizers, which do not support threads after a multi-threaded
// fork.
TEST(StreamServerPost, OffLoopSendAborts) {
  if (running_under_sanitizer()) {
    GTEST_SKIP() << "fork-based death check skipped under sanitizers";
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: silence the guard's diagnostic, then trip it.
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, 2);
    StreamServer::Options options;
    options.listen_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
    // Make sure the loop is actually live before tripping the guard: it
    // has delivered the peer's frame once on_frame runs.
    std::atomic<bool> live{false};
    StreamServer::Callbacks callbacks;
    callbacks.on_frame = [&](StreamServer::ConnId, BytesView) {
      live = true;
    };
    StreamServer server(std::move(options), std::move(callbacks));
    if (!server.start().ok()) ::_exit(2);
    std::thread loop([&] { server.run(); });
    auto peer = StreamSocket::connect(server.bound_endpoints().front());
    if (!peer.ok() || !peer.value().send_frame(Bytes{0x01}).ok()) ::_exit(2);
    while (!live.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Bytes payload = {0x01};
    (void)server.send(1, BytesView(payload.data(), payload.size()));
    ::_exit(0);  // reached only if the guard failed to abort
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

}  // namespace
}  // namespace e2e::net
