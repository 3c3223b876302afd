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
//   - StreamServer's one-read-per-readiness-event fairness across
//     connections, and the always-on loop-thread guard on send()
//     (fork-based death check, skipped under sanitizers). TSan covers
//     this file via tier1.sh --daemon.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
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
  callbacks.on_frame = [&](StreamServer::ConnId, Bytes frame) {
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
    callbacks.on_frame = [&](StreamServer::ConnId, Bytes) { live = true; };
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
