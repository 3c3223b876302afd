// Daemon service tests (ISSUE 7 tentpole + satellite 4).
//
// Spins the full BbdService (StreamServer event loop + ChainWorld + staged
// SecureChannel handshake) inside the test process and drives it through
// BbdClient over real sockets. Covers: RPC round trips over TCP and UNIX
// sockets; byte-identity of daemon-produced grant bytes against an
// identically-seeded in-memory world; peer-disconnect error paths
// (mid-handshake, post-reserve orphan release); idle-timeout sweeps;
// kShutdown graceful drain; the kConfigure domain count; the
// write-queue bound that sheds a flooding peer; and the admin plane served
// by the request loop itself (no thread of its own, scrapes interleaved
// with a pipelined window).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hpp"
#include "common/rng.hpp"
#include "kit/chain_world.hpp"
#include "net/bbd_client.hpp"
#include "net/bbd_protocol.hpp"
#include "net/bbd_service.hpp"
#include "net/stream_socket.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"

namespace e2e::net {
namespace {

BbdService::Options tcp_options() {
  BbdService::Options options;
  options.listen_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  return options;
}

BbdClient::Options client_options(const BbdService& service) {
  BbdClient::Options options;
  options.connect_to = service.bound_endpoints().front();
  return options;
}

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One admin exchange: connect, GET, read to EOF (the plane closes the
/// connection after every response).
Result<HttpReply> admin_get(const Endpoint& endpoint,
                            const std::string& path) {
  auto socket = StreamSocket::connect(endpoint);
  if (!socket.ok()) return socket.error();
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (auto sent = socket.value().send_raw(BytesView(
          reinterpret_cast<const std::uint8_t*>(request.data()),
          request.size()));
      !sent.ok()) {
    return sent.error();
  }
  std::string wire;
  char chunk[16384];
  while (true) {
    const ssize_t n = ::read(socket.value().fd(), chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = wire.find("\r\n\r\n");
  const std::size_t sp = wire.find(' ');
  if (head_end == std::string::npos || sp == std::string::npos) {
    return make_error(ErrorCode::kBadMessage, "malformed admin response");
  }
  return HttpReply{std::atoi(wire.c_str() + sp + 1),
                   wire.substr(head_end + 4)};
}

std::size_t thread_count() {
  std::size_t threads = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++threads;
  }
  return threads;
}

TEST(Daemon, PingOverTcp) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  const Status pinged = client.value().ping();
  EXPECT_TRUE(pinged.ok()) << pinged.error().to_text();
  service.stop();
  service.wait();
}

TEST(Daemon, PingOverUnixSocket) {
  BbdService::Options options;
  const std::string path = ::testing::TempDir() + "e2e_bbd_unix_test.sock";
  options.listen_on = {Endpoint::parse("unix:" + path).value()};
  BbdService service(std::move(options));
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  EXPECT_TRUE(client.value().ping().ok());
  service.stop();
  service.wait();
}

// The heart of the tentpole: a reservation made through the daemon over a
// real socket must produce byte-identical grant bytes to the same
// operation sequence against an identically-seeded in-memory world.
TEST(Daemon, GrantBytesMatchInMemoryWorld) {
  // In-memory reference run.
  kit::ChainWorld local;
  kit::WorldUser alice = local.make_user("Alice", 0);
  auto msg = local.engine().build_user_request(
      alice.credentials(), local.spec(alice, 10e6), seconds(1));
  ASSERT_TRUE(msg.ok());
  auto local_outcome = local.engine().reserve(msg.value(), seconds(1));
  ASSERT_TRUE(local_outcome.ok());
  ASSERT_TRUE(local_outcome.value().reply.granted);

  // Daemon run: same seed (the default), same operation sequence.
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  auto dn = client.value().make_user("Alice", 0);
  ASSERT_TRUE(dn.ok()) << dn.error().to_text();
  EXPECT_EQ(dn.value(), alice.dn.to_string());
  BbdClient::ReserveArgs args;
  args.user = "Alice";
  args.rate = 10e6;
  args.at = seconds(1);
  auto remote = client.value().reserve(args);
  ASSERT_TRUE(remote.ok()) << remote.error().to_text();
  ASSERT_TRUE(remote.value().reply.granted);

  EXPECT_EQ(remote.value().reply_bytes, local_outcome.value().reply.encode());
  EXPECT_EQ(remote.value().latency, local_outcome.value().latency);
  EXPECT_EQ(remote.value().messages, local_outcome.value().messages);
  service.stop();
  service.wait();
}

TEST(Daemon, SurvivesDisconnectDuringHandshake) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  {
    // A peer that opens a connection, dribbles half a length header, and
    // vanishes.
    auto torn = StreamSocket::connect(service.bound_endpoints().front());
    ASSERT_TRUE(torn.ok());
    ASSERT_TRUE(torn.value().send_raw(Bytes{0x00, 0x00}).ok());
  }
  {
    // A peer whose first frame is garbage rather than a ClientHello.
    auto garbage = StreamSocket::connect(service.bound_endpoints().front());
    ASSERT_TRUE(garbage.ok());
    ASSERT_TRUE(garbage.value().send_frame(Bytes(64, 0xcc)).ok());
    auto reply = garbage.value().recv_frame(std::chrono::milliseconds(2000));
    EXPECT_FALSE(reply.ok());  // daemon closes, never answers garbage
  }
  // The daemon still serves authenticated clients.
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  EXPECT_TRUE(client.value().ping().ok());
  service.stop();
  service.wait();
}

TEST(Daemon, TruncatedServerHelloIsAStatusOnTheClient) {
  const ServiceIdentity identity = make_service_identity(kDefaultAuthSeed);
  Rng rng(99);
  sig::HandshakeResponder responder(identity.daemon_endpoint(), 0, rng);
  sig::HandshakeInitiator initiator(identity.client_endpoint(), 0, rng);
  auto server_hello = responder.on_client_hello(initiator.client_hello());
  ASSERT_TRUE(server_hello.ok());
  const Bytes truncated(server_hello.value().begin(),
                        server_hello.value().begin() +
                            server_hello.value().size() / 2);
  auto finished = initiator.on_server_hello(truncated);
  ASSERT_FALSE(finished.ok());
  EXPECT_FALSE(initiator.done());
}

TEST(Daemon, DisconnectAfterReserveFiresOrphanRelease) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto observer = BbdClient::connect(client_options(service));
  ASSERT_TRUE(observer.ok());
  {
    auto client = BbdClient::connect(client_options(service));
    ASSERT_TRUE(client.ok()) << client.error().to_text();
    ASSERT_TRUE(client.value().hello(/*release_on_disconnect=*/true).ok());
    ASSERT_TRUE(client.value().make_user("Bob", 0).ok());
    BbdClient::ReserveArgs args;
    args.user = "Bob";
    args.rate = 5e6;
    args.at = seconds(1);
    auto outcome = client.value().reserve(args);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
    ASSERT_TRUE(outcome.value().reply.granted);
    auto held = observer.value().stats(seconds(1));
    ASSERT_TRUE(held.ok());
    EXPECT_GT(held.value().reservations, 0u);
    // `client` goes out of scope here: socket closes, no explicit release.
  }
  // The daemon notices the disconnect and releases every orphaned grant.
  std::size_t residual = 1;
  for (int i = 0; i < 100 && residual != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto stats = observer.value().stats(seconds(1));
    ASSERT_TRUE(stats.ok());
    residual = stats.value().reservations;
  }
  EXPECT_EQ(residual, 0u);
  service.stop();
  service.wait();
}

TEST(Daemon, ExplicitReleaseLeavesNothingForOrphanCleanup) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto observer = BbdClient::connect(client_options(service));
  ASSERT_TRUE(observer.ok());
  {
    auto client = BbdClient::connect(client_options(service));
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().hello(true).ok());
    ASSERT_TRUE(client.value().make_user("Carol", 0).ok());
    BbdClient::ReserveArgs args;
    args.user = "Carol";
    args.rate = 5e6;
    args.at = seconds(1);
    auto outcome = client.value().reserve(args);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome.value().reply.granted);
    ASSERT_TRUE(
        client.value().release("hopbyhop", outcome.value().reply_bytes).ok());
    auto stats = observer.value().stats(seconds(1));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().reservations, 0u);
  }
  // Disconnect must not double-release: state stays at zero and the daemon
  // keeps serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto stats = observer.value().stats(seconds(1));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().reservations, 0u);
  EXPECT_TRUE(observer.value().ping().ok());
  service.stop();
  service.wait();
}

TEST(Daemon, IdleConnectionsAreSweptAndCounted) {
  auto& idle_counter =
      obs::MetricsRegistry::global().counter(obs::kNetIdleClosesTotal);
  const std::uint64_t before = idle_counter.value();
  BbdService::Options options = tcp_options();
  options.idle_timeout = std::chrono::milliseconds(150);
  BbdService service(std::move(options));
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().ping().ok());
  // Stay silent past the idle budget; the daemon closes the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_FALSE(client.value().ping().ok());
  EXPECT_GT(idle_counter.value(), before);
  service.stop();
  service.wait();
}

TEST(Daemon, ShutdownOpDrainsAndExits) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok());
  // The response to the shutdown request itself must arrive (drain, not
  // slam): shutdown_daemon() round-trips before the daemon exits.
  EXPECT_TRUE(client.value().shutdown_daemon().ok());
  service.wait();  // returns because the loop exited on its own
}

TEST(Daemon, MetricQueryAnswersOverTheWire) {
  BbdService service(tcp_options());
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().make_user("Dave", 0).ok());
  BbdClient::ReserveArgs args;
  args.user = "Dave";
  args.rate = 1e6;
  args.at = seconds(1);
  auto outcome = client.value().reserve(args);
  ASSERT_TRUE(outcome.ok());
  // The daemon's registry saw the reservation; the histogram count is
  // queryable remotely (the fig3 [PASS] cross-check path).
  auto count = client.value().metric("e2e_sig_e2e_latency_us",
                                     "engine=hopbyhop", "count");
  ASSERT_TRUE(count.ok()) << count.error().to_text();
  EXPECT_GE(count.value(), 1.0);
  service.stop();
  service.wait();
}

// kConfigure answers with the domain count of the world it just built,
// not the startup config's. Raw call(): configure() drops the value.
TEST(Daemon, ConfigureReportsTheBuiltDomainCount) {
  BbdService::Options options = tcp_options();
  options.world.domains = 3;
  BbdService service(std::move(options));
  ASSERT_TRUE(service.start().ok());
  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  BbdRequest req;
  req.op = BbdOp::kConfigure;
  req.u64a = 5;
  auto res = client.value().call(std::move(req));
  ASSERT_TRUE(res.ok()) << res.error().to_text();
  EXPECT_EQ(res.value().u64a, 5u);
  service.stop();
  service.wait();
}

// Requests execute on the loop, so a peer that floods requests and never
// reads its responses is bounded by the per-connection write queue: once
// the unread responses pass max_write_queue_bytes the daemon sheds the
// connection, and everyone else is still served.
TEST(Daemon, FloodingPeerIsShedByTheWriteQueueBound) {
  BbdService::Options options;
  const std::string path = ::testing::TempDir() + "e2e_bbd_flood_test.sock";
  options.listen_on = {Endpoint::parse("unix:" + path).value()};
  options.max_write_queue_bytes = 16u << 10;
  auto& stalls = obs::MetricsRegistry::global().counter(
      obs::kNetBackpressureStallsTotal);
  const std::uint64_t stalls_before = stalls.value();
  BbdService service(std::move(options));
  ASSERT_TRUE(service.start().ok());

  // Handshake exactly as BbdClient::connect does, then keep the session.
  auto peer = StreamSocket::connect(service.bound_endpoints().front());
  ASSERT_TRUE(peer.ok()) << peer.error().to_text();
  const ServiceIdentity identity = make_service_identity(kDefaultAuthSeed);
  Rng rng(7);
  sig::HandshakeInitiator initiator(identity.client_endpoint(), 0, rng);
  ASSERT_TRUE(peer.value().send_frame(initiator.client_hello()).ok());
  auto server_hello = peer.value().recv_frame(std::chrono::seconds(5));
  ASSERT_TRUE(server_hello.ok()) << server_hello.error().to_text();
  auto finished = initiator.on_server_hello(server_hello.value());
  ASSERT_TRUE(finished.ok()) << finished.error().to_text();
  ASSERT_TRUE(peer.value().send_frame(finished.value()).ok());
  sig::Session session = std::move(initiator.session());

  // Thousands of sealed pings, never a read. The write fails once the
  // daemon has closed the connection.
  constexpr std::uint64_t kMaxPings = 20000;
  std::uint64_t sent = 0;
  for (; sent < kMaxPings; ++sent) {
    BbdRequest ping;
    ping.op = BbdOp::kPing;
    ping.id = sent + 1;
    const sig::Record record = session.seal(ping.encode());
    if (!peer.value().send_frame(sig::encode_record(record)).ok()) break;
  }
  EXPECT_LT(sent, kMaxPings) << "the flooding peer was never shed";
  EXPECT_GT(stalls.value(), stalls_before);

  auto client = BbdClient::connect(client_options(service));
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  EXPECT_TRUE(client.value().ping().ok());
  service.stop();
  service.wait();
}

// The admin plane is served by the request loop: start() adds exactly one
// thread, the loop, even with admin listeners configured.
TEST(Daemon, AdminPlaneAddsNoThread) {
  BbdService::Options options = tcp_options();
  options.admin_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  BbdService service(std::move(options));
  const std::size_t before = thread_count();
  ASSERT_TRUE(service.start().ok());
  EXPECT_EQ(thread_count(), before + 1);
  ASSERT_EQ(service.bound_endpoints().size(), 1u);
  ASSERT_EQ(service.admin_endpoints().size(), 1u);
  auto healthz = admin_get(service.admin_endpoints().front(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.error().to_text();
  EXPECT_EQ(healthz.value().status, 200);
  EXPECT_EQ(healthz.value().body, "ok\n");
  service.stop();
  service.wait();
}

// One connection pipelines reserves at window 8; between windows the same
// thread scrapes every admin route. The loop serves both kinds of
// connection, so each scrape sees the world exactly as the last window
// left it.
TEST(Daemon, AdminScrapesInterleaveWithAPipelinedWindow) {
  BbdService::Options options = tcp_options();
  options.admin_on = {Endpoint::parse("tcp:127.0.0.1:0").value()};
  BbdService service(std::move(options));
  ASSERT_TRUE(service.start().ok());
  const Endpoint admin = service.admin_endpoints().front();
  BbdClient::Options pipelined = client_options(service);
  pipelined.pipeline_depth = 8;
  auto client = BbdClient::connect(pipelined);
  ASSERT_TRUE(client.ok()) << client.error().to_text();
  ASSERT_TRUE(client.value().hello(/*release_on_disconnect=*/false).ok());
  ASSERT_TRUE(client.value().make_user("Erin", 0).ok());

  std::uint64_t reserves = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<BbdClient::Call> calls;
    for (int i = 0; i < 8; ++i) {
      BbdRequest req;
      req.op = BbdOp::kReserve;
      req.stra = "Erin";
      req.f64a = 1e6;
      req.u64b = static_cast<std::uint64_t>(seconds(600));
      req.f64b = static_cast<double>(seconds(1));
      auto call = client.value().call_async(std::move(req));
      ASSERT_TRUE(call.ok()) << call.error().to_text();
      calls.push_back(call.value());
    }
    std::vector<Bytes> grants;
    for (const BbdClient::Call& call : calls) {
      auto res = client.value().wait(call);
      ASSERT_TRUE(res.ok()) << res.error().to_text();
      EXPECT_EQ(res.value().id, call.id);
      auto reply = sig::RarReply::decode(res.value().bytes);
      ASSERT_TRUE(reply.ok()) << reply.error().to_text();
      EXPECT_TRUE(reply.value().granted);
      grants.push_back(res.value().bytes);
    }
    reserves += calls.size();

    auto metrics = admin_get(admin, "/metrics");
    ASSERT_TRUE(metrics.ok()) << metrics.error().to_text();
    EXPECT_EQ(metrics.value().status, 200);
    EXPECT_NE(metrics.value().body.find(obs::kSigRarRequestsTotal),
              std::string::npos);

    auto statz = admin_get(admin, "/statz");
    ASSERT_TRUE(statz.ok()) << statz.error().to_text();
    ASSERT_EQ(statz.value().status, 200);
    auto doc = json::parse(statz.value().body);
    ASSERT_TRUE(doc.ok()) << doc.error().to_text();
    const json::Value* rows = doc.value().find("connections");
    const json::Value* totals = doc.value().find("totals");
    ASSERT_NE(rows, nullptr);
    ASSERT_NE(totals, nullptr);
    // The RPC connection is listed; the scraping connection is not.
    ASSERT_EQ(rows->array.size(), 1u) << statz.value().body;
    const json::Value* total = totals->find("connections");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->number, static_cast<double>(rows->array.size()));

    auto tracez = admin_get(admin, "/tracez");
    ASSERT_TRUE(tracez.ok()) << tracez.error().to_text();
    EXPECT_EQ(tracez.value().status, 200);
    const std::string last_trace =
        "\"trace_id\":\"rar-" + std::to_string(reserves) + "\"";
    EXPECT_NE(tracez.value().body.find(last_trace), std::string::npos)
        << "the reserve that just completed is missing from /tracez";

    auto healthz = admin_get(admin, "/healthz");
    ASSERT_TRUE(healthz.ok());
    EXPECT_EQ(healthz.value().status, 200);
    auto readyz = admin_get(admin, "/readyz");
    ASSERT_TRUE(readyz.ok());
    EXPECT_EQ(readyz.value().status, 200);
    EXPECT_EQ(readyz.value().body, "ready\n");

    // Release the window, pipelined as well.
    calls.clear();
    for (Bytes& grant : grants) {
      BbdRequest req;
      req.op = BbdOp::kRelease;
      req.stra = "hopbyhop";
      req.bytes = std::move(grant);
      auto call = client.value().call_async(std::move(req));
      ASSERT_TRUE(call.ok()) << call.error().to_text();
      calls.push_back(call.value());
    }
    for (const BbdClient::Call& call : calls) {
      auto res = client.value().wait(call);
      ASSERT_TRUE(res.ok()) << res.error().to_text();
      EXPECT_EQ(res.value().id, call.id);
    }
  }
  service.stop();
  service.wait();
}

}  // namespace
}  // namespace e2e::net
