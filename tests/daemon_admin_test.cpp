// Multi-process admin-plane conformance (ISSUE 9 acceptance).
//
// Spawns the REAL bbd binary (E2E_BBD_PATH) with --admin, drives
// reservation load over the RPC socket, and scrapes the admin endpoint
// like an operator would:
//   - /healthz answers 200 "ok" while the daemon serves;
//   - every family /metrics exposes is declared in the instrument catalog
//     (obs/instruments.hpp), which obs_contract_test keeps equal to the
//     documented contract in docs/OBSERVABILITY.md;
//   - /statz lists the live connections and totals them;
//   - /tracez round-trips through tools/tracedump --from-json;
//   - a graceful SIGTERM drain writes the final metrics snapshot named by
//     --metrics-out, including the shutdown audit record's counter bump.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hpp"
#include "net/bbd_client.hpp"
#include "net/stream_socket.hpp"
#include "obs/instruments.hpp"

#ifndef E2E_BBD_PATH
#error "E2E_BBD_PATH must point at the built bbd binary"
#endif
#ifndef E2E_TRACEDUMP_PATH
#error "E2E_TRACEDUMP_PATH must point at the built tracedump binary"
#endif

namespace e2e::net {
namespace {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One admin exchange: connect, GET, read to EOF (the plane closes the
/// connection after every response). Retries connect until `patience`
/// runs out, so scrapes ride out daemon startup.
Result<HttpReply> admin_get(const Endpoint& endpoint,
                            const std::string& path,
                            std::chrono::seconds patience =
                                std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + patience;
  Result<StreamSocket> socket = make_error(ErrorCode::kUnavailable, "init");
  while (true) {
    socket = StreamSocket::connect(endpoint);
    if (socket.ok()) break;
    if (std::chrono::steady_clock::now() >= deadline) return socket.error();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
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
    if (n < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorCode::kUnavailable,
                        std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos || wire.rfind("HTTP/", 0) != 0) {
    return make_error(ErrorCode::kBadMessage, "malformed admin response");
  }
  HttpReply reply;
  const std::size_t sp = wire.find(' ');
  reply.status =
      sp == std::string::npos ? 0 : std::atoi(wire.c_str() + sp + 1);
  reply.body = wire.substr(head_end + 4);
  return reply;
}

/// Flat "family{labels}" -> value view of a Prometheus text exposition.
std::map<std::string, double> parse_metrics_text(const std::string& text) {
  std::map<std::string, double> series;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    series[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return series;
}

/// The family name of one series key ("name{labels}" or bare "name"),
/// with histogram exposition suffixes (_bucket/_sum/_count) folded back
/// onto the declaring family when that family exists in the catalog.
std::string family_of(const std::string& key,
                      const std::set<std::string>& known) {
  std::string name = key.substr(0, key.find('{'));
  if (known.contains(name)) return name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    if (name.ends_with(suffix)) {
      const std::string base =
          name.substr(0, name.size() - std::strlen(suffix));
      if (known.contains(base)) return base;
    }
  }
  return name;
}

double sum_family(const std::map<std::string, double>& series,
                  const std::string& family) {
  double total = 0;
  for (const auto& [key, value] : series) {
    if (key == family || key.rfind(family + "{", 0) == 0) total += value;
  }
  return total;
}

double number_at(const json::Value& object, const char* key) {
  const json::Value* member = object.find(key);
  return member != nullptr && member->is_number() ? member->number : -1;
}

struct DaemonProcess {
  pid_t pid = -1;
  Endpoint rpc;
  Endpoint admin;

  DaemonProcess() = default;
  DaemonProcess(DaemonProcess&& other) noexcept
      : pid(other.pid),
        rpc(std::move(other.rpc)),
        admin(std::move(other.admin)) {
    other.pid = -1;
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  static DaemonProcess spawn(const std::string& root,
                             const std::string& metrics_out) {
    DaemonProcess daemon;
    daemon.rpc = Endpoint::parse("unix:" + root + "/bbd.sock").value();
    daemon.admin = Endpoint::parse("unix:" + root + "/admin.sock").value();
    daemon.pid = fork();
    if (daemon.pid == 0) {
      const std::string listen = daemon.rpc.to_string();
      const std::string admin_on = daemon.admin.to_string();
      ::execl(E2E_BBD_PATH, E2E_BBD_PATH, "--listen", listen.c_str(),
              "--admin", admin_on.c_str(), "--domains", "3",
              "--metrics-out", metrics_out.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return daemon;
  }

  Result<BbdClient> connect() const {
    BbdClient::Options options;
    options.connect_to = rpc;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (true) {
      auto client = BbdClient::connect(options);
      if (client.ok()) return client;
      if (std::chrono::steady_clock::now() >= deadline) return client;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  /// Graceful drain; returns the daemon's exit status.
  int terminate() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }
};

std::string temp_root() {
  std::string dir = ::testing::TempDir() + "e2e_daemon_admin_XXXXXX";
  std::vector<char> buf(dir.begin(), dir.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

TEST(DaemonAdmin, ScrapeConformanceUnderLoadAndGracefulSnapshot) {
  const std::string root = temp_root();
  const std::string metrics_out = root + "/final.metrics.json";
  DaemonProcess daemon = DaemonProcess::spawn(root, metrics_out);
  ASSERT_GT(daemon.pid, 0);

  // --- Liveness before any load -----------------------------------------
  {
    auto healthz = admin_get(daemon.admin, "/healthz");
    ASSERT_TRUE(healthz.ok()) << healthz.error().to_text();
    EXPECT_EQ(healthz.value().status, 200);
    EXPECT_EQ(healthz.value().body, "ok\n");
    auto readyz = admin_get(daemon.admin, "/readyz");
    ASSERT_TRUE(readyz.ok());
    EXPECT_EQ(readyz.value().status, 200);
  }

  // --- Drive reservation load over the RPC plane ------------------------
  {
    auto client = daemon.connect();
    ASSERT_TRUE(client.ok()) << client.error().to_text();
    ASSERT_TRUE(client.value().hello(/*release_on_disconnect=*/true).ok());
    ASSERT_TRUE(client.value().make_user("admin-user", 0).ok());
    for (int i = 0; i < 8; ++i) {
      BbdClient::ReserveArgs args;
      args.user = "admin-user";
      args.rate = 1e6;
      args.interval = {0, seconds(600)};
      args.at = seconds(1);
      auto outcome = client.value().reserve(args);
      ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
      ASSERT_TRUE(outcome.value().reply.granted);
      if (i % 2 == 0) {
        ASSERT_TRUE(
            client.value()
                .release("hopbyhop", outcome.value().reply_bytes)
                .ok());
      }
    }
    // The connection closing releases the rest (orphan contract).
  }

  // --- Quiesce: connection gone, every reservation released --------------
  // The disconnect finalizer releases the orphans on the connection's
  // worker; /metrics renders through a 250ms snapshot cache, so poll.
  bool quiesced = false;
  for (int i = 0; i < 100 && !quiesced; ++i) {
    auto statz = admin_get(daemon.admin, "/statz");
    auto metrics = admin_get(daemon.admin, "/metrics");
    ASSERT_TRUE(statz.ok());
    ASSERT_TRUE(metrics.ok());
    auto parsed = json::parse(statz.value().body);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
    const json::Value* totals = parsed.value().find("totals");
    ASSERT_NE(totals, nullptr);
    const auto series = parse_metrics_text(metrics.value().body);
    quiesced = number_at(*totals, "connections") == 0 &&
               sum_family(series, obs::kBbReservationsCommittedTotal) > 0 &&
               sum_family(series, obs::kBbReservationsActive) == 0;
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(quiesced) << "reservations still held after the disconnect";

  // Let the snapshot-cache TTL (250ms) lapse so the next /metrics scrape
  // renders the quiesced registry, not a mid-load cache entry.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // --- /metrics: families are exactly the contract catalog's ------------
  auto metrics = admin_get(daemon.admin, "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  const auto series = parse_metrics_text(metrics.value().body);
  ASSERT_FALSE(series.empty());
  std::set<std::string> known;
  for (const auto& info : obs::catalog()) known.insert(info.name);
  for (const auto& [key, value] : series) {
    EXPECT_TRUE(known.contains(family_of(key, known)))
        << key << " scraped from /metrics is not in the instrument catalog";
  }
  EXPECT_GT(sum_family(series, obs::kObsAdminRequestsTotal), 0);

  // --- /statz: one entry per live connection, totalled ------------------
  {
    auto client = daemon.connect();
    ASSERT_TRUE(client.ok()) << client.error().to_text();
    auto statz = admin_get(daemon.admin, "/statz");
    ASSERT_TRUE(statz.ok());
    ASSERT_EQ(statz.value().status, 200);
    auto parsed = json::parse(statz.value().body);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
    const json::Value* connections = parsed.value().find("connections");
    ASSERT_NE(connections, nullptr);
    ASSERT_EQ(connections->array.size(), 1u);
    const json::Value* totals = parsed.value().find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(number_at(*totals, "connections"), 1);
  }

  // --- /tracez round-trips through tracedump --from-json ----------------
  auto tracez = admin_get(daemon.admin, "/tracez");
  ASSERT_TRUE(tracez.ok());
  ASSERT_EQ(tracez.value().status, 200);
  auto tracez_doc = json::parse(tracez.value().body);
  ASSERT_TRUE(tracez_doc.ok()) << tracez_doc.error().to_text();
  const json::Value* traces = tracez_doc.value().find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_FALSE(traces->array.empty())
      << "reservation load should leave collectable traces";
  const std::string tracez_path = root + "/tracez.json";
  const std::string dump_path = root + "/tracedump.out";
  {
    std::ofstream out(tracez_path, std::ios::binary);
    out << tracez.value().body;
  }
  const std::string command = std::string("'") + E2E_TRACEDUMP_PATH +
                              "' --from-json '" + tracez_path + "' > '" +
                              dump_path + "' 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::ifstream dump(dump_path);
  std::stringstream rendered;
  rendered << dump.rdbuf();
  EXPECT_NE(rendered.str().find("traces: "), std::string::npos)
      << rendered.str();
  EXPECT_NE(rendered.str().find("[DomainA]"), std::string::npos)
      << rendered.str();

  // --- Graceful drain: final snapshot + shutdown audit -------------------
  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream file(metrics_out, std::ios::binary);
  ASSERT_TRUE(file.good()) << "--metrics-out snapshot was not written";
  std::stringstream snapshot;
  snapshot << file.rdbuf();
  auto snapshot_doc = json::parse(snapshot.str());
  ASSERT_TRUE(snapshot_doc.ok()) << snapshot_doc.error().to_text();
  const std::string& text = snapshot.str();
  EXPECT_NE(text.find(obs::kObsAdminRequestsTotal), std::string::npos);
  // The shutdown audit record lands before the snapshot is rendered, so
  // its counter bump is part of the final state.
  EXPECT_NE(text.find("\"shutdown\""), std::string::npos);
}

}  // namespace
}  // namespace e2e::net
