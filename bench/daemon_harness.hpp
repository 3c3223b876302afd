// Daemon-mode harness for the figure benches (docs/DAEMON.md).
//
// `--daemon` reruns a scenario as two communicating OS processes: a forked
// child hosts the full BbdService (StreamServer event loop + ChainWorld)
// on a private UNIX socket, and the bench process drives the identical
// operation sequence through BbdClient. Because the daemon executes the
// same ops against an identically-seeded world, the printed tables — and,
// with E2E_GRANT_DUMP=1, the raw grant bytes — must be byte-identical to
// the in-memory run. scripts/tier1.sh --daemon diffs the two.
//
// The daemon never outlives its bench: it dies with the bench process
// (PR_SET_PDEATHSIG), and a harness dropped without kShutdown kills it
// after a grace period instead of waiting forever.
#pragma once

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/bytes.hpp"
#include "net/bbd_client.hpp"
#include "net/bbd_service.hpp"

namespace e2e::benchutil {

/// True when the bench was invoked with --daemon.
inline bool daemon_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--daemon") return true;
  }
  return false;
}

/// Print one granted reply's canonical bytes when E2E_GRANT_DUMP is set.
/// Both the in-memory and the daemon paths dump through this, so the
/// tier1 --daemon diff covers the grant bytes, not just the tables.
inline void maybe_dump_grant(BytesView reply_bytes) {
  if (std::getenv("E2E_GRANT_DUMP") == nullptr) return;
  std::printf("  grant %s\n", hex_encode(reply_bytes).c_str());
}

/// One forked daemon process + the socket path it serves on.
class DaemonHarness {
 public:
  /// Fork a child hosting BbdService on a fresh UNIX socket; with_admin
  /// also opens the plaintext admin plane on a second UNIX socket
  /// (admin_endpoint()), for the scrape-overhead bench mode.
  static DaemonHarness launch(bool with_admin = false) {
    DaemonHarness h;
    // The counter keeps paths distinct when one bench process launches
    // several daemons in sequence (load_daemon's serial vs pipelined
    // runs).
    static unsigned launch_count = 0;
    const std::string stem =
        "/tmp/e2e_bench_bbd_" + std::to_string(static_cast<long>(::getpid())) +
        "_" + std::to_string(launch_count++);
    h.socket_path_ = stem + ".sock";
    ::unlink(h.socket_path_.c_str());
    if (with_admin) {
      h.admin_path_ = stem + ".admin.sock";
      ::unlink(h.admin_path_.c_str());
    }
    const pid_t parent = ::getpid();
    h.pid_ = ::fork();
    if (h.pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      net::BbdService::Options options;
      options.listen_on = {
          net::Endpoint::parse("unix:" + h.socket_path_).value()};
      if (!h.admin_path_.empty()) {
        options.admin_on = {
            net::Endpoint::parse("unix:" + h.admin_path_).value()};
      }
      net::BbdService service(std::move(options));
      if (!service.start().ok()) ::_exit(1);
      service.wait();  // until the client's kShutdown drains the loop
      ::_exit(0);
    }
    return h;
  }

  /// How long teardown waits for the daemon to exit by itself (after the
  /// client's kShutdown) before it kills it.
  static constexpr std::chrono::seconds kTeardownGrace{5};

  ~DaemonHarness() { reap(); }

  DaemonHarness(const DaemonHarness&) = delete;
  DaemonHarness& operator=(const DaemonHarness&) = delete;

  DaemonHarness(DaemonHarness&& other) noexcept
      : pid_(other.pid_),
        socket_path_(std::move(other.socket_path_)),
        admin_path_(std::move(other.admin_path_)) {
    other.pid_ = -1;
  }
  DaemonHarness& operator=(DaemonHarness&& other) noexcept {
    if (this != &other) {
      reap();
      pid_ = other.pid_;
      socket_path_ = std::move(other.socket_path_);
      admin_path_ = std::move(other.admin_path_);
      other.pid_ = -1;
    }
    return *this;
  }

  /// Retry-connect until the child has built its world and listens.
  /// `pipeline_depth` is how many call_async() calls the client keeps in
  /// flight; 1 keeps the serial wire.
  Result<net::BbdClient> connect(std::uint64_t pipeline_depth = 1) const {
    net::BbdClient::Options options;
    options.connect_to = net::Endpoint::parse("unix:" + socket_path_).value();
    options.pipeline_depth = pipeline_depth;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (true) {
      auto client = net::BbdClient::connect(options);
      if (client.ok()) return client;
      if (std::chrono::steady_clock::now() >= deadline) return client;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  /// The admin plane's endpoint ("unix:/..."); empty unless launched
  /// with_admin.
  std::string admin_endpoint() const {
    return admin_path_.empty() ? std::string() : "unix:" + admin_path_;
  }

  /// The daemon's process id; -1 once reaped.
  pid_t pid() const { return pid_; }

 private:
  DaemonHarness() = default;

  /// Wait up to kTeardownGrace for the daemon to exit, kill it if it has
  /// not, reap it and remove its sockets.
  void reap() {
    if (pid_ <= 0) return;
    const auto deadline = std::chrono::steady_clock::now() + kTeardownGrace;
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
    if (!admin_path_.empty()) ::unlink(admin_path_.c_str());
  }

  pid_t pid_ = -1;
  std::string socket_path_;
  std::string admin_path_;
};

}  // namespace e2e::benchutil
