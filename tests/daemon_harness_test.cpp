// The figure benches' daemon harness (bench/daemon_harness.hpp) never
// hangs its bench and never leaves a daemon behind: a harness dropped
// without kShutdown kills and reaps its daemon after the grace period,
// and a bench process that dies without running destructors takes its
// daemon with it.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <string>
#include <thread>

#include "daemon_harness.hpp"

namespace e2e::benchutil {
namespace {

/// Whether `pid` is a running process (not gone, not a zombie).
bool alive(pid_t pid) {
  if (::kill(pid, 0) != 0) return false;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const auto paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size() &&
         line[paren + 2] != 'Z';
}

TEST(DaemonHarness, DroppedWithoutShutdownKillsAndReapsItsDaemon) {
  pid_t pid = -1;
  const auto start = std::chrono::steady_clock::now();
  {
    DaemonHarness harness = DaemonHarness::launch();
    pid = harness.pid();
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(harness.connect().ok());  // up and serving
  }
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, DaemonHarness::kTeardownGrace + std::chrono::seconds(30));
  // Reaped: the pid names no process, not even a zombie.
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
}

TEST(DaemonHarness, DaemonDiesWithItsBench) {
  // A stand-in bench launches a daemon, reports its pid and exits without
  // running any destructor, as a failed bench's std::abort() would.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t bench = ::fork();
  ASSERT_GE(bench, 0);
  if (bench == 0) {
    ::close(fds[0]);
    DaemonHarness harness = DaemonHarness::launch();
    const pid_t daemon = harness.pid();
    const bool up = harness.connect().ok();
    if (::write(fds[1], &daemon, sizeof daemon) != sizeof daemon || !up) {
      ::_exit(2);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  pid_t daemon = -1;
  ASSERT_EQ(::read(fds[0], &daemon, sizeof daemon),
            static_cast<ssize_t>(sizeof daemon));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(bench, &status, 0), bench);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  ASSERT_GT(daemon, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (alive(daemon) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(alive(daemon)) << "daemon " << daemon << " outlived its bench";
}

}  // namespace
}  // namespace e2e::benchutil
