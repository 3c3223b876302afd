// perfbench_loadgen: one seeded load run against a forked bbd.
//
// The daemon is this same binary re-executed with --serve: a bare
// net::BbdService on a private UNIX socket, configured only through the
// RPCs the generator sends. The generator drives it through net::BbdClient,
// one client per thread, and measures:
//
//   untraced run (--trace 0)
//     set-up x11 (fork, kConfigure, user minting, tunnel establishment),
//     warm-up, then eight rounds of an open-loop phase at the workload's
//     offered rate (latency from each op's due time) and a closed-loop
//     saturation phase (ops/s, daemon CPU per op from /proc), then the
//     correctness checks. The workloads are the kWorkloads table.
//   traced run (--trace 1)
//     the same daemon phases with the admin plane on and registry scrapes
//     around them, client spans on a second open-loop phase, an idle
//     single-op phase, and an in-process replay of the generated ops
//     against a kit::ChainWorld with a span around every layer call.
//
// Results go to --out as one JSON object; run.py turns them into metrics.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bb/wal.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "kit/chain_world.hpp"
#include "net/bbd_client.hpp"
#include "net/bbd_service.hpp"
#include "net/stream_framing.hpp"
#include "policy/context.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"
#include "sig/trust.hpp"

namespace {

using namespace e2e;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// --- The world every workload runs against ----------------------------------

constexpr std::size_t kDomains = 4;
// Capacity far above any live working set: no op may be denied.
constexpr double kCapacity = 1e12;
constexpr double kSlaRate = 1e12;
constexpr double kTunnelRate = 1e10;
constexpr SimTime kAt = seconds(1);
// Every generated interval covers this instant, so committed bandwidth at
// it exposes any reservation left behind.
constexpr SimTime kCheckAt = seconds(150);

// Op-stream ids of the phases: a connection's stream is seeded by (seed,
// connection, phase), so the replay regenerates the first open-loop
// phase's ops exactly.
constexpr std::uint64_t kWarmPhase = 1;
constexpr std::uint64_t kIdlePhase = 2;
constexpr std::uint64_t kOpenPhase = 10;  // + round
constexpr std::uint64_t kSatPhase = 20;   // + round

kit::ChainWorldConfig world_config() {
  kit::ChainWorldConfig config;
  config.domains = kDomains;
  config.domain_capacity = kCapacity;
  config.sla_rate = kSlaRate;
  return config;
}

enum class Kind { kHbh, kTunnel, kSource, kDurable };

bool is_tunnel(Kind kind) {
  return kind == Kind::kTunnel || kind == Kind::kDurable;
}

// Client connections, one thread each: 2 on 4 cores, so the daemon's loop
// and workers keep cores of their own.
constexpr std::size_t kConns = 2;
// Users minted at set-up for the hop-by-hop and source workloads.
constexpr std::size_t kUsers = 32;

struct Workload {
  const char* name;
  Kind kind;
  double rate;           // offered ops/s of the open-loop phase, all connections
  std::uint64_t window;  // calls in flight per connection
  std::uint64_t hold;    // max ops a grant is held before its release
};

// Offered rates are about 15 % of each workload's closed-loop throughput on
// a 4-core host: at half, every few-millisecond stall of the host queued the
// ops behind it and the latency quantiles spread past any usable bound.
constexpr Workload kWorkloads[] = {
    {"hbh_reserve", Kind::kHbh, 150, 2, 32},
    {"tunnel_flow", Kind::kTunnel, 3000, 8, 64},
    {"source_parallel", Kind::kSource, 1000, 2, 32},
    {"durable_tunnel", Kind::kDurable, 1000, 8, 64},
};

struct Config {
  Workload w = kWorkloads[0];
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string out;
  std::string spans;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Spans ----------------------------------------------------------------------

/// In-memory span store: name, start, end, parent; spans of one op share
/// `op`. Written out once when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint64_t op;
    const char* name;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int32_t open(std::uint64_t op, const char* name) {
    spans_.push_back({op, name, current_, now_ns(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t index) {
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
  }
  std::int32_t add(std::uint64_t op, const char* name, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({op, name, parent, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::uint64_t op, const char* name)
        : tracer_(tracer), index_(tracer.open(op, name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

void write_spans(std::ofstream& file, const char* source, const Tracer& tracer) {
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    file << "{\"source\":\"" << source << "\",\"id\":" << i
         << ",\"op\":" << s.op << ",\"name\":\"" << s.name
         << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

// --- Result document --------------------------------------------------------------

struct Output {
  std::map<std::string, double> values;
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> raw;  // verbatim JSON documents
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    errors.push_back(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
  void check(const std::string& name, bool ok) {
    checks[name] = ok;
    if (!ok) {
      ++failed;
      fail("check failed: " + name);
    }
  }

  std::string json() const {
    std::ostringstream o;
    o.precision(17);
    o << "{\"values\":{";
    bool first = true;
    for (const auto& [k, v] : values) {
      o << (first ? "" : ",") << "\"" << k << "\":" << (std::isfinite(v) ? v : 0);
      first = false;
    }
    o << "},\"checks\":{";
    first = true;
    for (const auto& [k, v] : checks) {
      o << (first ? "" : ",") << "\"" << k << "\":" << (v ? "true" : "false");
      first = false;
    }
    o << "},\"raw\":{";
    first = true;
    for (const auto& [k, v] : raw) {
      o << (first ? "" : ",") << "\"" << k << "\":" << (v.empty() ? "null" : v);
      first = false;
    }
    o << "},\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":" << errors.size() << ",\"optimized\":"
#if defined(__OPTIMIZE__)
      << "true"
#else
      << "false"
#endif
      << "}";
    return o.str();
  }
};

// --- The forked daemon ------------------------------------------------------------

struct LaunchSpec {
  std::string socket;
  std::string admin;
  std::string durability;
  bool recover = false;
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "/proc/self/exe";
  buf[n] = '\0';
  return buf;
}

/// One bbd process. The destructor kills and reaps it and removes its
/// sockets, so no daemon outlives the run on any exit path; the child also
/// dies with this process (PR_SET_PDEATHSIG).
class Daemon {
 public:
  explicit Daemon(LaunchSpec spec) : spec_(std::move(spec)) {}
  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start() {
    ::unlink(spec_.socket.c_str());
    if (!spec_.admin.empty()) ::unlink(spec_.admin.c_str());
    std::vector<std::string> args = {self_exe(), "--serve", "--socket",
                                     spec_.socket};
    if (!spec_.admin.empty()) {
      args.insert(args.end(), {"--admin", spec_.admin});
    }
    if (!spec_.durability.empty()) {
      args.insert(args.end(), {"--durability", spec_.durability});
    }
    if (spec_.recover) args.push_back("--recover");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    return pid_ > 0;
  }

  pid_t pid() const { return pid_; }
  const LaunchSpec& spec() const { return spec_; }

  /// Retry-connect until the daemon listens (or died, or 60 s passed).
  Result<net::BbdClient> connect(std::uint64_t window) {
    net::BbdClient::Options options;
    options.connect_to = net::Endpoint::parse("unix:" + spec_.socket).value();
    options.pipeline_depth = window;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (true) {
      auto client = net::BbdClient::connect(options);
      if (client.ok() || Clock::now() >= deadline || !running()) return client;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Wait up to `patience` for a requested shutdown; SIGKILL after that.
  /// True when the daemon exited by itself with status 0.
  bool reap(std::chrono::milliseconds patience) {
    if (pid_ <= 0) return true;
    const auto deadline = Clock::now() + patience;
    int status = 0;
    while (Clock::now() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        remove_sockets();
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill_and_reap();
    return false;
  }

  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    remove_sockets();
  }

 private:
  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  void remove_sockets() {
    ::unlink(spec_.socket.c_str());
    if (!spec_.admin.empty()) ::unlink(spec_.admin.c_str());
  }

  LaunchSpec spec_;
  pid_t pid_ = -1;
};

int serve(int argc, char** argv) {
  net::BbdService::Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--recover") {
      options.recover = true;
      continue;
    }
    if (i + 1 >= argc) return 2;
    const std::string value = argv[++i];
    if (arg == "--socket") {
      options.listen_on = {net::Endpoint::parse("unix:" + value).value()};
    } else if (arg == "--admin") {
      options.admin_on = {net::Endpoint::parse("unix:" + value).value()};
    } else if (arg == "--durability") {
      options.durability_dir = value;
    }
  }
  // The startup world already has the benchmark's shape, so a recovering
  // daemon replays its log into the same chain kConfigure built.
  options.world = world_config();
  net::BbdService service(std::move(options));
  if (!service.start().ok()) return 1;
  service.wait();
  return 0;
}

// --- /proc and the admin plane -----------------------------------------------

struct ProcSample {
  double cpu_s = 0;
  double threads = 0;
  double ctx_switches = 0;
  double hwm_kb = 0;
  Clock::time_point at;
};

double status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  s.at = Clock::now();
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(text.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok) f.push_back(tok);
    // Fields counted from 3 (state): utime=14, stime=15, num_threads=20.
    if (f.size() > 17) {
      const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
      s.cpu_s = (std::stod(f[11]) + std::stod(f[12])) / tick;
      s.threads = std::stod(f[17]);
    }
  }
  s.hwm_kb = status_field(base + "/status", "VmHWM");
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(base + "/task", ec)) {
    const std::string st = task.path().string() + "/status";
    s.ctx_switches += status_field(st, "voluntary_ctxt_switches") +
                      status_field(st, "nonvoluntary_ctxt_switches");
  }
  return s;
}

/// GET `target` from the admin plane's UNIX socket; the body, or "" on
/// failure.
std::string http_get_unix(const std::string& path, const std::string& target) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req = "GET " + target + " HTTP/1.0\r\nHost: bbd\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, n);
    }
  }
  ::close(fd);
  const auto body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return "";
  }
  return response.substr(body + 4);
}

// --- The seeded op stream -----------------------------------------------------------

struct Op {
  bool release = false;
  std::size_t ref = 0;   // release: index of the reserve it undoes
  std::size_t user = 0;  // reserve: population index
  double rate = 0;
  SimTime start = 0;
  SimTime end = 0;
};

/// Reserves with seeded user, rate and interval; each grant is released a
/// seeded number of ops later, so the brokers carry a live working set.
/// The sequence depends only on the seed, never on replies.
class OpStream {
 public:
  OpStream(std::uint64_t seed, std::size_t users, std::uint64_t hold)
      : rng_(seed), users_(users), hold_(hold) {}

  const Op& next() {
    const std::size_t n = ops_.size();
    Op op;
    if (!due_.empty() && due_.begin()->first <= n) {
      op.release = true;
      op.ref = due_.begin()->second;
      due_.erase(due_.begin());
    } else {
      op.user = rng_.next_below(users_);
      op.rate = 1e5 + static_cast<double>(rng_.next_below(900000));
      op.start = static_cast<SimTime>(rng_.next_below(seconds(100)));
      op.end = seconds(200) + static_cast<SimTime>(rng_.next_below(seconds(800)));
      due_.emplace(n + 1 + rng_.next_below(hold_), n);
    }
    ops_.push_back(op);
    return ops_.back();
  }
  std::size_t size() const { return ops_.size(); }

 private:
  Rng rng_;
  std::size_t users_;
  std::uint64_t hold_;
  std::multimap<std::size_t, std::size_t> due_;
  std::vector<Op> ops_;
};

/// What a release needs from its reserve's reply.
struct Grant {
  Bytes reply_bytes;   // hop-by-hop / source: the granted RarReply
  std::string sub_id;  // tunnel: the flow's sub-reservation id
};

/// Names the daemon knows after set-up.
struct Population {
  std::vector<std::string> users;       // reserve users by index
  std::vector<std::string> tunnel_ids;  // per connection
  std::vector<std::string> tunnel_dns;  // per connection
};

net::BbdRequest reserve_request(Kind kind, const Population& pop,
                                std::size_t conn, const Op& op) {
  net::BbdRequest req;
  req.f64a = op.rate;
  req.u64a = static_cast<std::uint64_t>(op.start);
  req.u64b = static_cast<std::uint64_t>(op.end);
  req.f64b = static_cast<double>(kAt);
  if (is_tunnel(kind)) {
    req.op = net::BbdOp::kTunnelReserve;
    req.stra = pop.tunnel_ids[conn];
    req.strb = pop.tunnel_dns[conn];
  } else {
    req.op = kind == Kind::kSource ? net::BbdOp::kSourceReserve
                                   : net::BbdOp::kReserve;
    req.stra = pop.users[op.user];
    if (kind == Kind::kSource) req.flags = 2u;  // parallel fan-out
  }
  return req;
}

net::BbdRequest release_request(Kind kind, const Population& pop,
                                std::size_t conn, const Grant& grant) {
  net::BbdRequest req;
  if (is_tunnel(kind)) {
    req.op = net::BbdOp::kTunnelRelease;
    req.stra = pop.tunnel_ids[conn];
    req.strb = grant.sub_id;
  } else {
    req.op = net::BbdOp::kRelease;
    req.stra = kind == Kind::kSource ? "source" : "hopbyhop";
    req.bytes = grant.reply_bytes;
  }
  return req;
}

/// Check a reserve's reply: decodes, granted, carries handles.
std::optional<Grant> grant_from(Kind kind, BytesView reply_bytes) {
  auto reply = sig::RarReply::decode(reply_bytes);
  if (!reply.ok() || !reply->granted || reply->handles.empty()) {
    return std::nullopt;
  }
  Grant g;
  if (is_tunnel(kind)) {
    g.sub_id = reply->handles[0].second;
  } else {
    g.reply_bytes = Bytes(reply_bytes.begin(), reply_bytes.end());
  }
  return g;
}

// --- One connection ------------------------------------------------------------------

class Connection {
 public:
  Connection(const Config& cfg, const Population& pop, std::size_t index,
         net::BbdClient client)
      : cfg_(cfg), pop_(pop), index_(index), client_(std::move(client)) {}

  void start_phase(std::uint64_t phase) {
    stream_.emplace(mix(mix(cfg_.seed, index_), phase), kUsers, cfg_.w.hold);
    inflight_.clear();
    latency_us.clear();
    late_us.clear();
    send_us.clear();
    completed = 0;
  }
  std::size_t index() const { return index_; }
  std::size_t in_flight() const { return inflight_.size(); }
  std::uint64_t window() const { return cfg_.w.window; }

  /// Send the stream's next op, due at `due`. A release first waits for
  /// its reserve's reply.
  void send_next(Clock::time_point due) {
    const std::size_t index = stream_->size();
    const Op op = stream_->next();
    net::BbdRequest req;
    if (op.release) {
      while (grants_.count(op.ref) == 0 && pending(op.ref)) complete_oldest();
      const auto it = grants_.find(op.ref);
      if (it == grants_.end()) return;  // its reserve failed, counted there
      req = release_request(cfg_.w.kind, pop_, index_, it->second);
      grants_.erase(it);
    } else {
      req = reserve_request(cfg_.w.kind, pop_, index_, op);
    }
    send(std::move(req), index, !op.release, due);
  }

  /// Redeem the oldest in-flight call (the daemon answers one connection
  /// in order, so it is also the next to arrive).
  void complete_oldest() {
    const Inflight f = inflight_.front();
    inflight_.erase(inflight_.begin());
    const auto wait_start = now_ns();
    auto res = client_.wait(f.call);
    const auto done = Clock::now();
    if (tracer != nullptr) {
      const std::uint64_t op = (static_cast<std::uint64_t>(index_) << 40) | f.op;
      const std::int32_t root = tracer->add(
          op, "client.op", -1,
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              f.due.time_since_epoch()).count(),
          now_ns());
      tracer->add(op, "net.client_send", root, f.send_start_ns, f.send_end_ns);
      tracer->add(op, "net.client_wait", root, wait_start, now_ns());
    }
    if (!res.ok()) {
      note_failure("op failed: " + res.error().to_text());
      return;
    }
    if (res->id != f.call.id) {
      note_failure("response id mismatch");
      return;
    }
    if (f.reserve) {
      auto grant = grant_from(cfg_.w.kind, res->bytes);
      if (!grant.has_value()) {
        note_failure("reserve not granted or without handles");
        return;
      }
      grants_[f.op] = std::move(*grant);
      ++granted;
    } else {
      ++released;
    }
    ++completed;
    if (f.reserve) latency_us.push_back(us_between(f.due, done));
  }

  /// Finish every in-flight call, then release every grant still held.
  void drain() {
    while (!inflight_.empty()) complete_oldest();
    std::vector<Grant> live;
    for (auto& [op, grant] : grants_) live.push_back(std::move(grant));
    grants_.clear();
    for (const Grant& g : live) {
      while (inflight_.size() >= cfg_.w.window) complete_oldest();
      send(release_request(cfg_.w.kind, pop_, index_, g), 0, false, Clock::now());
    }
    while (!inflight_.empty()) complete_oldest();
  }

  // Over the whole run: reserves granted and releases acknowledged. Every
  // op ends released only if the two are equal.
  std::uint64_t granted = 0;
  std::uint64_t released = 0;

  // Reserves only: a release costs a small fraction of a reserve, and a
  // quantile of the mixture would sit on the edge between the two modes.
  std::vector<double> latency_us;  // due -> wait() returned
  std::vector<double> late_us;     // sent - due
  std::vector<double> send_us;     // time inside call_async
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  Tracer* tracer = nullptr;

 private:
  struct Inflight {
    net::BbdClient::Call call;
    std::size_t op;
    bool reserve;
    Clock::time_point due;
    std::int64_t send_start_ns;
    std::int64_t send_end_ns;
  };

  void send(net::BbdRequest req, std::size_t op, bool reserve,
            Clock::time_point due) {
    ++attempted;
    const auto start = Clock::now();
    const auto start_ns = now_ns();
    auto call = client_.call_async(std::move(req));
    const auto end_ns = now_ns();
    late_us.push_back(us_between(due, start));
    send_us.push_back(static_cast<double>(end_ns - start_ns) / 1e3);
    if (!call.ok()) {
      note_failure("send failed: " + call.error().to_text());
      return;
    }
    inflight_.push_back({call.value(), op, reserve, due, start_ns, end_ns});
  }
  bool pending(std::size_t op) const {
    for (const auto& f : inflight_) {
      if (f.op == op && f.reserve) return true;
    }
    return false;
  }
  void note_failure(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  const Config& cfg_;
  const Population& pop_;
  std::size_t index_;
  net::BbdClient client_;
  std::optional<OpStream> stream_;
  std::vector<Inflight> inflight_;
  std::map<std::size_t, Grant> grants_;
};

/// Run one phase on every connection's own thread. `timed` is the measured
/// part. After all threads finish it, `between` runs here, and then every
/// connection drains (finishes calls, releases held grants).
void run_phase(std::vector<std::unique_ptr<Connection>>& conns,
               std::uint64_t phase,
               const std::function<void(Connection&)>& timed,
               const std::function<void()>& between) {
  std::latch timed_done(static_cast<std::ptrdiff_t>(conns.size()));
  std::latch go_drain(1);
  std::vector<std::thread> threads;
  for (auto& d : conns) {
    d->start_phase(phase);
    threads.emplace_back([&, conn = d.get()] {
      timed(*conn);
      timed_done.count_down();
      go_drain.wait();
      conn->drain();
    });
  }
  timed_done.wait();
  if (between) between();
  go_drain.count_down();
  for (auto& t : threads) t.join();
}

void open_loop(Connection& d, Clock::time_point t0, Clock::time_point t_end,
               double period_us) {
  for (std::uint64_t i = 0;; ++i) {
    const auto due = t0 + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(period_us * 1e3 * i));
    if (due >= t_end) break;
    while (d.in_flight() >= d.window()) d.complete_oldest();
    while (Clock::now() < due) {
      if (d.in_flight() > 0) {
        d.complete_oldest();
      } else {
        std::this_thread::sleep_until(due);
      }
    }
    d.send_next(due);
  }
}

void closed_loop(Connection& d, Clock::time_point t_end) {
  while (Clock::now() < t_end) {
    while (d.in_flight() < d.window() && Clock::now() < t_end) {
      d.send_next(Clock::now());
    }
    if (d.in_flight() > 0) d.complete_oldest();
  }
  while (d.in_flight() > 0) d.complete_oldest();
}

// --- Set-up ------------------------------------------------------------------------

/// The daemon's committed state as kStats and its registry report it.
/// kStats covers the brokers' own pools; tunnel flows are committed only in
/// their tunnel's pool, which the commit and release counters of every
/// capacity pool (domain, peer-SLA and tunnel) also cover.
struct DaemonState {
  net::BbdClient::Stats stats;
  double pool_commits = 0;
  double pool_releases = 0;

  double live_commitments() const { return pool_commits - pool_releases; }
};

Result<DaemonState> daemon_state(net::BbdClient& c) {
  DaemonState s;
  auto stats = c.stats(kCheckAt);
  if (!stats.ok()) return stats.error();
  s.stats = stats.value();
  auto commits = c.metric("e2e_bb_pool_commits_total", "", "counter");
  if (!commits.ok()) return commits.error();
  auto releases = c.metric("e2e_bb_pool_releases_total", "", "counter");
  if (!releases.ok()) return releases.error();
  s.pool_commits = commits.value();
  s.pool_releases = releases.value();
  return s;
}

struct Run {
  std::unique_ptr<Daemon> daemon;
  std::optional<net::BbdClient> control;
  Population pop;
  std::vector<std::unique_ptr<Connection>> conns;
  DaemonState baseline;
  double setup_s = 0;
};

/// Fork a fresh daemon and bring it to the first timed op: kConfigure,
/// user minting, tunnel establishment, one pipelined connection per
/// thread. Returns nullptr (with the reason in `out`) on any failure.
std::unique_ptr<Run> set_up(const Config& cfg, const LaunchSpec& spec,
                            Output& out) {
  auto run = std::make_unique<Run>();
  const auto t0 = Clock::now();
  run->daemon = std::make_unique<Daemon>(spec);
  if (!run->daemon->start()) {
    out.fail("fork failed");
    return nullptr;
  }
  auto control = run->daemon->connect(1);
  if (!control.ok()) {
    out.fail("connect failed: " + control.error().to_text());
    return nullptr;
  }
  run->control.emplace(std::move(control.value()));
  net::BbdClient& c = *run->control;
  if (!c.hello(false).ok() ||
      !c.configure(kDomains, 0, 0, kCapacity, kSlaRate).ok()) {
    out.fail("configure failed");
    return nullptr;
  }
  if (is_tunnel(cfg.w.kind)) {
    for (std::size_t i = 0; i < kConns; ++i) {
      const std::string name = "t" + std::to_string(i);
      auto dn = c.make_user(name, 0);
      net::BbdClient::ReserveArgs agg;
      agg.user = name;
      agg.rate = kTunnelRate;
      agg.interval = {0, seconds(36000)};
      agg.is_tunnel = true;
      agg.at = kAt;
      auto tunnel = dn.ok() ? c.reserve(agg)
                            : Result<net::BbdClient::RemoteOutcome>(dn.error());
      if (!tunnel.ok() || !tunnel->reply.granted) {
        out.fail("tunnel establishment failed");
        return nullptr;
      }
      run->pop.tunnel_ids.push_back(tunnel->reply.tunnel_id);
      run->pop.tunnel_dns.push_back(dn.value());
    }
  } else {
    const bool everywhere = cfg.w.kind == Kind::kSource;
    for (std::size_t i = 0; i < kUsers; ++i) {
      const std::string name = "u" + std::to_string(i);
      if (!c.make_user(name, 0, true, everywhere).ok()) {
        out.fail("make_user failed");
        return nullptr;
      }
      run->pop.users.push_back(name);
    }
  }
  for (std::size_t i = 0; i < kConns; ++i) {
    auto client = run->daemon->connect(cfg.w.window);
    if (!client.ok() || !client->hello(false).ok()) {
      out.fail("connection failed");
      return nullptr;
    }
    run->conns.push_back(std::make_unique<Connection>(cfg, run->pop, i,
                                                    std::move(client.value())));
  }
  run->setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  auto state = daemon_state(c);
  if (!state.ok()) {
    out.fail("stats failed");
    return nullptr;
  }
  run->baseline = state.value();
  return run;
}

/// Graceful kShutdown, then reap; kill if it does not exit.
bool tear_down(Run& run) {
  bool ok = run.control.has_value() && run.control->shutdown_daemon().ok();
  run.conns.clear();
  run.control.reset();
  ok = run.daemon->reap(std::chrono::seconds(20)) && ok;
  return ok;
}

bool same_state(const DaemonState& a, const DaemonState& b) {
  return a.stats.reservations == b.stats.reservations &&
         std::fabs(a.stats.committed - b.stats.committed) <=
             1e-9 * std::max(1.0, std::fabs(a.stats.committed)) &&
         a.live_commitments() == b.live_commitments();
}

// --- The in-process replay ------------------------------------------------------------

/// What BbdService::handle does for the benchmark's ops, with a span
/// around each public call into sig.
net::BbdResponse execute(kit::ChainWorld& world,
                         const std::map<std::string, kit::WorldUser>& users,
                         const net::BbdRequest& req, Tracer& tr,
                         std::uint64_t op) {
  auto failure = [&](const Error& e) {
    return net::BbdResponse::failure(req.id, e);
  };
  net::BbdResponse res = net::BbdResponse::success(req.id);
  switch (req.op) {
    case net::BbdOp::kReserve:
    case net::BbdOp::kSourceReserve: {
      const auto it = users.find(req.stra);
      if (it == users.end()) {
        return failure(Error{ErrorCode::kNotFound, "unknown user", req.stra});
      }
      sig::RarReply reply;
      {
        Tracer::Scope s(tr, op, "sig.reserve");
        bb::ResSpec spec = world.spec(
            it->second, req.f64a,
            TimeInterval{static_cast<SimTime>(req.u64a),
                         static_cast<SimTime>(req.u64b)});
        const SimTime at = static_cast<SimTime>(req.f64b);
        if (req.op == net::BbdOp::kReserve) {
          auto msg = world.engine().build_user_request(
              it->second.credentials(), spec, at);
          if (!msg.ok()) return failure(msg.error());
          auto outcome = world.engine().reserve(msg.value(), at);
          if (!outcome.ok()) return failure(outcome.error());
          reply = std::move(outcome.value().reply);
        } else {
          auto outcome = world.source_engine().reserve(
              world.names(), spec, it->second.identity_cert,
              it->second.identity_keys.priv,
              sig::SourceDomainEngine::Mode::kParallel, at);
          if (!outcome.ok()) return failure(outcome.error());
          reply = std::move(outcome.value().reply);
        }
      }
      Tracer::Scope s(tr, op, "sig.msg");
      res.bytes = reply.encode();
      return res;
    }
    case net::BbdOp::kTunnelReserve: {
      sig::RarReply reply;
      {
        Tracer::Scope s(tr, op, "sig.reserve");
        auto outcome = world.engine().reserve_in_tunnel(
            req.stra, req.strb, req.f64a,
            TimeInterval{static_cast<SimTime>(req.u64a),
                         static_cast<SimTime>(req.u64b)},
            static_cast<SimTime>(req.f64b));
        if (!outcome.ok()) return failure(outcome.error());
        reply = std::move(outcome.value().reply);
      }
      Tracer::Scope s(tr, op, "sig.msg");
      res.bytes = reply.encode();
      return res;
    }
    case net::BbdOp::kRelease: {
      Result<sig::RarReply> reply = [&] {
        Tracer::Scope s(tr, op, "sig.msg");
        return sig::RarReply::decode(req.bytes);
      }();
      if (!reply.ok()) return failure(reply.error());
      Tracer::Scope s(tr, op, "sig.release");
      const Status released =
          req.stra == "source"
              ? world.source_engine().release_end_to_end(reply.value())
              : world.engine().release_end_to_end(reply.value());
      return released.ok() ? res : failure(released.error());
    }
    case net::BbdOp::kTunnelRelease: {
      Tracer::Scope s(tr, op, "sig.release");
      const Status released = world.engine().release_in_tunnel(req.stra, req.strb);
      return released.ok() ? res : failure(released.error());
    }
    default:
      return failure(Error{ErrorCode::kInvalidArgument, "op not replayed", ""});
  }
}

/// One RPC as the daemon's worker and the client run it, minus sockets
/// and threads: encode, seal, frame, deframe, open, decode, execute, and
/// the same back. Every step is its own span under the op's root span.
class ReplayChannel {
 public:
  explicit ReplayChannel(sig::SessionPair pair)
      : client_(std::move(pair.initiator)), server_(std::move(pair.responder)) {}

  Result<net::BbdResponse> call(kit::ChainWorld& world,
                                const std::map<std::string, kit::WorldUser>& users,
                                net::BbdRequest req, Tracer& tr,
                                std::uint64_t op, bool reserve) {
    req.id = op + 1;
    Tracer::Scope root(tr, op, reserve ? "op.reserve" : "op.release");
    Bytes frame;
    {
      Tracer::Scope s(tr, op, "net.codec");
      frame = req.encode();
    }
    {
      Tracer::Scope s(tr, op, "sig.channel.seal");
      frame = sig::encode_record(client_.seal(frame));
    }
    {
      Tracer::Scope s(tr, op, "net.framing");
      frame = net::encode_frame(frame);
    }
    auto payload = deframe(server_decoder_, frame, tr, op);
    if (!payload.ok()) return payload.error();
    Result<Bytes> opened = open(server_, payload.value(), tr, op);
    if (!opened.ok()) return opened.error();
    Result<net::BbdRequest> decoded = [&] {
      Tracer::Scope s(tr, op, "net.codec");
      return net::BbdRequest::decode(opened.value());
    }();
    if (!decoded.ok()) return decoded.error();
    net::BbdResponse res;
    {
      Tracer::Scope s(tr, op, "exec");
      res = execute(world, users, decoded.value(), tr, op);
    }
    {
      Tracer::Scope s(tr, op, "net.codec");
      frame = res.encode();
    }
    {
      Tracer::Scope s(tr, op, "sig.channel.seal");
      frame = sig::encode_record(server_.seal(frame));
    }
    {
      Tracer::Scope s(tr, op, "net.framing");
      frame = net::encode_frame(frame);
    }
    payload = deframe(client_decoder_, frame, tr, op);
    if (!payload.ok()) return payload.error();
    opened = open(client_, payload.value(), tr, op);
    if (!opened.ok()) return opened.error();
    Tracer::Scope s(tr, op, "net.codec");
    auto response = net::BbdResponse::decode(opened.value());
    if (response.ok() && !response->ok) return response->to_error();
    return response;
  }

 private:
  static Result<Bytes> deframe(net::FrameDecoder& decoder, const Bytes& frame,
                               Tracer& tr, std::uint64_t op) {
    Tracer::Scope s(tr, op, "net.framing");
    if (auto fed = decoder.feed(frame); !fed.ok()) return fed.error();
    auto next = decoder.next();
    if (!next.has_value()) {
      return make_error(ErrorCode::kBadMessage, "no frame", "replay");
    }
    return std::move(*next);
  }
  static Result<Bytes> open(sig::Session& session, const Bytes& payload,
                            Tracer& tr, std::uint64_t op) {
    Tracer::Scope s(tr, op, "sig.channel.open");
    auto record = sig::decode_record(payload);
    if (!record.ok()) return record.error();
    return session.open(record.value());
  }

  sig::Session client_;
  sig::Session server_;
  net::FrameDecoder server_decoder_;
  net::FrameDecoder client_decoder_;
};

template <class F>
double median_us(std::size_t reps, F&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn(i);
    t.push_back(us_between(a, Clock::now()));
  }
  return quantile(std::move(t), 0.5);
}

/// Time single public calls of each layer on the replay world, outside
/// any op's span tree (they add work no op does).
void probes(kit::ChainWorld& world, const kit::WorldUser& user,
            const std::string& workdir, Output& out) {
  constexpr std::size_t kReps = 200;
  Rng rng(0x70726f6265ull);
  const crypto::KeyPair keys = crypto::generate_keypair(rng, world_config().key_bits);
  std::vector<Bytes> msgs, sigs;
  for (std::size_t i = 0; i < kReps; ++i) {
    Bytes m(64);
    for (auto& b : m) b = static_cast<std::uint8_t>(rng.next_below(256));
    msgs.push_back(m);
  }
  out.values["crypto.sign_us"] = median_us(kReps, [&](std::size_t i) {
    sigs.push_back(crypto::sign(keys.priv, msgs[i]));
  });
  bool verified = true;
  out.values["crypto.verify_miss_us"] = median_us(kReps, [&](std::size_t i) {
    verified &= crypto::verify(keys.pub, msgs[i], sigs[i]);
  });
  out.values["crypto.verify_hit_us"] = median_us(kReps, [&](std::size_t) {
    verified &= crypto::verify(keys.pub, msgs[0], sigs[0]);
  });

  // The user's RAR as domain D receives it: three broker layers deep.
  const auto request_at = [&](std::size_t i) {
    bb::ResSpec spec = world.spec(user, 1e5 + static_cast<double>(i));
    return world.engine().build_user_request(user.credentials(), spec, kAt);
  };
  std::vector<sig::RarMessage> requests;
  for (std::size_t i = 0; i < kReps; ++i) {
    auto msg = request_at(i);
    if (!msg.ok()) {
      out.fail("probe: build_user_request failed");
      return;
    }
    requests.push_back(std::move(msg.value()));
  }
  out.values["sig.trust.verify_user_us"] = median_us(kReps, [&](std::size_t i) {
    verified &= sig::verify_user_request(requests[i], user.identity_cert,
                                         world.broker(0).dn(), kAt)
                    .ok();
  });
  sig::RarMessage deep = requests[0];
  for (std::size_t i = 0; i + 1 < kDomains; ++i) {
    sig::BrokerLayer layer;
    layer.upstream_certificate =
        i == 0 ? user.identity_cert.encode()
               : world.broker(i - 1).certificate().encode();
    layer.downstream_dn = world.broker(i + 1).dn().to_string();
    layer.signer_dn = world.broker(i).dn().to_string();
    deep.append_broker_layer(std::move(layer), world.broker(i).private_key());
  }
  Bytes deep_bytes;
  out.values["sig.msg.rar_encode_us"] =
      median_us(kReps, [&](std::size_t) { deep_bytes = deep.encode(); });
  out.values["sig.msg.rar_bytes"] = static_cast<double>(deep_bytes.size());
  out.values["sig.msg.rar_decode_us"] = median_us(kReps, [&](std::size_t) {
    verified &= sig::RarMessage::decode(deep_bytes).ok();
  });

  // A granted four-domain hop-by-hop reply.
  auto granted = world.engine().reserve(requests[1], kAt);
  if (!granted.ok() || !granted->reply.granted) {
    out.fail("probe: hop-by-hop reserve failed");
    return;
  }
  Bytes reply_bytes;
  out.values["sig.msg.reply_encode_us"] = median_us(
      kReps, [&](std::size_t) { reply_bytes = granted->reply.encode(); });
  out.values["sig.msg.reply_decode_us"] = median_us(kReps, [&](std::size_t) {
    verified &= sig::RarReply::decode(reply_bytes).ok();
  });
  verified &= world.engine().release_end_to_end(granted->reply).ok();

  policy::EvalContext ctx;
  ctx.set_user(user.dn.to_string());
  ctx.set_bandwidth(1e6);
  ctx.set_time(kAt);
  ctx.set_available_bandwidth(kCapacity);
  out.values["policy.decide_us"] = median_us(kReps, [&](std::size_t) {
    verified &= world.broker(0).policy_server().decide(ctx).decision ==
                policy::Decision::kGrant;
  });

  // Admission on domain A's broker while it still holds the live set.
  bb::BandwidthBroker& broker = world.broker(0);
  const bb::ResSpec spec = world.spec(user, 1e5, {seconds(10), seconds(300)});
  std::vector<double> commit_us, release_us;
  for (std::size_t i = 0; i < kReps; ++i) {
    const auto a = Clock::now();
    auto id = broker.commit(spec, "");
    const auto b = Clock::now();
    verified &= id.ok() && broker.release(id.value()).ok();
    commit_us.push_back(us_between(a, b));
    release_us.push_back(us_between(b, Clock::now()));
  }
  out.values["bb.commit_us"] = quantile(commit_us, 0.5);
  out.values["bb.release_us"] = quantile(release_us, 0.5);

  // WAL append + group commit (fsync) on the run's filesystem.
  const std::string wal_path = workdir + "/probe.wal";
  fs::remove(wal_path);
  auto wal = bb::WriteAheadLog::open(wal_path);
  if (!wal.ok()) {
    out.fail("probe: wal open failed");
    return;
  }
  out.values["bb.wal.commit_us"] = median_us(50, [&](std::size_t i) {
    verified &= wal.value()
                    ->log("DomainA", "admit",
                          {{"id", "probe-" + std::to_string(i)}, {"rate", "1"}})
                    .ok();
  });
  wal.value().reset();
  fs::remove(wal_path);
  out.check("probes_ok", verified);
}

/// Replay the open-loop phase's generated ops in-process, one connection's
/// stream after another op by op, until `budget` runs out.
void replay(const Config& cfg, Tracer& tr, Output& out,
            std::chrono::duration<double> budget) {
  kit::ChainWorldConfig wc = world_config();
  if (cfg.w.kind == Kind::kDurable) {
    wc.durability_dir = cfg.workdir + "/replay-wal";
    fs::remove_all(wc.durability_dir);
    fs::create_directories(wc.durability_dir);
  }
  kit::ChainWorld world(wc);
  std::map<std::string, kit::WorldUser> users;
  Population pop;
  if (is_tunnel(cfg.w.kind)) {
    for (std::size_t i = 0; i < kConns; ++i) {
      const std::string name = "t" + std::to_string(i);
      kit::WorldUser user = world.make_user(name, 0);
      bb::ResSpec spec = world.spec(user, kTunnelRate, {0, seconds(36000)});
      spec.is_tunnel = true;
      auto msg = world.engine().build_user_request(user.credentials(), spec, kAt);
      auto outcome = msg.ok() ? world.engine().reserve(msg.value(), kAt)
                              : Result<sig::HopByHopEngine::Outcome>(msg.error());
      if (!outcome.ok() || !outcome->reply.granted) {
        out.check("replay_ok", false);
        return;
      }
      pop.tunnel_ids.push_back(outcome->reply.tunnel_id);
      pop.tunnel_dns.push_back(user.dn.to_string());
      users.emplace(name, std::move(user));
    }
  } else {
    for (std::size_t i = 0; i < kUsers; ++i) {
      const std::string name = "u" + std::to_string(i);
      users.emplace(name, world.make_user(name, 0, true, cfg.w.kind == Kind::kSource));
      pop.users.push_back(name);
    }
  }
  const std::size_t baseline_reservations = world.total_reservations();
  const double baseline_committed = world.total_committed_at(kCheckAt);
  Rng rng(0x7265706c6179ull);
  const net::ServiceIdentity identity =
      net::make_service_identity(net::kDefaultAuthSeed);
  auto pair = sig::handshake(identity.client_endpoint(),
                             identity.daemon_endpoint(), 0, rng);
  if (!pair.ok()) {
    out.check("replay_ok", false);
    return;
  }
  ReplayChannel channel(std::move(pair.value()));

  std::vector<OpStream> streams;
  std::vector<std::map<std::size_t, Grant>> grants(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    streams.emplace_back(mix(mix(cfg.seed, c), kOpenPhase), kUsers, cfg.w.hold);
  }
  std::uint64_t ops = 0, failures = 0;
  std::uint64_t op_id = 0;
  const auto run_op = [&](std::size_t c, net::BbdRequest req, bool reserve,
                          std::size_t stream_index) {
    ++ops;
    auto res = channel.call(world, users, std::move(req), tr, op_id++, reserve);
    if (!res.ok()) {
      ++failures;
      return;
    }
    if (reserve) {
      auto grant = grant_from(cfg.w.kind, res->bytes);
      if (!grant.has_value()) {
        ++failures;
        return;
      }
      grants[c][stream_index] = std::move(*grant);
    }
  };
  const auto deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    for (std::size_t c = 0; c < kConns; ++c) {
      const std::size_t index = streams[c].size();
      const Op op = streams[c].next();
      if (op.release) {
        const auto it = grants[c].find(op.ref);
        if (it == grants[c].end()) continue;
        net::BbdRequest req = release_request(cfg.w.kind, pop, c, it->second);
        grants[c].erase(it);
        run_op(c, std::move(req), false, index);
      } else {
        run_op(c, reserve_request(cfg.w.kind, pop, c, op), true, index);
      }
    }
  }
  out.values["replay.ops"] = static_cast<double>(ops);
  probes(world, users.begin()->second, cfg.workdir, out);
  for (std::size_t c = 0; c < kConns; ++c) {
    for (auto& [index, grant] : grants[c]) {
      run_op(c, release_request(cfg.w.kind, pop, c, grant), false, index);
    }
    grants[c].clear();
  }
  out.attempted += ops;
  out.failed += failures;
  out.check("replay_ok", failures == 0);
  out.check("replay_residual_zero",
            world.total_reservations() == baseline_reservations &&
                world.total_committed_at(kCheckAt) == baseline_committed);
  if (cfg.w.kind == Kind::kDurable) fs::remove_all(wc.durability_dir);
}

/// Per-layer self times of the replay: each span's duration minus its
/// children's, averaged per op; engine-call quantiles by kind.
void analyse_replay(const Tracer& tr, Output& out) {
  const auto& spans = tr.spans();
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ns;
  double root_ns = 0, covered_ns = 0;
  std::size_t roots = 0;
  std::vector<double> reserve_op, release_op, reserve_call, release_call;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - static_cast<double>(child[i]);
    const std::string name = s.name;
    if (s.parent < 0) {
      root_ns += dur;
      ++roots;
      (name == "op.reserve" ? reserve_op : release_op).push_back(dur / 1e3);
      continue;
    }
    self_ns[name] += self;
    covered_ns += self;
    if (name == "sig.reserve") reserve_call.push_back(dur / 1e3);
    if (name == "sig.release") release_call.push_back(dur / 1e3);
  }
  if (roots == 0) return;
  const double n = static_cast<double>(roots);
  for (const char* layer : {"net.codec", "net.framing", "sig.channel.seal",
                            "sig.channel.open", "sig.msg", "exec"}) {
    out.values[std::string("replay.self.") + layer + "_us"] =
        self_ns[layer] / n / 1e3;
  }
  out.values["replay.self.sig.reserve_us"] = self_ns["sig.reserve"] / n / 1e3;
  out.values["replay.self.sig.release_us"] = self_ns["sig.release"] / n / 1e3;
  out.values["replay.op_us"] = root_ns / n / 1e3;
  out.values["replay.coverage"] = covered_ns / root_ns;
  out.values["replay.reserve_op_p50_us"] = quantile(reserve_op, 0.5);
  out.values["replay.release_op_p50_us"] = quantile(release_op, 0.5);
  out.values["replay.all_op_p50_us"] = [&] {
    std::vector<double> all = reserve_op;
    all.insert(all.end(), release_op.begin(), release_op.end());
    return quantile(std::move(all), 0.5);
  }();
  out.values["sig.reserve_us"] = quantile(reserve_call, 0.5);
  out.values["sig.reserve_p99_us"] = quantile(reserve_call, 0.99);
  out.values["sig.release_us"] = quantile(release_call, 0.5);
}

// --- The two kinds of run --------------------------------------------------------------

struct PhaseStats {
  std::vector<double> latency_us, late_us, send_us;
  std::uint64_t completed = 0;
};

PhaseStats collect(std::vector<std::unique_ptr<Connection>>& conns, Output& out) {
  PhaseStats p;
  for (auto& d : conns) {
    p.latency_us.insert(p.latency_us.end(), d->latency_us.begin(),
                        d->latency_us.end());
    p.late_us.insert(p.late_us.end(), d->late_us.begin(), d->late_us.end());
    p.send_us.insert(p.send_us.end(), d->send_us.begin(), d->send_us.end());
    p.completed += d->completed;
    out.attempted += d->attempted;
    out.failed += d->failed;
    if (!d->first_error.empty()) out.fail(d->first_error);
    d->attempted = d->failed = 0;
    d->first_error.clear();
  }
  return p;
}

/// Open-loop phase at cfg.w.rate; returns its stats.
PhaseStats run_open(const Config& cfg, Run& run, std::uint64_t phase,
                    double seconds, Output& out) {
  const double period_us = 1e6 * static_cast<double>(kConns) / cfg.w.rate;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  // Connections take turns: connection c's ops fall c/conns of a period
  // after connection 0's, so together they arrive evenly spaced.
  const double stagger_us = period_us / static_cast<double>(kConns);
  run_phase(run.conns, phase,
            [&](Connection& d) {
              const auto start =
                  t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           stagger_us * 1e3 * static_cast<double>(d.index())));
              open_loop(d, start, t_end, period_us);
            },
            nullptr);
  return collect(run.conns, out);
}

struct SatResult {
  PhaseStats stats;
  ProcSample before, after;
  double wall_s = 0;
  double rars_per_s = 0;
  double cpu_us_per_rar = 0;
};

SatResult run_saturation(Run& run, std::uint64_t phase, double seconds,
                         Output& out, const std::function<void()>& between) {
  SatResult r;
  const pid_t pid = run.daemon->pid();
  r.before = sample_proc(pid);
  const auto t_end = r.before.at + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  run_phase(run.conns, phase, [&](Connection& d) { closed_loop(d, t_end); },
            [&] {
              r.after = sample_proc(pid);
              if (between) between();
            });
  r.stats = collect(run.conns, out);
  r.wall_s = std::chrono::duration<double>(r.after.at - r.before.at).count();
  const double ops = static_cast<double>(r.stats.completed);
  r.rars_per_s = ops / r.wall_s;
  r.cpu_us_per_rar = ops > 0 ? 1e6 * (r.after.cpu_s - r.before.cpu_s) / ops : 0;
  return r;
}

void final_checks(const Config& cfg, Run& run, Output& out) {
  std::uint64_t granted = 0, released = 0;
  for (auto& d : run.conns) {
    granted += d->granted;
    released += d->released;
  }
  out.check("all_released", granted == released);
  auto end = daemon_state(*run.control);
  out.check("residual_zero", end.ok() && same_state(end.value(), run.baseline));
  const LaunchSpec spec = run.daemon->spec();
  out.check("daemon_exit_clean", tear_down(run));
  if (cfg.w.kind != Kind::kDurable || !end.ok()) return;
  // A daemon restarted with --recover on this run's WAL must come back
  // with the same committed state, and must have replayed every flow's
  // tunnel_alloc and tunnel_release record: its pools released as many
  // commitments as this run's did after set-up.
  LaunchSpec again = spec;
  again.recover = true;
  again.admin.clear();
  Daemon recovered(again);
  bool same = false;
  if (recovered.start()) {
    auto client = recovered.connect(1);
    if (client.ok()) {
      auto after = daemon_state(*client);
      same = after.ok() && same_state(after.value(), end.value()) &&
             after->pool_releases ==
                 end->pool_releases - run.baseline.pool_releases;
      (void)client->shutdown_daemon();
    }
  }
  recovered.reap(std::chrono::seconds(20));
  out.check("recovery_matches", same);
}

LaunchSpec launch_spec(const Config& cfg) {
  LaunchSpec spec;
  spec.socket = cfg.workdir + "/bbd.sock";
  if (cfg.w.kind == Kind::kDurable) spec.durability = cfg.workdir + "/wal";
  if (cfg.trace) spec.admin = cfg.workdir + "/admin.sock";
  return spec;
}

std::unique_ptr<Run> fresh_run(const Config& cfg, Output& out) {
  const LaunchSpec spec = launch_spec(cfg);
  if (!spec.durability.empty()) {
    fs::remove_all(spec.durability);
    fs::create_directories(spec.durability);
  }
  return set_up(cfg, spec, out);
}

/// Untimed warm-up at the offered rate: a fixed op count, so the daemon's
/// memory after it does not depend on how fast the daemon is.
void warm_up(const Config& cfg, Run& run, Output& out) {
  (void)run_open(cfg, run, kWarmPhase, 0.1 * cfg.seconds, out);
}

int run_untraced(const Config& cfg, Output& out) {
  // Open loop and saturation alternate over the whole run, so both see the
  // host's slow changes in speed alike, and each round is one sample.
  constexpr int kRounds = 8;
  std::vector<double> setup_s;
  std::unique_ptr<Run> run;
  // Set up several times and report the median: fork and first-touch
  // costs vary from one set-up to the next.
  constexpr int kSetups = 11;
  for (int i = 0; i < kSetups; ++i) {
    if (run) tear_down(*run);
    run = fresh_run(cfg, out);
    if (!run) return 1;
    setup_s.push_back(run->setup_s);
  }
  out.values["setup_s"] = median(setup_s);
  warm_up(cfg, *run, out);
  std::vector<double> all_latency, late, p50, p90, rates, cpu;
  std::uint64_t completed = 0;
  for (int r = 0; r < kRounds; ++r) {
    const PhaseStats open =
        run_open(cfg, *run, kOpenPhase + r, 0.5 * cfg.seconds / kRounds, out);
    p50.push_back(quantile(open.latency_us, 0.5));
    p90.push_back(quantile(open.latency_us, 0.9));
    all_latency.insert(all_latency.end(), open.latency_us.begin(),
                       open.latency_us.end());
    late.insert(late.end(), open.late_us.begin(), open.late_us.end());
    completed += open.completed;
    if (r == 0) {
      // Peak memory after fixed-rate phases only: saturation runs as many
      // ops as the daemon can, and per-op state would tie memory to speed.
      out.values["daemon_rss_mb"] =
          sample_proc(run->daemon->pid()).hwm_kb / 1024.0;
    }
    const SatResult sat = run_saturation(*run, kSatPhase + r,
                                         0.4 * cfg.seconds / kRounds, out,
                                         nullptr);
    rates.push_back(sat.rars_per_s);
    cpu.push_back(sat.cpu_us_per_rar);
  }
  // Medians over all rounds: a few rounds disturbed by the host move them
  // little, and stalls the daemon causes in most rounds still show.
  out.values["lat_p50_us"] = median(p50);
  out.values["lat_p90_us"] = median(p90);
  out.values["sat_rars_per_s"] = median(rates);
  out.values["daemon_cpu_us_per_rar"] = median(cpu);
  out.values["lat_p99_us"] = quantile(all_latency, 0.99);
  out.values["lat_samples"] = static_cast<double>(all_latency.size());
  out.values["late_p99_us"] = quantile(late, 0.99);
  out.values["achieved_rps"] =
      static_cast<double>(completed) / (0.5 * cfg.seconds);
  final_checks(cfg, *run, out);
  return 0;
}

int run_traced(const Config& cfg, Output& out) {
  auto run = fresh_run(cfg, out);
  if (!run) return 1;
  const std::string admin = run->daemon->spec().admin;
  warm_up(cfg, *run, out);
  out.raw["scrape_begin"] = http_get_unix(admin, "/metrics.json");
  std::uint64_t ops = 0;

  const PhaseStats plain =
      run_open(cfg, *run, kOpenPhase, 0.2 * cfg.seconds, out);
  ops += plain.completed;
  out.values["lat_p50_us"] = quantile(plain.latency_us, 0.5);
  out.values["lat_p90_us"] = quantile(plain.latency_us, 0.9);
  out.values["lat_p99_us"] = quantile(plain.latency_us, 0.99);
  out.values["late_p99_us"] = quantile(plain.late_us, 0.99);
  out.values["lat_samples"] = static_cast<double>(plain.latency_us.size());
  out.values["achieved_rps"] =
      static_cast<double>(plain.completed) / (0.2 * cfg.seconds);

  // The same phase again with a span around every client call.
  std::vector<Tracer> client_tracers(run->conns.size());
  for (std::size_t i = 0; i < run->conns.size(); ++i) {
    run->conns[i]->tracer = &client_tracers[i];
  }
  const PhaseStats traced =
      run_open(cfg, *run, kOpenPhase, 0.2 * cfg.seconds, out);
  ops += traced.completed;
  for (auto& d : run->conns) d->tracer = nullptr;
  out.values["traced_lat_p50_us"] = quantile(traced.latency_us, 0.5);
  out.values["client_send_us"] = quantile(traced.send_us, 0.5);

  const SatResult sat =
      run_saturation(*run, kSatPhase, 0.2 * cfg.seconds, out, [&] {
        out.raw["scrape_mid"] = http_get_unix(admin, "/metrics.json");
      });
  ops += sat.stats.completed;
  const double sat_ops = static_cast<double>(sat.stats.completed);
  out.values["bbd.cpu_util"] = (sat.after.cpu_s - sat.before.cpu_s) / sat.wall_s;
  out.values["bbd.threads"] = sat.after.threads;
  out.values["bbd.ctx_switches_per_rar"] =
      sat_ops > 0 ? (sat.after.ctx_switches - sat.before.ctx_switches) / sat_ops
                  : 0;

  // One op at a time on one connection: the idle round trip.
  std::vector<std::unique_ptr<Connection>> solo;
  solo.push_back(std::move(run->conns[0]));
  const auto idle_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(
                                               0.1 * cfg.seconds));
  run_phase(solo, kIdlePhase,
            [&](Connection& d) {
              while (Clock::now() < idle_end) {
                d.send_next(Clock::now());
                while (d.in_flight() > 0) d.complete_oldest();
              }
            },
            nullptr);
  const PhaseStats idle = collect(solo, out);
  run->conns[0] = std::move(solo[0]);
  ops += idle.completed;
  out.values["idle_reserve_rtt_p50_us"] = quantile(idle.latency_us, 0.5);

  out.raw["scrape_end"] = http_get_unix(admin, "/metrics.json");
  out.values["measured_ops"] = static_cast<double>(ops);
  final_checks(cfg, *run, out);
  run.reset();

  Tracer replay_tracer;
  replay(cfg, replay_tracer, out,
         std::chrono::duration<double>(0.2 * cfg.seconds));
  analyse_replay(replay_tracer, out);

  if (!cfg.spans.empty()) {
    std::ofstream file(cfg.spans, std::ios::trunc);
    for (const auto& t : client_tracers) write_spans(file, "client", t);
    write_spans(file, "replay", replay_tracer);
  }
  return 0;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) return serve(argc, argv);
  // A daemon that dies mid-write must not kill the generator.
  ::signal(SIGPIPE, SIG_IGN);
  Config cfg;
  const Workload* workload = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      workload = find_workload(value);
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = value;
    } else if (arg == "--out") {
      cfg.out = value;
    } else if (arg == "--spans") {
      cfg.spans = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (workload == nullptr || cfg.workdir.empty() || cfg.out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out FILE [--spans FILE]\n");
    return 2;
  }
  cfg.w = *workload;
  fs::create_directories(cfg.workdir);
  Output out;
  out.values["offered_rps"] = cfg.w.rate;
  out.values["conns"] = static_cast<double>(kConns);
  out.values["window"] = static_cast<double>(cfg.w.window);
  const int rc = cfg.trace ? run_traced(cfg, out) : run_untraced(cfg, out);
  std::ofstream file(cfg.out, std::ios::trunc);
  file << out.json() << "\n";
  return rc != 0 || !file ? 1 : 0;
}
