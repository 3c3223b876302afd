// The bbd daemon: a ChainWorld behind a StreamServer.
//
// One process hosts the whole chain of administrative domains — brokers,
// CAs, SLAs, both signalling engines — and exposes the BbdOp RPC surface
// (bbd_protocol.hpp) over authenticated stream connections. Client
// processes (bench --daemon modes, the soak test, bbd_client) drive the
// world remotely; because the world is seeded deterministically and every
// RarReply crosses the wire as its canonical encoding, a multi-process run
// produces byte-identical protocol output to the in-memory one.
//
// Threading: one thread serves the daemon. The StreamServer loop owns
// sockets and frames and runs every request inline, one at a time, in
// arrival order: handshake stages, then per established frame unseal,
// decode, execute, seal and send(). The server flushes a connection's
// replies once per read, after every frame that read completed has run.
// A connection's requests therefore run in FIFO order and its sealed
// sequence numbers advance on one thread; on_close runs after the
// connection's last request, so orphan release sees its final grants
// list. What bounds a peer that floods requests and never reads is the
// server's per-connection output bound
// (Options::max_write_queue_bytes). The admin plane (Options::admin_on)
// is served by the same loop from raw listeners, between requests, so
// every introspection document reads the world, the connection table and
// the wall-clock windows with no lock. stop() and shutdown_gracefully()
// are the only calls another thread (or a signal handler) may make.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/ca.hpp"
#include "kit/chain_world.hpp"
#include "net/bbd_protocol.hpp"
#include "net/stream_server.hpp"
#include "obs/admin.hpp"
#include "obs/window.hpp"
#include "sig/channel.hpp"

namespace e2e::net {

/// Deterministic mutual-auth material: daemon and clients derive the SAME
/// CA, certificates and keys from a shared seed, and each side pins the
/// other's exact certificate (sig::ChannelEndpoint::pinned_peer), so no
/// trust-store distribution is needed. The daemon's RPC credentials are
/// deliberately separate from any world's key material: kConfigure can
/// tear the world down and rebuild it without invalidating live channels.
struct ServiceIdentity {
  crypto::Certificate daemon_certificate;
  crypto::KeyPair daemon_keys;
  crypto::Certificate client_certificate;
  crypto::KeyPair client_keys;

  sig::ChannelEndpoint daemon_endpoint() const;
  sig::ChannelEndpoint client_endpoint() const;
};

ServiceIdentity make_service_identity(std::uint64_t seed);

inline constexpr std::uint64_t kDefaultAuthSeed = 20010801;

class BbdService {
 public:
  struct Options {
    std::vector<Endpoint> listen_on;
    /// Handshake credential seed; clients must use the same one.
    std::uint64_t auth_seed = kDefaultAuthSeed;
    /// Applied onto every world this daemon builds (startup and
    /// kConfigure): per-domain WAL + snapshot files live here.
    std::string durability_dir;
    /// Replay snapshot + WAL into each world build (restart path).
    bool recover = false;
    std::chrono::milliseconds idle_timeout{0};
    std::size_t max_write_queue_bytes = 4u << 20;
    /// Optional plaintext admin/telemetry listeners (docs/DAEMON.md "Live
    /// operations"): raw listeners on the request loop serving the
    /// obs::AdminPlane HTTP routes. Empty (the default) disables the
    /// whole plane — no extra series, byte-identical outputs.
    std::vector<Endpoint> admin_on;
    /// When non-empty, a final metrics snapshot (registry JSON) is
    /// written here as the daemon drains, after the audit "shutdown"
    /// record is appended.
    std::string metrics_out;
    /// Base config of the startup world (durability fields above win).
    kit::ChainWorldConfig world;
  };

  explicit BbdService(Options options);
  ~BbdService();
  BbdService(const BbdService&) = delete;
  BbdService& operator=(const BbdService&) = delete;

  /// Build the startup world (recovering prior state when configured),
  /// bind the listeners, and run the event loop on a background thread
  /// (the one thread the service starts).
  Status start();

  /// Block until the loop exits (stop, graceful shutdown, or kShutdown).
  void wait();
  void stop();
  void shutdown_gracefully();

  std::vector<Endpoint> bound_endpoints() const;
  /// Bound admin endpoints (empty when the admin plane is disabled).
  std::vector<Endpoint> admin_endpoints() const;

 private:
  struct ConnState {
    std::unique_ptr<sig::HandshakeResponder> handshake;
    /// The ClientHello was consumed and the ServerHello sent; the next
    /// frame must be the Finished message. (The responder's own done()
    /// only flips after Finished, so the connection tracks this stage.)
    bool hello_consumed = false;
    /// Set when the handshake completes; every later frame is a sealed
    /// request on the session inside `handshake`.
    bool established = false;
    /// Set by kHello (flag bit 0).
    bool release_on_disconnect = false;
    /// (engine, RarReply bytes) of every end-to-end grant made over this
    /// connection and not yet released — released on disconnect when the
    /// connection asked for it (kHello flag bit 0).
    std::vector<std::pair<std::string, Bytes>> grants;
    /// Protocol error observed: frames that follow are ignored until the
    /// close completes.
    bool dead = false;
  };

  void on_frame(StreamServer::ConnId id, BytesView frame);
  void on_close(StreamServer::ConnId id, const Status& reason);

  /// Handshake-stage frames (ClientHello, Finished) — returns false when
  /// the connection was closed on error. Loop thread.
  bool on_handshake_frame(StreamServer::ConnId id, ConnState& conn,
                          BytesView frame);
  BbdResponse handle(StreamServer::ConnId id, ConnState& conn,
                     const BbdRequest& request);
  Status rebuild_world(kit::ChainWorldConfig config);
  void release_orphans(ConnState& conn);

  /// Admin plane (options_.admin_on non-empty only): raw HTTP connections
  /// on the request loop.
  void start_admin();
  void on_admin_data(StreamServer::ConnId id, BytesView data);
  std::string build_statz() const;
  std::string build_tracez() const;
  /// Runs on the loop thread after run() returns: append the audit
  /// "shutdown" record, write the final snapshot.
  void finalize_shutdown();

  Options options_;
  ServiceIdentity identity_;
  Rng handshake_rng_;
  std::unique_ptr<StreamServer> server_;
  std::thread loop_;
  std::map<std::string, kit::WorldUser> users_;
  std::unique_ptr<kit::ChainWorld> world_;

  /// RPC connection state, created by the connection's first frame.
  std::map<StreamServer::ConnId, ConnState> conns_;

  std::unique_ptr<obs::AdminPlane> admin_plane_;
  /// Per-connection request bytes of admin connections.
  std::map<StreamServer::ConnId, std::string> admin_buffers_;

  /// Wall-clock telemetry over the RPC stream: latency distribution and
  /// SLO burn over the last minute, published at admin snapshot refresh.
  obs::WallClockFn wall_clock_;
  obs::WindowedHistogram rpc_latency_;
  obs::BurnRateTracker rpc_burn_;
};

}  // namespace e2e::net
