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
// Threading: the daemon is a three-stage pipeline, and the RPC worker
// pool is its only thread pool.
//   1. The StreamServer loop thread owns sockets and frames: it runs the
//      handshake stages inline, dispatches established frames to the RPC
//      worker pool, and is the only thread that calls send().
//   2. The RPC worker pool (a ThreadPool of Options::rpc_workers threads)
//      unseals, decodes, executes and re-seals each request. Requests
//      are posted under their connection id, so a connection is affine
//      to one worker (id mod pool size) and its sealed sequence numbers
//      advance in FIFO order with no cross-thread session use;
//      completions return to the loop via StreamServer::post().
//      Admission runs inline on the worker against the brokers'
//      self-locked pools.
//   3. The admin plane thread renders introspection documents.
// Locks are per-stage, not monolithic:
//   - world_mutex_   serializes world/engine/users mutation (the engines
//     are not internally synchronized), taken by workers per request and
//     by /tracez;
//   - world_ptr_mutex_ guards only the world_ pointer itself, so /healthz
//     observes the world without queueing behind a long-running RPC;
//   - conns_mutex_   guards the connection-state map (loop inserts and
//     erases; /statz reads the per-connection in-flight gauges).
// Per-connection mutable state is either loop-owned (handshake stage),
// worker-affine (grants, release_on_disconnect — the disconnect
// finalizer runs on the same worker queue, after every dispatched
// request), or atomic (in_flight, pipeline window, dead flag).
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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
    bool force_poll = false;
    /// RPC worker pool size: decode/unseal + request execution run on
    /// these threads, not the event loop (docs/DAEMON.md "Pipelining").
    /// Each connection is affine to one worker; sizing past the number
    /// of distinct client connections buys nothing.
    std::size_t rpc_workers = 2;
    /// Optional plaintext admin/telemetry listeners (docs/DAEMON.md "Live
    /// operations"): a second StreamServer in raw mode serving the
    /// obs::AdminPlane HTTP routes. Empty (the default) disables the
    /// whole plane — no extra thread, no extra series, byte-identical
    /// outputs.
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
  /// bind the listeners, and run the event loop on a background thread.
  Status start();

  /// Block until the loop exits (stop, graceful shutdown, or kShutdown).
  void wait();
  void stop();
  void shutdown_gracefully();

  std::vector<Endpoint> bound_endpoints() const;
  /// Bound admin endpoints (empty when the admin plane is disabled).
  std::vector<Endpoint> admin_endpoints() const;
  const char* poller_name() const;

 private:
  struct ConnState {
    std::unique_ptr<sig::HandshakeResponder> handshake;
    /// The ClientHello was consumed and the ServerHello sent; the next
    /// frame must be the Finished message. (The responder's own done()
    /// only flips after Finished, so the connection tracks this stage.)
    bool hello_consumed = false;
    /// Loop thread only: set when the handshake completes. After this
    /// the session inside `handshake` is used exclusively by the
    /// connection's affine worker (the dispatch post orders the handoff).
    bool established = false;
    /// Worker-affine (kHello handler and the disconnect finalizer both
    /// run on the connection's worker).
    bool release_on_disconnect = false;
    /// (engine, RarReply bytes) of every end-to-end grant made over this
    /// connection and not yet released — released on disconnect when the
    /// connection asked for it (kHello flag bit 0). Worker-affine.
    std::vector<std::pair<std::string, Bytes>> grants;
    /// Negotiated pipeline window (kHello); 1 = the serial contract.
    std::atomic<std::uint64_t> window{1};
    /// Requests dispatched to the worker pool whose responses have not
    /// been queued yet. Loop increments at dispatch and decrements in
    /// the completion task; the drain gate and /statz read it.
    std::atomic<std::uint64_t> in_flight{0};
    /// Protocol error or close observed: queued worker tasks for this
    /// connection become no-ops.
    std::atomic<bool> dead{false};
  };
  using ConnPtr = std::shared_ptr<ConnState>;

  void on_open(StreamServer::ConnId id, const Endpoint& via);
  void on_frame(StreamServer::ConnId id, Bytes frame);
  void on_close(StreamServer::ConnId id, const Status& reason);

  /// Handshake-stage frames (ClientHello, Finished) — returns false when
  /// the connection was closed on error. Loop thread.
  bool on_handshake_frame(StreamServer::ConnId id, ConnState& conn,
                          const Bytes& frame);
  /// Worker thread: unseal, decode, execute, seal; posts the completion
  /// (or the close) back to the loop.
  void process_frame(StreamServer::ConnId id, const ConnPtr& conn,
                     Bytes frame);
  BbdResponse handle(StreamServer::ConnId id, ConnState& conn,
                     const BbdRequest& request);
  Status rebuild_world(kit::ChainWorldConfig config);
  void release_orphans(ConnState& conn);
  /// conns_ lookup under conns_mutex_.
  ConnPtr find_conn(StreamServer::ConnId id) const;

  /// Admin plane (options_.admin_on non-empty only). The admin server
  /// runs raw HTTP on its own thread; see the threading note above for
  /// which lock each provider takes.
  Status start_admin();
  void on_admin_data(StreamServer::ConnId id, BytesView data);
  std::string build_statz() const;
  std::string build_tracez() const;
  /// Runs on the loop thread after run() returns: retire the RPC worker
  /// pool (draining any queued work), stop the admin plane, append the
  /// audit "shutdown" record, write the final snapshot.
  void finalize_shutdown();

  Options options_;
  ServiceIdentity identity_;
  Rng handshake_rng_;
  std::unique_ptr<StreamServer> server_;
  std::thread loop_;
  std::map<std::string, kit::WorldUser> users_;

  /// Serializes every world/engine/users mutation (workers, kConfigure,
  /// /tracez). The signalling engines are not internally synchronized.
  mutable std::mutex world_mutex_;
  /// Guards only the world_ pointer (swap on kConfigure vs the admin
  /// thread's /healthz read); never held across engine work.
  mutable std::mutex world_ptr_mutex_;
  std::unique_ptr<kit::ChainWorld> world_;

  /// Connection-state map: loop thread writes, /statz reads.
  mutable std::mutex conns_mutex_;
  std::map<StreamServer::ConnId, ConnPtr> conns_;

  std::atomic<bool> loop_live_{false};
  /// Set the moment a graceful drain is requested; /readyz flips to
  /// not-ready immediately, before the last in-flight request finishes.
  std::atomic<bool> draining_{false};

  std::unique_ptr<StreamServer> admin_server_;
  std::thread admin_loop_;
  std::unique_ptr<obs::AdminPlane> admin_plane_;
  /// Per-connection request bytes (admin loop thread only).
  std::map<StreamServer::ConnId, std::string> admin_buffers_;

  /// Wall-clock telemetry over the RPC stream: latency distribution and
  /// SLO burn over the last minute, published at admin snapshot refresh.
  /// Internally synchronized (workers record, admin thread reads).
  obs::WallClockFn wall_clock_;
  obs::WindowedHistogram rpc_latency_;
  obs::BurnRateTracker rpc_burn_;

  /// Declared last: its destructor drains all queued tasks, which may
  /// still touch the members above.
  std::unique_ptr<ThreadPool> rpc_pool_;
};

}  // namespace e2e::net
