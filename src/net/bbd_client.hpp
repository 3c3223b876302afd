// Client side of the bbd daemon RPC (bbd_protocol.hpp).
//
// Owns one stream connection: connect() dials the daemon, runs the staged
// SecureChannel handshake (mutual auth against the shared deterministic
// ServiceIdentity), and every call() afterwards is one sealed
// request/response exchange.
//
// Two calling disciplines share the connection (docs/DAEMON.md
// "Pipelining"):
//   - call() is the original synchronous round trip — byte-identical to
//     the pre-pipelining client, which is what byte-identity with the
//     in-memory run requires;
//   - call_async()/wait() keep up to Options::pipeline_depth sealed
//     requests in flight and match responses by request id, however the
//     daemon interleaves them. The window is the client's own number:
//     nothing is negotiated, and the daemon, which executes a
//     connection's requests in arrival order, enforces none.
// Each in-flight call carries its own deadline (stamped at send time,
// Options::call_timeout long). A timed-out call is abandoned: its id
// moves to a tombstone set, wait() returns kTimeout, and the late
// response — which must still be unsealed to keep the receive sequence
// chain intact — is discarded on arrival instead of being mis-matched to
// a newer call. Transport or seal-chain errors are sticky: they fail
// every outstanding and future call on this client.
//
// Not thread-safe: one thread drives one client. Fleets hold one client
// per thread (bench/load_daemon.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/result.hpp"
#include "net/bbd_protocol.hpp"
#include "net/bbd_service.hpp"
#include "net/stream_socket.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"

namespace e2e::net {

class BbdClient {
 public:
  struct Options {
    Endpoint connect_to;
    std::uint64_t auth_seed = kDefaultAuthSeed;
    /// Wall-clock patience per response (the daemon computes in virtual
    /// time; generously above any real scheduling delay). Pipelined
    /// calls each get their own deadline, stamped when the request is
    /// written.
    std::chrono::milliseconds call_timeout{30000};
    /// Most call_async() calls in flight at once. 1 (the default) keeps
    /// the client strictly serial.
    std::uint64_t pipeline_depth = 1;
  };

  /// Dial and complete the handshake.
  static Result<BbdClient> connect(const Options& options);

  BbdClient(BbdClient&&) = default;
  BbdClient& operator=(BbdClient&&) = default;

  /// Handle to one in-flight pipelined request.
  struct Call {
    std::uint64_t id = 0;
  };

  /// Seal and write one request without waiting for its response. When
  /// pipeline_depth calls are in flight, first pumps the socket until a
  /// slot frees (the oldest in-flight call completes or times out). The
  /// returned handle is redeemed exactly once with wait().
  Result<Call> call_async(BbdRequest request);

  /// Block until `call`'s response arrives (or its deadline passes),
  /// buffering any other responses that land first. Application-level
  /// failures (response.ok == false) are returned as this Result's
  /// error, exactly like call().
  Result<BbdResponse> wait(const Call& call);

  /// Pump until no calls are in flight; responses are buffered for their
  /// wait(). First sticky error wins.
  Status drain();

  /// Calls currently in flight (sent, not yet completed or abandoned).
  std::size_t in_flight() const { return pending_.size(); }

  /// One sealed round trip. Assigns the request id; a response that does
  /// not echo it is a protocol error. An application-level failure
  /// (response.ok == false) is returned as this Result's error.
  Result<BbdResponse> call(BbdRequest request);

  // Convenience wrappers over call() — one per op the benches use.
  Status ping();
  Status hello(bool release_on_disconnect);
  Status configure(std::uint64_t domains, std::uint64_t seed = 0,
                   SimDuration inter_domain_latency = 0,
                   double domain_capacity = 0, double sla_rate = 0);
  Status set_latency(std::size_t i, std::size_t j, SimDuration latency);
  Status set_processing_delay(SimDuration delay);
  /// Returns the user's DN text.
  Result<std::string> make_user(const std::string& name, std::size_t home,
                                bool with_capability = true,
                                bool register_everywhere = false);

  struct RemoteOutcome {
    sig::RarReply reply;
    Bytes reply_bytes;  // the daemon's canonical encoding, verbatim
    SimDuration latency = 0;
    std::size_t messages = 0;
  };
  struct ReserveArgs {
    std::string user;
    double rate = 0;
    TimeInterval interval{0, seconds(600)};
    std::size_t src = 0;
    std::size_t dst_offset_from_end = 0;
    bool is_tunnel = false;
    SimTime at = 0;
    bool parallel = false;  // source-engine mode only
  };
  Result<RemoteOutcome> reserve(const ReserveArgs& args);
  Result<RemoteOutcome> source_reserve(const ReserveArgs& args);
  Result<RemoteOutcome> tunnel_reserve(const std::string& tunnel_id,
                                       const std::string& user_dn,
                                       double rate, TimeInterval interval,
                                       SimTime at);
  Status release(const std::string& engine, const Bytes& reply_bytes);
  Status tunnel_release(const std::string& tunnel_id,
                        const std::string& sub_id);

  struct Stats {
    std::size_t reservations = 0;
    double committed = 0;
  };
  Result<Stats> stats(SimTime at);
  /// field: "count" | "sum" (histogram), "counter", "gauge".
  Result<double> metric(const std::string& name, const std::string& labels,
                        const std::string& field);
  Result<std::size_t> snapshot_domain(std::size_t domain);
  Status shutdown_daemon();

 private:
  BbdClient(Options options, StreamSocket socket, sig::Session session)
      : options_(std::move(options)),
        socket_(std::move(socket)),
        session_(std::move(session)) {}

  /// Read + unseal + match ONE response frame, waiting until `deadline`.
  /// kTimeout leaves all state untouched (the caller decides whom to
  /// abandon); any other failure is recorded as the sticky error and
  /// fails every pending call.
  Status pump_one(std::chrono::steady_clock::time_point deadline);
  /// pump_one() against the oldest in-flight call's deadline; once that
  /// deadline has passed, abandon the call (its wait() reports kTimeout).
  /// Only sticky errors are returned. Requires a call in flight.
  Status pump_oldest();
  /// Mark the connection broken and fail every pending call with
  /// `error`.
  Status poison(const Error& error);

  Options options_;
  StreamSocket socket_;
  sig::Session session_;
  std::uint64_t next_id_ = 1;
  /// In-flight call id -> its deadline. std::map: iteration order is id
  /// order, so begin() is always the oldest call.
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> pending_;
  /// Responses (or terminal errors) that arrived before their wait().
  std::map<std::uint64_t, Result<BbdResponse>> completed_;
  /// Timed-out ids whose responses may still arrive; matched frames are
  /// discarded. Entries leave when the late response shows up or the
  /// connection dies.
  std::set<std::uint64_t> abandoned_;
  /// Sticky transport/protocol error; set once, fails everything after.
  std::optional<Error> broken_;
  /// The request frame being sent, sealed in place; reused across calls.
  Bytes tx_;
};

}  // namespace e2e::net
