#include "net/bbd_service.hpp"

#include <chrono>
#include <fstream>
#include <utility>

#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "sig/message.hpp"

namespace e2e::net {

namespace {

/// The world's virtual clock never moves past kWorldValidity's start in
/// the handshake: service channels are established "at" virtual time zero.
constexpr SimTime kHandshakeTime = 0;

/// Request heads larger than this are not scrape traffic; drop them.
constexpr std::size_t kMaxAdminRequestBytes = 16384;

/// Wall-clock RPC latency buckets (us): daemon round trips are crypto +
/// admission, tens of us to tens of ms.
std::vector<double> rpc_latency_buckets_us() {
  return {50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000};
}

obs::BurnRateSpec rpc_burn_spec() {
  obs::BurnRateSpec spec;
  spec.objective = "bbd.rpc";
  spec.budget_error_rate = 0.01;
  spec.window = std::chrono::seconds(60);
  spec.alert_threshold = 10.0;
  return spec;
}

}  // namespace

sig::ChannelEndpoint ServiceIdentity::daemon_endpoint() const {
  sig::ChannelEndpoint endpoint;
  endpoint.certificate = daemon_certificate;
  endpoint.private_key = daemon_keys.priv;
  endpoint.pinned_peer = client_certificate;
  return endpoint;
}

sig::ChannelEndpoint ServiceIdentity::client_endpoint() const {
  sig::ChannelEndpoint endpoint;
  endpoint.certificate = client_certificate;
  endpoint.private_key = client_keys.priv;
  endpoint.pinned_peer = daemon_certificate;
  return endpoint;
}

ServiceIdentity make_service_identity(std::uint64_t seed) {
  // Derivation order is part of the contract: both processes must draw
  // from the RNG in exactly this sequence to end up with the same bytes.
  Rng rng(seed);
  crypto::CertificateAuthority ca(
      crypto::DistinguishedName::make("bbd-ca", "bbd"), rng,
      kit::kWorldValidity, 256);
  ServiceIdentity identity;
  identity.daemon_keys = crypto::generate_keypair(rng, 256);
  identity.daemon_certificate =
      ca.issue(crypto::DistinguishedName::make("bbd-server", "bbd"),
               identity.daemon_keys.pub, kit::kWorldValidity);
  identity.client_keys = crypto::generate_keypair(rng, 256);
  identity.client_certificate =
      ca.issue(crypto::DistinguishedName::make("bbd-client", "bbd"),
               identity.client_keys.pub, kit::kWorldValidity);
  return identity;
}

BbdService::BbdService(Options options)
    : options_(std::move(options)),
      identity_(make_service_identity(options_.auth_seed)),
      // Handshake nonces only; never touches any world's RNG stream.
      handshake_rng_(options_.auth_seed ^ 0x6262642d64616d6eull),
      wall_clock_(obs::steady_wall_clock()),
      rpc_latency_(std::chrono::seconds(60), 12, rpc_latency_buckets_us()),
      rpc_burn_(rpc_burn_spec()) {}

BbdService::~BbdService() {
  stop();
  wait();
}

Status BbdService::start() {
  kit::ChainWorldConfig config = options_.world;
  if (auto built = rebuild_world(std::move(config)); !built.ok()) {
    return built;
  }
  StreamServer::Options server_options;
  server_options.listen_on = options_.listen_on;
  server_options.raw_listen_on = options_.admin_on;
  server_options.idle_timeout = options_.idle_timeout;
  server_options.max_write_queue_bytes = options_.max_write_queue_bytes;
  StreamServer::Callbacks callbacks;
  callbacks.on_frame = [this](StreamServer::ConnId id, Bytes frame) {
    on_frame(id, std::move(frame));
  };
  callbacks.on_data = [this](StreamServer::ConnId id, BytesView data) {
    on_admin_data(id, data);
  };
  callbacks.on_close = [this](StreamServer::ConnId id, const Status& reason) {
    on_close(id, reason);
  };
  server_ = std::make_unique<StreamServer>(std::move(server_options),
                                           std::move(callbacks));
  if (auto started = server_->start(); !started.ok()) return started;
  if (!options_.admin_on.empty()) start_admin();
  loop_ = std::thread([this] {
    server_->run();
    finalize_shutdown();
  });
  return Status::ok_status();
}

void BbdService::start_admin() {
  auto& registry = obs::MetricsRegistry::global();
  obs::AdminPlane::Providers providers;
  providers.health = [this] {
    // The loop answering is what "live" means: this runs on it.
    obs::AdminPlane::Health health;
    health.live = true;
    const bool draining = server_->draining();
    health.ready = world_ != nullptr && !draining;
    if (!health.ready) {
      health.detail = draining ? "draining" : "no world configured";
    }
    return health;
  };
  providers.statz_json = [this] { return build_statz(); };
  providers.tracez_json = [this] { return build_tracez(); };
  providers.refresh = [this, &registry](std::uint64_t now_ms) {
    rpc_burn_.publish(registry, now_ms);
    const obs::Histogram::Snapshot window = rpc_latency_.snapshot(now_ms);
    if (window.count == 0) return;
    const std::pair<const char*, double> quantiles[] = {
        {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
    for (const auto& [label, q] : quantiles) {
      registry
          .gauge(obs::kSloLatencyQuantileUs,
                 {{"objective", "bbd.rpc.wall"}, {"quantile", label}})
          .set(obs::estimate_quantile(window, q));
    }
  };
  admin_plane_ = std::make_unique<obs::AdminPlane>(registry,
                                                   std::move(providers));
}

void BbdService::on_admin_data(StreamServer::ConnId id, BytesView data) {
  std::string& buffer = admin_buffers_[id];
  buffer.append(reinterpret_cast<const char*>(data.data()), data.size());
  if (!obs::http_head_complete(buffer)) {
    if (buffer.size() > kMaxAdminRequestBytes) {
      obs::AdminResponse overflow;
      overflow.status = 400;
      overflow.body = "request head too large\n";
      const std::string wire = obs::render_http_response(overflow);
      (void)server_->send_raw(
          id, BytesView(reinterpret_cast<const std::uint8_t*>(wire.data()),
                        wire.size()));
      server_->close_after_flush(id);
    }
    return;
  }
  const obs::AdminResponse response =
      admin_plane_->handle(obs::parse_http_request(buffer));
  const std::string wire = obs::render_http_response(response);
  (void)server_->send_raw(
      id, BytesView(reinterpret_cast<const std::uint8_t*>(wire.data()),
                    wire.size()));
  server_->close_after_flush(id);
}

std::string BbdService::build_statz() const {
  std::string out = "{\"connections\":[";
  std::uint64_t conn_count = 0;
  for (const StreamServer::ConnectionStats& conn :
       server_->connection_stats()) {
    if (conn_count++ > 0) out += ",";
    out += "{\"id\":" + std::to_string(conn.id);
    out += ",\"transport\":\"" + obs::chain_json_escape(conn.transport) +
           "\"";
    out += ",\"bytes_rx\":" + std::to_string(conn.bytes_rx);
    out += ",\"bytes_tx\":" + std::to_string(conn.bytes_tx);
    out += ",\"frames_rx\":" + std::to_string(conn.frames_rx);
    out += ",\"frames_tx\":" + std::to_string(conn.frames_tx);
    out += ",\"queued_bytes\":" + std::to_string(conn.queued_bytes);
    out += "}";
  }
  out += "],\"totals\":{";
  out += "\"connections\":" + std::to_string(conn_count);
  out += "}}";
  return out;
}

std::string BbdService::build_tracez() const {
  if (world_ == nullptr) return "{\"traces\":[]}";
  constexpr std::size_t kTraces = 16;
  obs::SpanCollector collector;
  world_->collect(collector, kTraces);
  return obs::tracez_json(collector, kTraces);
}

void BbdService::finalize_shutdown() {
  // run() has closed every connection, so each on_close orphan release
  // already ran on the loop: the audit record and the metrics snapshot
  // below observe a fully settled world.
  // Audit first, snapshot second: the snapshot then covers the shutdown
  // record's own counter bump and is truly final.
  obs::AuditLog::global().append(
      "bbd", obs::audit_kind::kShutdown,
      {{"reason", "drain"},
       {"metrics_out",
        options_.metrics_out.empty() ? "-" : options_.metrics_out}});
  if (!options_.metrics_out.empty()) {
    std::ofstream file(options_.metrics_out,
                       std::ios::binary | std::ios::trunc);
    if (file.is_open()) {
      file << obs::MetricsRegistry::global().to_json() << "\n";
    }
  }
}

void BbdService::wait() {
  if (loop_.joinable()) loop_.join();
}

void BbdService::stop() {
  if (server_ != nullptr) server_->stop();
}

void BbdService::shutdown_gracefully() {
  // /readyz reads the server's drain flag, so readiness flips before the
  // drain begins: a load balancer probing it stops routing while the last
  // responses flush.
  if (server_ != nullptr) server_->shutdown_gracefully();
}

std::vector<Endpoint> BbdService::bound_endpoints() const {
  if (server_ == nullptr) return {};
  std::vector<Endpoint> bound = server_->bound_endpoints();
  bound.resize(options_.listen_on.size());
  return bound;
}

std::vector<Endpoint> BbdService::admin_endpoints() const {
  if (server_ == nullptr) return {};
  std::vector<Endpoint> bound = server_->bound_endpoints();
  bound.erase(bound.begin(), bound.begin() + static_cast<std::ptrdiff_t>(
                                                 options_.listen_on.size()));
  return bound;
}

Status BbdService::rebuild_world(kit::ChainWorldConfig config) {
  config.durability_dir = options_.durability_dir;
  config.recover_on_open = options_.recover && !options_.durability_dir.empty();
  users_.clear();
  // The old world must release its WALs before the new one reopens them.
  world_.reset();
  try {
    world_ = std::make_unique<kit::ChainWorld>(config);
  } catch (const std::exception& e) {
    return make_error(ErrorCode::kInternal, "world construction failed",
                      e.what());
  }
  return Status::ok_status();
}

void BbdService::on_close(StreamServer::ConnId id, const Status& reason) {
  (void)reason;
  admin_buffers_.erase(id);
  auto node = conns_.extract(id);
  // Requests execute inline on the loop, so every request of this
  // connection has run by now: the grants list is final, and orphan
  // release happens exactly once, after the connection's last grant.
  if (!node.empty() && node.mapped().release_on_disconnect) {
    release_orphans(node.mapped());
  }
}

void BbdService::release_orphans(ConnState& conn) {
  if (world_ == nullptr) return;
  for (const auto& [engine, reply_bytes] : conn.grants) {
    auto reply = sig::RarReply::decode(reply_bytes);
    if (!reply.ok()) continue;
    if (engine == "source") {
      (void)world_->source_engine().release_end_to_end(reply.value());
    } else {
      (void)world_->engine().release_end_to_end(reply.value());
    }
  }
  conn.grants.clear();
}

bool BbdService::on_handshake_frame(StreamServer::ConnId id, ConnState& conn,
                                    const Bytes& frame) {
  if (!conn.hello_consumed) {
    // First frame must be the ClientHello.
    auto server_hello = conn.handshake->on_client_hello(frame);
    if (!server_hello.ok()) {
      server_->close_after_flush(id);
      return false;
    }
    conn.hello_consumed = true;
    (void)server_->send(id, server_hello.value());
    return true;
  }
  // Second frame must be the Finished message; its verdict is the
  // responder's handshake outcome.
  auto finished = conn.handshake->on_finished(frame);
  sig::count_handshake(finished.ok());
  if (!finished.ok()) {
    server_->close_after_flush(id);
    return false;
  }
  conn.established = true;
  return true;
}

void BbdService::on_frame(StreamServer::ConnId id, Bytes frame) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    // The connection's first frame: its handshake starts here.
    it = conns_.emplace(id, ConnState{}).first;
    it->second.handshake = std::make_unique<sig::HandshakeResponder>(
        identity_.daemon_endpoint(), kHandshakeTime, handshake_rng_);
  }
  // send() and close_after_flush() below may close the connection, and
  // on_close then erases `conn`: nothing touches it after either call.
  ConnState& conn = it->second;
  if (!conn.established) {
    (void)on_handshake_frame(id, conn, frame);
    return;
  }
  if (conn.dead) return;
  // Established: every frame is a sealed record carrying one request.
  auto record = sig::decode_record(frame);
  Result<Bytes> payload = record.ok()
                              ? conn.handshake->session().open(record.value())
                              : Result<Bytes>(record.error());
  if (!payload.ok()) {
    // Protocol corruption: frames that follow on this connection are
    // ignored until the close completes.
    conn.dead = true;
    server_->close_after_flush(id);
    return;
  }
  auto request = BbdRequest::decode(payload.value());
  BbdResponse response;
  bool shutdown_after_reply = false;
  if (!request.ok()) {
    response = BbdResponse::failure(0, request.error());
  } else {
    const auto rpc_start = std::chrono::steady_clock::now();
    response = handle(id, conn, request.value());
    if (admin_plane_ != nullptr) {
      const auto elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - rpc_start)
              .count();
      const std::uint64_t now_ms = wall_clock_();
      rpc_latency_.observe(now_ms, static_cast<double>(elapsed_us));
      rpc_burn_.record(now_ms, !response.ok);
    }
    shutdown_after_reply =
        request.value().op == BbdOp::kShutdown && response.ok;
  }
  const Bytes wire =
      sig::encode_record(conn.handshake->session().seal(response.encode()));
  (void)server_->send(id, BytesView(wire.data(), wire.size()));
  if (shutdown_after_reply) shutdown_gracefully();
}

BbdResponse BbdService::handle(StreamServer::ConnId id, ConnState& conn,
                               const BbdRequest& req) {
  (void)id;
  if (world_ == nullptr && req.op != BbdOp::kPing &&
      req.op != BbdOp::kHello && req.op != BbdOp::kConfigure &&
      req.op != BbdOp::kShutdown) {
    return BbdResponse::failure(
        req.id, Error{ErrorCode::kUnavailable, "no world configured", "bbd"});
  }
  switch (req.op) {
    case BbdOp::kPing:
      return BbdResponse::success(req.id);
    case BbdOp::kHello:
      conn.release_on_disconnect =
          (req.flags & hello_flag::kReleaseOnDisconnect) != 0;
      return BbdResponse::success(req.id);
    case BbdOp::kConfigure: {
      kit::ChainWorldConfig config;
      if (req.u64a != 0) config.domains = req.u64a;
      if (req.u64b != 0) config.seed = req.u64b;
      if (req.u64c != 0) {
        config.inter_domain_latency = static_cast<SimDuration>(req.u64c);
      }
      if (req.f64a > 0) config.domain_capacity = req.f64a;
      if (req.f64b > 0) config.sla_rate = req.f64b;
      if (auto built = rebuild_world(std::move(config)); !built.ok()) {
        return BbdResponse::failure(req.id, built.error());
      }
      BbdResponse res = BbdResponse::success(req.id);
      res.u64a = world_->names().size();
      return res;
    }
    case BbdOp::kSetLatency: {
      const auto& names = world_->names();
      if (req.u64a >= names.size() || req.u64b >= names.size()) {
        return BbdResponse::failure(
            req.id, Error{ErrorCode::kInvalidArgument,
                          "domain index out of range", "bbd"});
      }
      world_->fabric().set_latency(names[req.u64a], names[req.u64b],
                                   static_cast<SimDuration>(req.u64c));
      return BbdResponse::success(req.id);
    }
    case BbdOp::kSetProcessingDelay: {
      world_->fabric().set_processing_delay(
          static_cast<SimDuration>(req.u64a));
      return BbdResponse::success(req.id);
    }
    case BbdOp::kMakeUser: {
      if (req.u64a >= world_->names().size()) {
        return BbdResponse::failure(
            req.id, Error{ErrorCode::kInvalidArgument,
                          "home domain index out of range", "bbd"});
      }
      // Re-minting draws from the world RNG; reject duplicates so retried
      // requests cannot skew byte-identity.
      if (users_.count(req.stra) != 0) {
        return BbdResponse::failure(
            req.id, Error{ErrorCode::kConflict, "user already exists",
                          req.stra});
      }
      kit::WorldUser user =
          world_->make_user(req.stra, req.u64a, (req.flags & 1u) != 0,
                            (req.flags & 2u) != 0);
      BbdResponse res = BbdResponse::success(req.id);
      res.stra = user.dn.to_string();
      users_.emplace(req.stra, std::move(user));
      return res;
    }
    case BbdOp::kReserve:
    case BbdOp::kSourceReserve: {
      auto user_it = users_.find(req.stra);
      if (user_it == users_.end()) {
        return BbdResponse::failure(
            req.id,
            Error{ErrorCode::kNotFound, "unknown user", req.stra});
      }
      const kit::WorldUser& user = user_it->second;
      bb::ResSpec spec = world_->spec(
          user, req.f64a,
          TimeInterval{static_cast<SimTime>(req.u64a),
                       static_cast<SimTime>(req.u64b)},
          req.u64c, req.u64d);
      spec.is_tunnel = (req.flags & 1u) != 0;
      const SimTime at = static_cast<SimTime>(req.f64b);
      if (req.op == BbdOp::kReserve) {
        auto msg = world_->engine().build_user_request(user.credentials(),
                                                       spec, at);
        if (!msg.ok()) return BbdResponse::failure(req.id, msg.error());
        auto outcome = world_->engine().reserve(msg.value(), at);
        if (!outcome.ok()) {
          return BbdResponse::failure(req.id, outcome.error());
        }
        BbdResponse res = BbdResponse::success(req.id);
        res.bytes = outcome.value().reply.encode();
        res.u64a = static_cast<std::uint64_t>(outcome.value().latency);
        res.u64b = outcome.value().messages;
        if (outcome.value().reply.granted) {
          conn.grants.emplace_back("hopbyhop", res.bytes);
        }
        return res;
      }
      const auto mode = (req.flags & 2u) != 0
                            ? sig::SourceDomainEngine::Mode::kParallel
                            : sig::SourceDomainEngine::Mode::kSequential;
      auto outcome = world_->source_engine().reserve(
          world_->names(), spec, user.identity_cert, user.identity_keys.priv,
          mode, at);
      if (!outcome.ok()) return BbdResponse::failure(req.id, outcome.error());
      BbdResponse res = BbdResponse::success(req.id);
      res.bytes = outcome.value().reply.encode();
      res.u64a = static_cast<std::uint64_t>(outcome.value().latency);
      res.u64b = outcome.value().messages;
      if (outcome.value().reply.granted) {
        conn.grants.emplace_back("source", res.bytes);
      }
      return res;
    }
    case BbdOp::kTunnelReserve: {
      auto outcome = world_->engine().reserve_in_tunnel(
          req.stra, req.strb, req.f64a,
          TimeInterval{static_cast<SimTime>(req.u64a),
                       static_cast<SimTime>(req.u64b)},
          static_cast<SimTime>(req.f64b));
      if (!outcome.ok()) return BbdResponse::failure(req.id, outcome.error());
      BbdResponse res = BbdResponse::success(req.id);
      res.bytes = outcome.value().reply.encode();
      res.u64a = static_cast<std::uint64_t>(outcome.value().latency);
      res.u64b = outcome.value().messages;
      return res;
    }
    case BbdOp::kRelease: {
      auto reply = sig::RarReply::decode(req.bytes);
      if (!reply.ok()) return BbdResponse::failure(req.id, reply.error());
      Status released =
          req.stra == "source"
              ? world_->source_engine().release_end_to_end(reply.value())
              : world_->engine().release_end_to_end(reply.value());
      if (!released.ok()) {
        return BbdResponse::failure(req.id, released.error());
      }
      for (auto it = conn.grants.begin(); it != conn.grants.end(); ++it) {
        if (it->second == req.bytes) {
          conn.grants.erase(it);
          break;
        }
      }
      return BbdResponse::success(req.id);
    }
    case BbdOp::kTunnelRelease: {
      Status released = world_->engine().release_in_tunnel(req.stra, req.strb);
      if (!released.ok()) {
        return BbdResponse::failure(req.id, released.error());
      }
      return BbdResponse::success(req.id);
    }
    case BbdOp::kStats: {
      BbdResponse res = BbdResponse::success(req.id);
      res.u64a = world_->total_reservations();
      res.f64a =
          world_->total_committed_at(static_cast<SimTime>(req.f64b));
      return res;
    }
    case BbdOp::kMetricQuery: {
      auto& registry = obs::MetricsRegistry::global();
      const obs::Labels labels = parse_label_list(req.labels);
      BbdResponse res = BbdResponse::success(req.id);
      if (req.strb == "count") {
        res.f64a =
            static_cast<double>(registry.histogram(req.stra, labels).count());
      } else if (req.strb == "sum") {
        res.f64a = registry.histogram(req.stra, labels).sum();
      } else if (req.strb == "counter") {
        res.f64a =
            static_cast<double>(registry.counter(req.stra, labels).value());
      } else if (req.strb == "gauge") {
        res.f64a = registry.gauge(req.stra, labels).value();
      } else {
        return BbdResponse::failure(
            req.id, Error{ErrorCode::kInvalidArgument,
                          "unknown metric field", req.strb});
      }
      return res;
    }
    case BbdOp::kSnapshot: {
      auto dropped = world_->snapshot_domain(req.u64a);
      if (!dropped.ok()) return BbdResponse::failure(req.id, dropped.error());
      BbdResponse res = BbdResponse::success(req.id);
      res.u64a = dropped.value();
      return res;
    }
    case BbdOp::kShutdown:
      return BbdResponse::success(req.id);
  }
  return BbdResponse::failure(
      req.id, Error{ErrorCode::kInvalidArgument, "unknown op",
                    std::to_string(static_cast<std::uint32_t>(req.op))});
}

}  // namespace e2e::net
