#include "net/bbd_client.hpp"

#include <algorithm>
#include <utility>

namespace e2e::net {

Result<BbdClient> BbdClient::connect(const Options& options) {
  auto socket = StreamSocket::connect(options.connect_to);
  if (!socket.ok()) return socket.error();
  const ServiceIdentity identity = make_service_identity(options.auth_seed);
  // Client nonce entropy; deliberately a different stream from the
  // daemon's so the two sides never draw identical nonces.
  Rng rng(options.auth_seed ^ 0x6262642d636c6e74ull);
  sig::HandshakeInitiator initiator(identity.client_endpoint(), 0, rng);
  if (auto sent = socket.value().send_frame(initiator.client_hello());
      !sent.ok()) {
    return sent.error();
  }
  auto server_hello = socket.value().recv_frame(options.call_timeout);
  if (!server_hello.ok()) return server_hello.error();
  auto finished = initiator.on_server_hello(server_hello.value());
  sig::count_handshake(finished.ok());
  if (!finished.ok()) return finished.error();
  if (auto sent = socket.value().send_frame(finished.value()); !sent.ok()) {
    return sent.error();
  }
  return BbdClient(options, std::move(socket.value()),
                   std::move(initiator.session()));
}

Status BbdClient::poison(const Error& error) {
  broken_ = error;
  // Every in-flight call fails with the same terminal error: once the
  // seal chain or the socket is gone, no later frame can be trusted.
  for (const auto& [id, deadline] : pending_) {
    completed_.emplace(id, Result<BbdResponse>(error));
  }
  pending_.clear();
  abandoned_.clear();
  return Status(error);
}

Status BbdClient::pump_one(std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  const auto budget =
      deadline > now
          ? std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
          : std::chrono::milliseconds(0);
  auto frame = socket_.recv_frame(budget);
  if (!frame.ok()) {
    if (frame.error().code == ErrorCode::kTimeout) return frame.error();
    return poison(frame.error());
  }
  // Open even when the id turns out to be abandoned: the receive
  // sequence chain covers every frame in arrival order.
  auto payload = session_.open_record(frame.value());
  if (!payload.ok()) return poison(payload.error());
  auto response = BbdResponse::decode(payload.value());
  if (!response.ok()) return poison(response.error());
  const std::uint64_t id = response.value().id;
  if (const auto it = pending_.find(id); it != pending_.end()) {
    pending_.erase(it);
    completed_.emplace(id, std::move(response));
    return Status::ok_status();
  }
  if (abandoned_.erase(id) > 0) {
    // The late response to a timed-out call: discard, never mis-match.
    return Status::ok_status();
  }
  return poison(make_error(ErrorCode::kBadMessage,
                           "response id does not match request",
                           std::to_string(id)));
}

Status BbdClient::pump_oldest() {
  const auto oldest = pending_.begin();
  const auto deadline = oldest->second;
  const Status pumped = pump_one(deadline);
  if (pumped.ok() || pumped.error().code != ErrorCode::kTimeout) {
    return pumped;
  }
  if (std::chrono::steady_clock::now() < deadline) {
    return Status::ok_status();
  }
  const std::uint64_t stale = oldest->first;
  pending_.erase(stale);
  abandoned_.insert(stale);
  completed_.emplace(
      stale, Result<BbdResponse>(make_error(ErrorCode::kTimeout,
                                            "pipelined call timed out",
                                            std::to_string(stale))));
  return Status::ok_status();
}

Result<BbdClient::Call> BbdClient::call_async(BbdRequest request) {
  if (broken_.has_value()) return *broken_;
  // A full window blocks on the OLDEST call's own deadline; when it
  // expires the slot is reclaimed by abandoning that call (its wait()
  // will report kTimeout from completed_).
  while (pending_.size() >=
         std::max<std::uint64_t>(options_.pipeline_depth, 1)) {
    if (const Status pumped = pump_oldest(); !pumped.ok()) {
      return pumped.error();
    }
  }
  request.id = next_id_++;
  tx_.clear();
  session_.seal_frame(request.encode(), tx_);
  if (auto sent = socket_.send_encoded_frame(tx_); !sent.ok()) {
    return poison(sent.error()).error();
  }
  pending_.emplace(request.id,
                   std::chrono::steady_clock::now() + options_.call_timeout);
  return Call{request.id};
}

Result<BbdResponse> BbdClient::wait(const Call& call) {
  while (true) {
    if (const auto done = completed_.find(call.id);
        done != completed_.end()) {
      Result<BbdResponse> response = std::move(done->second);
      completed_.erase(done);
      if (!response.ok()) return response;
      if (!response.value().ok) return response.value().to_error();
      return response;
    }
    const auto it = pending_.find(call.id);
    if (it == pending_.end()) {
      if (broken_.has_value()) return *broken_;
      return make_error(ErrorCode::kInvalidArgument,
                        "wait() on an unknown or already-waited call",
                        std::to_string(call.id));
    }
    const auto deadline = it->second;
    const Status pumped = pump_one(deadline);
    if (pumped.ok()) continue;
    if (pumped.error().code != ErrorCode::kTimeout) return pumped.error();
    if (std::chrono::steady_clock::now() < deadline) continue;
    // This call's own deadline passed: abandon it so a late response
    // cannot be mis-matched to a newer id.
    pending_.erase(call.id);
    abandoned_.insert(call.id);
    return make_error(ErrorCode::kTimeout, "pipelined call timed out",
                      std::to_string(call.id));
  }
}

Status BbdClient::drain() {
  while (!pending_.empty()) {
    if (const Status pumped = pump_oldest(); !pumped.ok()) return pumped;
  }
  return broken_.has_value() ? Status(*broken_) : Status::ok_status();
}

Result<BbdResponse> BbdClient::call(BbdRequest request) {
  // call_async + wait: with an empty pipe this is exactly the original
  // serial round trip — same bytes, same blocking behavior.
  auto handle = call_async(std::move(request));
  if (!handle.ok()) return handle.error();
  return wait(handle.value());
}

Status BbdClient::ping() {
  BbdRequest req;
  req.op = BbdOp::kPing;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Status BbdClient::hello(bool release_on_disconnect) {
  BbdRequest req;
  req.op = BbdOp::kHello;
  req.flags = release_on_disconnect ? hello_flag::kReleaseOnDisconnect : 0u;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Status BbdClient::configure(std::uint64_t domains, std::uint64_t seed,
                            SimDuration inter_domain_latency,
                            double domain_capacity, double sla_rate) {
  BbdRequest req;
  req.op = BbdOp::kConfigure;
  req.u64a = domains;
  req.u64b = seed;
  req.u64c = static_cast<std::uint64_t>(inter_domain_latency);
  req.f64a = domain_capacity;
  req.f64b = sla_rate;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Status BbdClient::set_latency(std::size_t i, std::size_t j,
                              SimDuration latency) {
  BbdRequest req;
  req.op = BbdOp::kSetLatency;
  req.u64a = i;
  req.u64b = j;
  req.u64c = static_cast<std::uint64_t>(latency);
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Status BbdClient::set_processing_delay(SimDuration delay) {
  BbdRequest req;
  req.op = BbdOp::kSetProcessingDelay;
  req.u64a = static_cast<std::uint64_t>(delay);
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Result<std::string> BbdClient::make_user(const std::string& name,
                                         std::size_t home,
                                         bool with_capability,
                                         bool register_everywhere) {
  BbdRequest req;
  req.op = BbdOp::kMakeUser;
  req.stra = name;
  req.u64a = home;
  req.flags = (with_capability ? 1u : 0u) | (register_everywhere ? 2u : 0u);
  auto res = call(std::move(req));
  if (!res.ok()) return res.error();
  return res.value().stra;
}

namespace {

BbdRequest reserve_request(BbdOp op, const BbdClient::ReserveArgs& args) {
  BbdRequest req;
  req.op = op;
  req.stra = args.user;
  req.f64a = args.rate;
  req.u64a = static_cast<std::uint64_t>(args.interval.start);
  req.u64b = static_cast<std::uint64_t>(args.interval.end);
  req.u64c = args.src;
  req.u64d = args.dst_offset_from_end;
  req.flags = (args.is_tunnel ? 1u : 0u) | (args.parallel ? 2u : 0u);
  req.f64b = static_cast<double>(args.at);
  return req;
}

Result<BbdClient::RemoteOutcome> to_outcome(Result<BbdResponse> res) {
  if (!res.ok()) return res.error();
  auto reply = sig::RarReply::decode(res.value().bytes);
  if (!reply.ok()) return reply.error();
  BbdClient::RemoteOutcome outcome;
  outcome.reply = std::move(reply.value());
  outcome.reply_bytes = std::move(res.value().bytes);
  outcome.latency = static_cast<SimDuration>(res.value().u64a);
  outcome.messages = res.value().u64b;
  return outcome;
}

}  // namespace

Result<BbdClient::RemoteOutcome> BbdClient::reserve(const ReserveArgs& args) {
  return to_outcome(call(reserve_request(BbdOp::kReserve, args)));
}

Result<BbdClient::RemoteOutcome> BbdClient::source_reserve(
    const ReserveArgs& args) {
  return to_outcome(call(reserve_request(BbdOp::kSourceReserve, args)));
}

Result<BbdClient::RemoteOutcome> BbdClient::tunnel_reserve(
    const std::string& tunnel_id, const std::string& user_dn, double rate,
    TimeInterval interval, SimTime at) {
  BbdRequest req;
  req.op = BbdOp::kTunnelReserve;
  req.stra = tunnel_id;
  req.strb = user_dn;
  req.f64a = rate;
  req.u64a = static_cast<std::uint64_t>(interval.start);
  req.u64b = static_cast<std::uint64_t>(interval.end);
  req.f64b = static_cast<double>(at);
  return to_outcome(call(std::move(req)));
}

Status BbdClient::release(const std::string& engine,
                          const Bytes& reply_bytes) {
  BbdRequest req;
  req.op = BbdOp::kRelease;
  req.stra = engine;
  req.bytes = reply_bytes;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Status BbdClient::tunnel_release(const std::string& tunnel_id,
                                 const std::string& sub_id) {
  BbdRequest req;
  req.op = BbdOp::kTunnelRelease;
  req.stra = tunnel_id;
  req.strb = sub_id;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

Result<BbdClient::Stats> BbdClient::stats(SimTime at) {
  BbdRequest req;
  req.op = BbdOp::kStats;
  req.f64b = static_cast<double>(at);
  auto res = call(std::move(req));
  if (!res.ok()) return res.error();
  Stats stats;
  stats.reservations = res.value().u64a;
  stats.committed = res.value().f64a;
  return stats;
}

Result<double> BbdClient::metric(const std::string& name,
                                 const std::string& labels,
                                 const std::string& field) {
  BbdRequest req;
  req.op = BbdOp::kMetricQuery;
  req.stra = name;
  req.labels = labels;
  req.strb = field;
  auto res = call(std::move(req));
  if (!res.ok()) return res.error();
  return res.value().f64a;
}

Result<std::size_t> BbdClient::snapshot_domain(std::size_t domain) {
  BbdRequest req;
  req.op = BbdOp::kSnapshot;
  req.u64a = domain;
  auto res = call(std::move(req));
  if (!res.ok()) return res.error();
  return static_cast<std::size_t>(res.value().u64a);
}

Status BbdClient::shutdown_daemon() {
  BbdRequest req;
  req.op = BbdOp::kShutdown;
  auto res = call(std::move(req));
  return res.ok() ? Status::ok_status() : Status(res.error());
}

}  // namespace e2e::net
