#include "bb/bandwidth_broker.hpp"

#include <chrono>
#include <cstdint>

#include "bb/wal.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"

namespace e2e::bb {

namespace {

/// Wall-clock microseconds since `t0` (the admission histogram is the one
/// wall-clock metric; everything else runs on virtual time).
double wall_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BandwidthBroker::BandwidthBroker(BrokerConfig config,
                                 policy::PolicyServer policy_server,
                                 crypto::CertificateAuthority& ca, Rng& rng,
                                 TimeInterval cert_validity)
    : BandwidthBroker(config, std::move(policy_server), ca,
                      crypto::generate_keypair(rng, config.key_bits),
                      cert_validity) {}

BandwidthBroker::BandwidthBroker(BrokerConfig config,
                                 policy::PolicyServer policy_server,
                                 crypto::CertificateAuthority& ca,
                                 crypto::KeyPair keys,
                                 TimeInterval cert_validity)
    : config_(std::move(config)),
      dn_(crypto::DistinguishedName::make("BB-" + config_.domain,
                                          config_.domain)),
      keys_(std::move(keys)),
      certificate_(ca.issue(dn_, keys_.pub, cert_validity)),
      policy_server_(std::move(policy_server)),
      local_pool_(config_.capacity_bits_per_s, config_.domain) {
  trust_store_.add_anchor(ca.root_certificate());
  // Resolve the per-domain instruments once; references stay valid for the
  // registry's lifetime, so the admission hot path never takes the
  // registry mutex.
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels domain{{"domain", config_.domain}};
  checks_admitted_ = &registry.counter(
      obs::kBbAdmissionChecksTotal,
      {{"domain", config_.domain}, {"result", "admitted"}});
  checks_rejected_ = &registry.counter(
      obs::kBbAdmissionChecksTotal,
      {{"domain", config_.domain}, {"result", "rejected"}});
  committed_counter_ =
      &registry.counter(obs::kBbReservationsCommittedTotal, domain);
  released_counter_ =
      &registry.counter(obs::kBbReservationsReleasedTotal, domain);
  active_gauge_ = &registry.gauge(obs::kBbReservationsActive, domain);
  admission_hist_ = &registry.histogram(obs::kBbAdmissionUs, domain);
}

void BandwidthBroker::add_upstream_sla(sla::ServiceLevelAgreement agreement) {
  if (agreement.peer_ca_certificate) {
    trust_store_.add_anchor(*agreement.peer_ca_certificate);
  }
  peer_pools_.emplace(agreement.from_domain,
                      CapacityPool(agreement.profile.rate_bits_per_s,
                                   config_.domain));
  upstream_slas_[agreement.from_domain] = std::move(agreement);
}

const sla::ServiceLevelAgreement* BandwidthBroker::upstream_sla(
    const std::string& from_domain) const {
  const auto it = upstream_slas_.find(from_domain);
  return it == upstream_slas_.end() ? nullptr : &it->second;
}

void BandwidthBroker::set_next_hop(const std::string& destination_domain,
                                   const std::string& peer_domain) {
  next_hops_[destination_domain] = peer_domain;
}

std::optional<std::string> BandwidthBroker::next_hop(
    const std::string& destination_domain) const {
  if (destination_domain == config_.domain) return std::nullopt;
  const auto it = next_hops_.find(destination_domain);
  if (it == next_hops_.end()) return std::nullopt;
  return it->second;
}

Status BandwidthBroker::screen_request(
    const ResSpec& spec, const std::string& from_domain) const {
  if (!spec.admissible()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "reservation needs a valid interval and positive rate",
                      config_.domain);
  }
  if (!from_domain.empty()) {
    // Transit traffic: must conform to the SLA with the upstream peer
    // (paper §6.2: the intermediate BB "checks whether the requested
    // traffic profile conforms to the related SLA").
    const auto* agreement = upstream_sla(from_domain);
    if (agreement == nullptr) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "no SLA with upstream domain " + from_domain,
                        config_.domain);
    }
    if (!agreement->covers(spec.interval.start)) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "SLA with " + from_domain + " does not cover t=" +
                            std::to_string(spec.interval.start),
                        config_.domain);
    }
    const auto pool_it = peer_pools_.find(from_domain);
    if (pool_it == peer_pools_.end() ||
        !pool_it->second.can_admit(spec.interval, spec.rate_bits_per_s)) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "SLA profile with " + from_domain + " exhausted",
                        config_.domain);
    }
  }
  return Status::ok_status();
}

void BandwidthBroker::record_rejection(const ResSpec& spec,
                                       const std::string& reason) {
  ++stats_.denied_admission;
  checks_rejected_->increment();
  obs::AuditLog::global().append(
      config_.domain, obs::audit_kind::kAdmission,
      {{"result", "rejected"},
       {"user", spec.user},
       {"rate_bits_per_s", std::to_string(spec.rate_bits_per_s)},
       {"residual_bits_per_s",
        std::to_string(local_pool_.headroom(spec.interval))},
       {"reason", reason}});
}

void BandwidthBroker::record_grant(const ResSpec& spec) {
  ++stats_.granted;
  checks_admitted_->increment();
  obs::AuditLog::global().append(
      config_.domain, obs::audit_kind::kAdmission,
      {{"result", "admitted"},
       {"user", spec.user},
       {"rate_bits_per_s", std::to_string(spec.rate_bits_per_s)},
       {"residual_bits_per_s",
        std::to_string(local_pool_.headroom(spec.interval))}});
  committed_counter_->increment();
  active_gauge_->add(1);
}

Result<ReservationId> BandwidthBroker::commit(const ResSpec& spec,
                                              const std::string& from_domain) {
  const auto t0 = std::chrono::steady_clock::now();
  ++stats_.requests;
  // Pre-pool checks: spec shape, SLA conformance, local capacity.
  auto admissible = screen_request(spec, from_domain);
  if (admissible.ok() &&
      !local_pool_.can_admit(spec.interval, spec.rate_bits_per_s)) {
    admissible = make_error(
        ErrorCode::kAdmissionRejected,
        "domain capacity exhausted (headroom " +
            std::to_string(local_pool_.headroom(spec.interval)) + " bits/s)",
        config_.domain);
  }
  if (!admissible.ok()) {
    record_rejection(spec, admissible.error().message);
    admission_hist_->observe(wall_us_since(t0));
    return admissible.error();
  }
  const ReservationId id =
      config_.domain + "-resv-" + std::to_string(next_id_++);
  Reservation resv{id, spec, ReservationState::kGranted, from_domain};

  // Apply: pools + record, plus the WAL append; the commit follows.
  Status applied =
      local_pool_.commit(id, spec.interval, spec.rate_bits_per_s);
  if (applied.ok() && !from_domain.empty()) {
    applied = peer_pools_.at(from_domain)
                  .commit(id, spec.interval, spec.rate_bits_per_s);
    if (!applied.ok()) (void)local_pool_.release(id);  // rollback
  }
  if (!applied.ok()) {
    record_rejection(spec, applied.error().message);
    admission_hist_->observe(wall_us_since(t0));
    return applied.error();
  }
  records_.emplace(id, resv);
  std::uint64_t lsn = 0;
  if (wal_ != nullptr) {
    lsn = wal_->append(config_.domain, wal_kind::kAdmit,
                       reservation_to_fields(resv));
  }
  // Durable before acked: the grant is only returned once its WAL record
  // is fsync'd. A sync failure unwinds the whole admission.
  if (lsn != 0) {
    auto durable = wal_->commit(lsn);
    if (!durable.ok()) {
      records_.erase(id);
      (void)local_pool_.release(id);
      if (!from_domain.empty()) (void)peer_pools_.at(from_domain).release(id);
      record_rejection(spec, durable.error().message);
      admission_hist_->observe(wall_us_since(t0));
      return durable.error();
    }
  }
  record_grant(spec);
  admission_hist_->observe(wall_us_since(t0));
  if (edge_configurator_) edge_configurator_(resv, /*install=*/true);
  return id;
}

Status BandwidthBroker::release(const ReservationId& id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return make_error(ErrorCode::kNotFound, "unknown reservation " + id,
                      config_.domain);
  }
  Reservation resv = std::move(it->second);
  records_.erase(it);
  (void)local_pool_.release(id);
  if (!resv.upstream_domain.empty()) {
    const auto pool_it = peer_pools_.find(resv.upstream_domain);
    if (pool_it != peer_pools_.end()) (void)pool_it->second.release(id);
  }
  std::uint64_t lsn = 0;
  if (wal_ != nullptr) {
    lsn = wal_->append(config_.domain, wal_kind::kRelease, {{"id", id}});
  }
  resv.state = ReservationState::kReleased;
  ++stats_.released;
  released_counter_->increment();
  active_gauge_->add(-1);
  if (edge_configurator_) edge_configurator_(resv, /*install=*/false);
  // Apply-then-log: losing an un-acked release record is conservative (the
  // recovered broker still holds the reservation; capacity is never
  // double-granted). A sync failure surfaces as an error after the fact.
  if (lsn != 0) return wal_->commit(lsn);
  return Status::ok_status();
}

std::size_t BandwidthBroker::purge_expired(SimTime now) {
  std::vector<Reservation> purged;
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.spec.interval.end <= now) {
      purged.push_back(it->second);
      (void)local_pool_.release(it->first);
      if (!it->second.upstream_domain.empty()) {
        const auto pool_it = peer_pools_.find(it->second.upstream_domain);
        if (pool_it != peer_pools_.end()) {
          (void)pool_it->second.release(it->first);
        }
      }
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  if (!purged.empty()) {
    stats_.released += purged.size();
    released_counter_->increment(purged.size());
    active_gauge_->add(-static_cast<double>(purged.size()));
    // One record for the whole purge; replay releases each listed handle
    // (unknown handles are skipped, so replay is idempotent).
    std::vector<WalFields> items;
    items.reserve(purged.size());
    for (const Reservation& resv : purged) {
      items.push_back({{"id", resv.id}});
    }
    (void)wal_log(wal_kind::kReleaseBatch,
                  {{"now", std::to_string(now)},
                   {"count", std::to_string(purged.size())}},
                  std::move(items));
  }
  for (auto& resv : purged) {
    resv.state = ReservationState::kReleased;
    if (edge_configurator_) edge_configurator_(resv, /*install=*/false);
  }
  return purged.size();
}

const Reservation* BandwidthBroker::find(const ReservationId& id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

Result<TunnelId> BandwidthBroker::register_tunnel(
    const ResSpec& aggregate_spec) {
  if (!aggregate_spec.is_tunnel) {
    return make_error(ErrorCode::kInvalidArgument,
                      "register_tunnel: spec is not a tunnel",
                      config_.domain);
  }
  const TunnelId id =
      config_.domain + "-tunnel-" +
      std::to_string(next_id_++);
  auto [it, inserted] = tunnels_.emplace(id, Tunnel(id, aggregate_spec));
  if (inserted) {
    it->second.set_owner_domain(config_.domain);
    it->second.set_wal(wal_);
  }
  auto durable = wal_log(
      wal_kind::kTunnelRegister,
      reservation_to_fields(
          Reservation{id, aggregate_spec, ReservationState::kGranted, ""}));
  if (!durable.ok()) {
    // Never ack what isn't durable — and never KEEP what wasn't acked:
    // the caller sees an error, so the tunnel must not stay live in
    // tunnels_ (same unwind discipline as commit()/Tunnel::allocate()).
    tunnels_.erase(id);
    return durable.error();
  }
  obs::MetricsRegistry::global()
      .counter(obs::kBbTunnelsRegisteredTotal, {{"domain", config_.domain}})
      .increment();
  return id;
}

Tunnel* BandwidthBroker::find_tunnel(const TunnelId& id) {
  const auto it = tunnels_.find(id);
  return it == tunnels_.end() ? nullptr : &it->second;
}

const Tunnel* BandwidthBroker::find_tunnel(const TunnelId& id) const {
  const auto it = tunnels_.find(id);
  return it == tunnels_.end() ? nullptr : &it->second;
}

std::uint64_t BandwidthBroker::next_certificate_serial() {
  const std::uint64_t serial = next_cert_serial_++;
  (void)wal_log(wal_kind::kDelegationSerial,
                {{"serial", std::to_string(serial)}});
  return serial;
}

Status BandwidthBroker::wal_log(const char* kind, WalFields fields,
                                std::vector<WalFields> items) {
  if (wal_ == nullptr) return Status::ok_status();
  return wal_->log(config_.domain, kind, std::move(fields),
                   std::move(items));
}

void BandwidthBroker::attach_wal(WriteAheadLog* wal) {
  wal_ = wal;
  for (auto& [id, tunnel] : tunnels_) tunnel.set_wal(wal);
}

Status BandwidthBroker::restore_reservation(const Reservation& reservation) {
  const ReservationId& id = reservation.id;
  if (records_.contains(id)) {
    return make_error(ErrorCode::kConflict,
                      "reservation already present: " + id, config_.domain);
  }
  const ResSpec& spec = reservation.spec;
  auto local = local_pool_.commit(id, spec.interval, spec.rate_bits_per_s);
  if (!local.ok()) return local;
  if (!reservation.upstream_domain.empty()) {
    const auto pool_it = peer_pools_.find(reservation.upstream_domain);
    if (pool_it != peer_pools_.end()) {
      auto peer =
          pool_it->second.commit(id, spec.interval, spec.rate_bits_per_s);
      if (!peer.ok()) {
        (void)local_pool_.release(id);
        return peer;
      }
    }
  }
  records_.emplace(id, reservation);
  active_gauge_->add(1);
  return Status::ok_status();
}

Status BandwidthBroker::restore_tunnel(const TunnelId& id,
                                       const ResSpec& aggregate_spec) {
  auto [it, inserted] = tunnels_.emplace(id, Tunnel(id, aggregate_spec));
  if (!inserted) {
    return make_error(ErrorCode::kConflict, "tunnel already present: " + id,
                      config_.domain);
  }
  it->second.set_owner_domain(config_.domain);
  return Status::ok_status();
}

void BandwidthBroker::restore_ids(std::uint64_t next_id,
                                  std::uint64_t next_cert_serial) {
  next_id_ = next_id;
  next_cert_serial_ = next_cert_serial;
}

std::vector<Reservation> BandwidthBroker::all_reservations() const {
  std::vector<Reservation> out;
  out.reserve(records_.size());
  for (const auto& [id, resv] : records_) out.push_back(resv);
  return out;
}

std::vector<const Tunnel*> BandwidthBroker::all_tunnels() const {
  std::vector<const Tunnel*> out;
  out.reserve(tunnels_.size());
  for (const auto& [id, tunnel] : tunnels_) out.push_back(&tunnel);
  return out;
}

}  // namespace e2e::bb
