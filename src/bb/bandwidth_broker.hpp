// The bandwidth broker (BB).
//
// Paper §2: "A BB provides admission control and configures the edge
// routers of a single administrative network domain." This class is the
// *local* half of the system: identity (key pair + certificate), SLA table
// with peered domains, interdomain next-hop selection, policy evaluation
// via the attached policy server, interval-based admission control, tunnel
// bookkeeping, and edge-router configuration hooks.
//
// The distributed half — RAR construction, nested signing, hop-by-hop and
// source-based propagation — lives in src/sig and drives brokers through
// this interface.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bb/admission.hpp"
#include "bb/reservation.hpp"
#include "bb/tunnel.hpp"
#include "common/rng.hpp"
#include "crypto/ca.hpp"
#include "crypto/certstore.hpp"
#include "policy/policy_server.hpp"
#include "sla/sla.hpp"

namespace e2e::obs {
class Histogram;
}  // namespace e2e::obs

namespace e2e::bb {

struct BrokerConfig {
  /// Administrative domain this broker controls (one BB per domain;
  /// paper §3: "It is unlikely that a single bandwidth broker will control
  /// more than one domain").
  std::string domain;
  /// Premium capacity the domain can carry (admission ceiling).
  double capacity_bits_per_s = 0;
  unsigned key_bits = 512;
};

class BandwidthBroker {
 public:
  /// The broker generates its key pair and obtains its certificate from
  /// `ca` (the domain's certificate authority).
  BandwidthBroker(BrokerConfig config, policy::PolicyServer policy_server,
                  crypto::CertificateAuthority& ca, Rng& rng,
                  TimeInterval cert_validity);

  // --- Identity and trust -------------------------------------------------
  const std::string& domain() const { return config_.domain; }
  const crypto::DistinguishedName& dn() const { return dn_; }
  const crypto::Certificate& certificate() const { return certificate_; }
  const crypto::PublicKey& public_key() const { return keys_.pub; }
  Bytes sign(BytesView data) const { return crypto::sign(keys_.priv, data); }
  /// Sign a certificate builder with the broker's own key — used for
  /// capability delegation (§6.5), where each broker re-issues the received
  /// capability to the next hop under its own signature.
  crypto::Certificate sign_certificate(
      const crypto::Certificate::Builder& builder) const {
    return builder.sign_with(keys_.priv);
  }
  /// Fresh serial for locally issued (delegation) certificates. WAL-logged
  /// (kind `delegation_serial`) so a recovered broker never re-issues a
  /// serial it already handed out.
  std::uint64_t next_certificate_serial();
  /// Private key accessor for constructing the broker's secure-channel
  /// endpoint (the TLS stack acts with the broker's key). Do not use for
  /// signing application data — use sign()/sign_certificate().
  const crypto::PrivateKey& private_key() const { return keys_.priv; }
  crypto::TrustStore& trust_store() { return trust_store_; }
  const crypto::TrustStore& trust_store() const { return trust_store_; }

  // --- Peering ------------------------------------------------------------
  /// Register the SLA for traffic arriving *from* a peered upstream domain.
  /// Installs the peer's certificates (if present) as channel trust
  /// material and creates the per-peer admission pool sized by the profile.
  void add_upstream_sla(sla::ServiceLevelAgreement agreement);
  const sla::ServiceLevelAgreement* upstream_sla(
      const std::string& from_domain) const;

  /// Static interdomain routing: the peer to forward to for a destination.
  void set_next_hop(const std::string& destination_domain,
                    const std::string& peer_domain);
  std::optional<std::string> next_hop(
      const std::string& destination_domain) const;

  // --- Policy -------------------------------------------------------------
  policy::PolicyServer& policy_server() { return policy_server_; }
  const policy::PolicyServer& policy_server() const { return policy_server_; }

  // --- Admission control ----------------------------------------------------
  // A broker is not thread-safe: it belongs to one world, and the thread
  // that owns the world drives every call (docs/ARCHITECTURE.md). Pools,
  // records, tunnels, counters and the id sources are plain state.

  /// Admit and record the reservation; returns the new handle. Commits
  /// both the local capacity pool and (for transit traffic) the per-peer
  /// SLA pool, with rollback on partial failure.
  Result<ReservationId> commit(const ResSpec& spec,
                               const std::string& from_domain);

  Status release(const ReservationId& id);
  const Reservation* find(const ReservationId& id) const;

  /// Housekeeping: drop reservations whose interval ended at or before
  /// `now`. Expired commitments no longer affect admission (the pools are
  /// interval-aware), so this only reclaims records and pool entries.
  /// Returns the number purged.
  std::size_t purge_expired(SimTime now);
  std::size_t reservation_count() const { return records_.size(); }
  double committed_at(SimTime t) const { return local_pool_.committed_at(t); }
  double headroom(const TimeInterval& iv) const {
    return local_pool_.headroom(iv);
  }

  // --- Tunnels --------------------------------------------------------------
  /// Record an established aggregate tunnel at this (end) domain.
  /// The returned Tunnel* stays valid (registered tunnels are never
  /// erased).
  Result<TunnelId> register_tunnel(const ResSpec& aggregate_spec);
  Tunnel* find_tunnel(const TunnelId& id);
  const Tunnel* find_tunnel(const TunnelId& id) const;
  std::size_t tunnel_count() const { return tunnels_.size(); }

  // --- Durability (src/bb/wal.hpp, snapshot.hpp, recovery.hpp) --------------
  /// Attach a write-ahead log: every state-changing decision from here on
  /// is appended and fsync'd before the call returns (a purge logs one
  /// record for every handle it drops). Propagates to already registered
  /// tunnels; newly registered tunnels inherit it. Pass nullptr to detach
  /// (recovery replays with the WAL detached).
  void attach_wal(WriteAheadLog* wal);
  WriteAheadLog* wal() const { return wal_; }
  double capacity() const { return config_.capacity_bits_per_s; }

  /// Re-install a reservation during recovery: pools + record only —
  /// no audit append, no WAL append, no edge-configurator callback, no
  /// grant counters. kConflict on a duplicate handle (idempotent replay).
  Status restore_reservation(const Reservation& reservation);
  /// Re-register a tunnel during recovery (same discipline).
  Status restore_tunnel(const TunnelId& id, const ResSpec& aggregate_spec);
  /// Fast-forward the id/serial sources past everything ever issued, so a
  /// recovered broker never reuses a handle.
  void restore_ids(std::uint64_t next_id, std::uint64_t next_cert_serial);

  std::uint64_t next_id_value() const { return next_id_; }
  std::uint64_t next_certificate_serial_value() const {
    return next_cert_serial_;
  }
  /// Every live reservation, for the state snapshot (id order).
  std::vector<Reservation> all_reservations() const;
  /// Every registered tunnel, for the state snapshot (pointers stay valid;
  /// tunnels are never erased).
  std::vector<const Tunnel*> all_tunnels() const;

  // --- Edge-router configuration --------------------------------------------
  /// Invoked on commit (install=true) and release (install=false); the
  /// deployment binds this to the DiffServ simulator's policers.
  using EdgeConfigurator =
      std::function<void(const Reservation&, bool install)>;
  void set_edge_configurator(EdgeConfigurator fn) {
    edge_configurator_ = std::move(fn);
  }

  // --- Statistics -----------------------------------------------------------
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t granted = 0;
    std::uint64_t denied_admission = 0;
    std::uint64_t released = 0;
  };
  Counters counters() const { return stats_; }
  /// Restore the statistics counters from a snapshot (recovery only).
  void restore_counters(const Counters& counters) { stats_ = counters; }

 private:
  BrokerConfig config_;
  crypto::DistinguishedName dn_;
  crypto::KeyPair keys_;
  crypto::Certificate certificate_;
  crypto::TrustStore trust_store_;
  policy::PolicyServer policy_server_;

  // Setup-time tables: written by add_upstream_sla()/set_next_hop() during
  // world wiring, read by every request afterwards.
  std::map<std::string, sla::ServiceLevelAgreement> upstream_slas_;
  std::map<std::string, CapacityPool> peer_pools_;
  std::map<std::string, std::string> next_hops_;

  CapacityPool local_pool_;
  std::map<ReservationId, Reservation> records_;
  std::map<TunnelId, Tunnel> tunnels_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_cert_serial_ = 100000;

  /// commit()'s pre-pool validation: spec shape and SLA conformance.
  Status screen_request(const ResSpec& spec,
                        const std::string& from_domain) const;
  /// Per-decision bookkeeping for commit().
  void record_rejection(const ResSpec& spec, const std::string& reason);
  void record_grant(const ResSpec& spec);

  /// Append one record covering an already-applied state change and make
  /// it durable (no-op when no WAL is attached). Returns the
  /// commit status so callers can refuse to ack on a sync failure.
  Status wal_log(const char* kind, WalFields fields,
                 std::vector<WalFields> items = {});

  EdgeConfigurator edge_configurator_;
  Counters stats_;
  WriteAheadLog* wal_ = nullptr;  // owned by the deployment, not the broker

  // Cached instrument pointers (stable for the registry's lifetime);
  // resolved once in the constructor so the admission hot path never takes
  // the registry mutex.
  obs::Counter* checks_admitted_ = nullptr;
  obs::Counter* checks_rejected_ = nullptr;
  obs::Counter* committed_counter_ = nullptr;
  obs::Counter* released_counter_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Histogram* admission_hist_ = nullptr;
};

}  // namespace e2e::bb
