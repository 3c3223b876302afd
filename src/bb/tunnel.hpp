// Tunnels: aggregate end-to-end reservations.
//
// Paper §1: "Support for tunnels allows an entity to request an aggregate
// end-to-end reservation. Users authorized to use this tunnel can then
// request portions of this aggregate bandwidth by contacting just the two
// end domains — the intermediate domains do not need to be contacted as
// long as the total bandwidth remains less than the size of the tunnel."
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bb/admission.hpp"
#include "bb/reservation.hpp"
#include "bb/wal.hpp"

namespace e2e::bb {

using TunnelId = std::string;

class Tunnel {
 public:
  Tunnel() = default;
  Tunnel(TunnelId id, ResSpec aggregate_spec)
      : id_(std::move(id)),
        spec_(std::move(aggregate_spec)),
        pool_(spec_.rate_bits_per_s) {}

  const TunnelId& id() const { return id_; }
  const ResSpec& spec() const { return spec_; }
  double aggregate_rate() const { return spec_.rate_bits_per_s; }

  /// Domain whose broker registered this tunnel; labels the pool's
  /// rejection counter and boundary gauge.
  void set_owner_domain(std::string domain) {
    owner_domain_ = domain;
    pool_.set_owner_domain(std::move(domain));
  }

  /// Attach the owning broker's write-ahead log: per-flow allocations,
  /// releases and authorization grants become durable-before-ack. Set at
  /// registration (or recovery completion).
  void set_wal(WriteAheadLog* wal) { wal_ = wal; }

  /// Principals authorized to draw bandwidth from this tunnel.
  /// Durable-before-ack like every grant: if the WAL commit fails, the
  /// in-memory insert is rolled back and the error propagates — a
  /// recovered broker never silently loses an acked authorization.
  Status authorize(const std::string& user_dn) {
    const bool inserted = authorized_.insert(user_dn).second;
    if (wal_ != nullptr) {
      auto durable = wal_->log(owner_domain_, wal_kind::kTunnelAuthorize,
                               {{"tunnel", id_}, {"user", user_dn}});
      if (!durable.ok()) {
        if (inserted) authorized_.erase(user_dn);
        return durable;
      }
    }
    return Status::ok_status();
  }
  bool is_authorized(const std::string& user_dn) const {
    return authorized_.contains(user_dn);
  }
  const std::set<std::string>& authorized() const { return authorized_; }

  /// Allocate a per-flow slice inside the aggregate. Only the two end
  /// domains run this check — no intermediate signalling.
  Status allocate(const ReservationId& sub_id, const std::string& user_dn,
                  const TimeInterval& interval, double rate) {
    if (!is_authorized(user_dn)) {
      return make_error(ErrorCode::kPolicyDenied,
                        user_dn + " not authorized for tunnel " + id_);
    }
    if (!spec_.interval.contains(interval.start) ||
        interval.end > spec_.interval.end) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "sub-reservation outside tunnel lifetime");
    }
    auto status = pool_.commit(sub_id, interval, rate);
    if (!status.ok() || wal_ == nullptr) return status;
    const std::uint64_t lsn = wal_->append(
        owner_domain_, wal_kind::kTunnelAlloc,
        {{"tunnel", id_},
         {"sub_id", sub_id},
         {"user", user_dn},
         {"start", std::to_string(interval.start)},
         {"end", std::to_string(interval.end)},
         {"rate", wal_format_double(rate)}});
    // A sync failure unwinds the grant — never ack what isn't durable.
    auto durable = wal_->commit(lsn);
    if (!durable.ok()) {
      (void)pool_.release(sub_id);
      return durable;
    }
    return status;
  }

  Status release(const ReservationId& sub_id) {
    std::uint64_t lsn = 0;
    auto status = pool_.release(sub_id);
    if (status.ok() && wal_ != nullptr) {
      lsn = wal_->append(owner_domain_, wal_kind::kTunnelRelease,
                         {{"tunnel", id_}, {"sub_id", sub_id}});
    }
    // Apply-then-log: a lost release record is conservative on replay
    // (capacity stays reserved, never double-granted), so the sync result
    // does not gate the status.
    if (lsn != 0) (void)wal_->commit(lsn);
    return status;
  }

  // --- Recovery support (bb/snapshot.cpp, bb/recovery.cpp) ------------------
  /// Live per-flow allocations, for the state snapshot.
  std::vector<CapacityPool::CommitmentView> allocations() const {
    return pool_.commitments_view();
  }
  /// Re-install an allocation during replay: no authorization gate (the
  /// original allocate already passed it) and no WAL re-append. kConflict
  /// on a duplicate sub_id makes replay idempotent.
  Status restore_allocation(const ReservationId& sub_id,
                            const TimeInterval& interval, double rate) {
    return pool_.commit(sub_id, interval, rate);
  }

  double allocated_peak(const TimeInterval& interval) const {
    return pool_.peak_committed(interval);
  }
  double headroom(const TimeInterval& interval) const {
    return pool_.headroom(interval);
  }
  std::size_t active_allocations() const { return pool_.commitment_count(); }

 private:
  TunnelId id_;
  ResSpec spec_;
  CapacityPool pool_;
  std::set<std::string> authorized_;
  std::string owner_domain_;
  WriteAheadLog* wal_ = nullptr;  // owned by the deployment, not the tunnel
};

}  // namespace e2e::bb
