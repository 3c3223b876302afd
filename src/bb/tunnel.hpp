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
  /// rejection counter and boundary gauge. Call before concurrent use.
  void set_owner_domain(std::string domain) {
    owner_domain_ = domain;
    pool_.set_owner_domain(std::move(domain));
  }

  /// Attach the owning broker's write-ahead log: per-flow allocations,
  /// releases and authorization grants become durable-before-ack. Set at
  /// registration (or recovery completion), before concurrent use.
  void set_wal(WriteAheadLog* wal) { wal_ = wal; }

  /// Principals authorized to draw bandwidth from this tunnel. Setup-time
  /// only: authorization is not synchronized against concurrent allocate().
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

  /// One per-flow request inside a batch allocation.
  struct SubFlowRequest {
    ReservationId sub_id;
    std::string user_dn;
    TimeInterval interval;
    double rate = 0;
  };

  /// Allocate a per-flow slice inside the aggregate. Only the two end
  /// domains run this check — no intermediate signalling. Thread-safe:
  /// the pool's internal lock makes the check-and-commit atomic.
  Status allocate(const ReservationId& sub_id, const std::string& user_dn,
                  const TimeInterval& interval, double rate) {
    std::uint64_t lsn = 0;
    const SubFlowRequest flow{sub_id, user_dn, interval, rate};
    auto status = allocate_apply(flow, &lsn);
    if (!status.ok()) return status;
    if (lsn != 0) {
      // Finish half: block for the group commit outside the pool lock. A
      // sync failure unwinds the grant — never ack what isn't durable.
      auto durable = wal_->commit(lsn);
      if (!durable.ok()) {
        allocate_unwind(sub_id);
        return durable;
      }
    }
    return status;
  }

  /// Apply half of allocate(): authorization gate, pool commit, WAL
  /// *append* (no sync). When it sets `*lsn` (non-zero), the caller owns
  /// the finish half: WriteAheadLog::commit(lsn) before acking,
  /// allocate_unwind() if that fails.
  Status allocate_apply(const SubFlowRequest& flow, std::uint64_t* lsn) {
    auto gate = admission_gate(flow.user_dn, flow.interval);
    if (!gate.ok()) return gate;
    auto status = pool_.commit(flow.sub_id, flow.interval, flow.rate);
    if (status.ok() && wal_ != nullptr) {
      *lsn = wal_->append(
          owner_domain_, wal_kind::kTunnelAlloc,
          {{"tunnel", id_},
           {"sub_id", flow.sub_id},
           {"user", flow.user_dn},
           {"start", std::to_string(flow.interval.start)},
           {"end", std::to_string(flow.interval.end)},
           {"rate", wal_format_double(flow.rate)}});
    }
    return status;
  }

  /// Roll back an applied-but-not-durable allocation (see allocate_apply).
  void allocate_unwind(const ReservationId& sub_id) {
    (void)pool_.release(sub_id);
  }

  /// Admit a vector of per-flow requests against the aggregate in one
  /// pool-lock acquisition (sorted by interval start; see
  /// CapacityPool::commit_batch). Statuses come back in input order;
  /// authorization/lifetime failures never reach the pool.
  std::vector<Status> allocate_batch(
      const std::vector<SubFlowRequest>& flows) {
    std::uint64_t lsn = 0;
    std::vector<std::size_t> granted;
    auto statuses = allocate_batch_apply(flows, &lsn, &granted);
    if (lsn != 0) {
      auto durable = wal_->commit(lsn);
      if (!durable.ok()) {
        for (std::size_t i : granted) {
          allocate_unwind(flows[i].sub_id);
          statuses[i] = durable;
        }
      }
    }
    return statuses;
  }

  /// Apply half of allocate_batch(): gates, one pool commit_batch, ONE
  /// WAL record appended for the granted flows (the group commit makes a
  /// batch of N flows cost one line and one fsync). Same finish contract
  /// as allocate_apply; `*granted` receives the indexes to unwind.
  std::vector<Status> allocate_batch_apply(
      const std::vector<SubFlowRequest>& flows, std::uint64_t* lsn,
      std::vector<std::size_t>* granted) {
    std::vector<Status> statuses(flows.size(), Status::ok_status());
    std::vector<CapacityPool::BatchRequest> pool_batch;
    std::vector<std::size_t> pool_index;
    pool_batch.reserve(flows.size());
    pool_index.reserve(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      auto gate = admission_gate(flows[i].user_dn, flows[i].interval);
      if (!gate.ok()) {
        statuses[i] = std::move(gate);
        continue;
      }
      pool_batch.push_back(CapacityPool::BatchRequest{
          flows[i].sub_id, flows[i].interval, flows[i].rate});
      pool_index.push_back(i);
    }
    std::vector<Status> pool_statuses = pool_.commit_batch(pool_batch);
    for (std::size_t j = 0; j < pool_statuses.size(); ++j) {
      statuses[pool_index[j]] = std::move(pool_statuses[j]);
    }
    for (std::size_t i : pool_index) {
      if (statuses[i].ok()) granted->push_back(i);
    }
    if (wal_ != nullptr && !granted->empty()) {
      std::vector<WalFields> items;
      items.reserve(granted->size());
      for (std::size_t i : *granted) {
        items.push_back({{"sub_id", flows[i].sub_id},
                         {"user", flows[i].user_dn},
                         {"start", std::to_string(flows[i].interval.start)},
                         {"end", std::to_string(flows[i].interval.end)},
                         {"rate", wal_format_double(flows[i].rate)}});
      }
      *lsn = wal_->append(
          owner_domain_, wal_kind::kTunnelAllocBatch,
          {{"tunnel", id_}, {"count", std::to_string(items.size())}},
          std::move(items));
    }
    return statuses;
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
  /// Authorization + lifetime checks shared by allocate()/allocate_batch().
  Status admission_gate(const std::string& user_dn,
                        const TimeInterval& interval) const {
    if (!is_authorized(user_dn)) {
      return make_error(ErrorCode::kPolicyDenied,
                        user_dn + " not authorized for tunnel " + id_);
    }
    if (!spec_.interval.contains(interval.start) ||
        interval.end > spec_.interval.end) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "sub-reservation outside tunnel lifetime");
    }
    return Status::ok_status();
  }

  TunnelId id_;
  ResSpec spec_;
  CapacityPool pool_;
  std::set<std::string> authorized_;
  std::string owner_domain_;
  WriteAheadLog* wal_ = nullptr;  // owned by the deployment, not the tunnel
};

}  // namespace e2e::bb
