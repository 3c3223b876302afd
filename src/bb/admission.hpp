// Interval-based admission control for advance reservations.
//
// A CapacityPool tracks rate commitments over virtual-time intervals
// against a fixed capacity (a link, a peering profile, or a tunnel's
// aggregate). Admission asks: does `rate` fit under the capacity at every
// instant of the requested interval, given all existing commitments?
//
// GARA-style advance reservations (paper §3: "GARA provides advance
// reservations and end-to-end management") need exactly this shape of
// bookkeeping.
//
// The committed-rate function is piecewise constant, so the pool keeps a
// timeline index: one entry per distinct commitment boundary (start or
// end), holding the committed level on [boundary, next boundary). With n
// live commitments and k boundaries inside the queried interval,
// committed_at is O(log n) and peak_committed/can_admit/headroom are
// O(log n + k) — against the original full-map scan, which is kept intact
// as the `*_reference` oracle (same pattern as crypto's modexp_reference).
//
// Footprint: the index is a FlatTimeline (sorted vector, no per-node
// allocation — bb/timeline.hpp keeps the old map as a differential
// oracle), and commitment map nodes come from a slab arena
// (bb/arena.hpp).
//
// Thread safety: none of its own. A pool belongs to one broker or tunnel
// and is driven by the thread that owns its world (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bb/arena.hpp"
#include "bb/timeline.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"

namespace e2e::obs {
class Counter;
class Gauge;
}  // namespace e2e::obs

namespace e2e::bb {

class CapacityPool {
 public:
  CapacityPool() : CapacityPool(0) {}
  explicit CapacityPool(double capacity_bits_per_s,
                        std::string owner_domain = {})
      : capacity_(capacity_bits_per_s),
        owner_domain_(std::move(owner_domain)) {}

  ~CapacityPool();

  // Copies get independent state (and a fresh arena); moved-from pools are
  // empty shells (only destruction/assignment are valid afterwards).
  CapacityPool(const CapacityPool& other);
  CapacityPool& operator=(const CapacityPool& other);
  CapacityPool(CapacityPool&& other) noexcept;
  CapacityPool& operator=(CapacityPool&& other) noexcept;

  double capacity() const { return capacity_; }

  /// Domain this pool accounts against; labels the rejection counter and
  /// the boundary gauge. Set at construction (brokers) or right after
  /// registration (tunnels).
  void set_owner_domain(std::string domain);
  const std::string& owner_domain() const { return owner_domain_; }

  /// Peak committed rate over `interval`.
  double peak_committed(const TimeInterval& interval) const;

  /// Committed rate at one instant.
  double committed_at(SimTime t) const;

  /// Would `rate` fit over the whole interval?
  bool can_admit(const TimeInterval& interval, double rate) const;

  /// Commit `rate` over `interval` under `key` (the reservation handle).
  /// Fails if it does not fit or the key is already present.
  Status commit(const std::string& key, const TimeInterval& interval,
                double rate);

  /// Release a commitment; idempotent error if unknown.
  Status release(const std::string& key);

  bool holds(const std::string& key) const {
    return commitments_.find(key) != commitments_.end();
  }
  std::size_t commitment_count() const {
    return commitments_.size();
  }
  /// Live boundary points in the timeline index (<= 2 * commitments).
  std::size_t boundary_count() const {
    return timeline_.size();
  }

  /// Largest rate admissible over `interval` (capacity - peak committed).
  double headroom(const TimeInterval& interval) const;

  /// One live commitment, as seen by a state snapshot (bb/snapshot.cpp).
  struct CommitmentView {
    std::string key;
    TimeInterval interval;
    double rate = 0;
  };
  /// Stable copy of every live commitment, in key order. The timeline is a
  /// pure function of this set, so persisting it is enough to rebuild the
  /// pool exactly (recovery re-commits each entry).
  std::vector<CommitmentView> commitments_view() const {
    std::vector<CommitmentView> out;
    out.reserve(commitments_.size());
    for (const auto& [key, c] : commitments_) {
      out.push_back(CommitmentView{key, c.interval, c.rate});
    }
    return out;
  }

  /// Slab bytes held by this pool's node arena (footprint reporting —
  /// bench/load_broker's 1M-live point).
  std::size_t arena_bytes() const {
    return commitments_.get_allocator().slab_bytes();
  }

  // --- Reference oracle -----------------------------------------------------
  // The original implementation: committed_at scans every commitment,
  // peak_committed re-evaluates committed_at per boundary point. Kept for
  // differential tests (tests/bb_pool_equivalence_test.cpp) and as the
  // baseline of bench/load_broker.cpp.
  double peak_committed_reference(const TimeInterval& interval) const;
  double committed_at_reference(SimTime t) const;
  bool can_admit_reference(const TimeInterval& interval, double rate) const;
  double headroom_reference(const TimeInterval& interval) const;
  /// commit() with the admission decision taken by the reference scan
  /// instead of the timeline index (both structures stay maintained).
  Status commit_reference(const std::string& key, const TimeInterval& interval,
                          double rate);

 private:
  static constexpr double kEpsilon = 1e-6;

  struct Commitment {
    TimeInterval interval;
    double rate = 0;
  };

  /// Key order is load-bearing: commitments_view(), snapshots and the
  /// reference oracle's float-summation order all iterate it. The arena
  /// allocator only changes where the nodes live.
  using CommitmentMap =
      std::map<std::string, Commitment, std::less<std::string>,
               ArenaAllocator<std::pair<const std::string, Commitment>>>;

  /// commit() and commit_reference(): the admission decision comes from
  /// the timeline index or from the reference scan.
  Status commit_with(const std::string& key, const TimeInterval& interval,
                     double rate, bool use_reference);
  /// Bump one of the pool's counters and bring the boundary gauge up to
  /// date with the timeline.
  void note_mutation(obs::Counter* CapacityPool::*counter);
  /// Move the boundary gauge by the change in timeline size since the
  /// last report.
  void publish_boundaries();
  void ensure_instruments() const;

  double capacity_ = 0;
  std::string owner_domain_;
  CommitmentMap commitments_;
  FlatTimeline timeline_;

  // Cached instrument pointers: MetricsRegistry hands out references that
  // stay valid for its lifetime, and resolving one takes the registry
  // mutex — far too expensive per admission. Resolved lazily; invalidated
  // when the owner domain changes.
  mutable obs::Counter* commits_counter_ = nullptr;
  mutable obs::Counter* releases_counter_ = nullptr;
  mutable obs::Counter* rejections_counter_ = nullptr;
  mutable obs::Gauge* boundaries_gauge_ = nullptr;
  /// Boundary count last reported to the gauge (subtracted on destruction
  /// so short-lived pools don't leave residue behind).
  mutable double reported_boundaries_ = 0;
};

}  // namespace e2e::bb
