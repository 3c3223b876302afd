#include "bb/admission.hpp"

#include <algorithm>
#include <utility>

#include "obs/instruments.hpp"

namespace e2e::bb {

CapacityPool::~CapacityPool() {
  // Return this pool's contribution to the boundary gauge (tunnel pools
  // come and go; the gauge must track live timelines only).
  if (boundaries_gauge_ != nullptr && reported_boundaries_ != 0) {
    boundaries_gauge_->add(-reported_boundaries_);
  }
}

CapacityPool::CapacityPool(const CapacityPool& other)
    : capacity_(other.capacity_),
      owner_domain_(other.owner_domain_),
      // The map's copy gets a fresh arena (select_on_container_copy_
      // construction); the copy never deallocates into the source's slabs.
      commitments_(other.commitments_),
      timeline_(other.timeline_) {}

CapacityPool& CapacityPool::operator=(const CapacityPool& other) {
  if (this == &other) return *this;
  CapacityPool copy(other);
  return *this = std::move(copy);
}

CapacityPool::CapacityPool(CapacityPool&& other) noexcept = default;

CapacityPool& CapacityPool::operator=(CapacityPool&& other) noexcept {
  if (this == &other) return *this;
  if (boundaries_gauge_ != nullptr && reported_boundaries_ != 0) {
    boundaries_gauge_->add(-reported_boundaries_);
  }
  capacity_ = other.capacity_;
  owner_domain_ = std::move(other.owner_domain_);
  commitments_ = std::move(other.commitments_);
  timeline_ = std::move(other.timeline_);
  commits_counter_ = other.commits_counter_;
  releases_counter_ = other.releases_counter_;
  rejections_counter_ = other.rejections_counter_;
  boundaries_gauge_ = other.boundaries_gauge_;
  reported_boundaries_ = other.reported_boundaries_;
  other.boundaries_gauge_ = nullptr;
  other.reported_boundaries_ = 0;
  return *this;
}

void CapacityPool::set_owner_domain(std::string domain) {
  if (domain == owner_domain_) return;
  // The reported boundary count belongs to the OLD label's series: settle
  // it, then take it back before re-resolving under the new label.
  ensure_instruments();
  publish_boundaries();
  if (reported_boundaries_ != 0) boundaries_gauge_->add(-reported_boundaries_);
  reported_boundaries_ = 0;
  owner_domain_ = std::move(domain);
  rejections_counter_ = nullptr;
  boundaries_gauge_ = nullptr;
  ensure_instruments();
  publish_boundaries();
}

void CapacityPool::ensure_instruments() const {
  if (commits_counter_ != nullptr && rejections_counter_ != nullptr) return;
  auto& registry = obs::MetricsRegistry::global();
  obs::Labels domain_labels;
  if (!owner_domain_.empty()) {
    domain_labels.emplace_back("domain", owner_domain_);
  }
  commits_counter_ = &registry.counter(obs::kBbPoolCommitsTotal);
  releases_counter_ = &registry.counter(obs::kBbPoolReleasesTotal);
  rejections_counter_ =
      &registry.counter(obs::kBbPoolRejectionsTotal, domain_labels);
  boundaries_gauge_ =
      &registry.gauge(obs::kBbPoolBoundaries, domain_labels);
}

void CapacityPool::publish_boundaries() {
  const double now = static_cast<double>(timeline_.size());
  if (now != reported_boundaries_) {
    boundaries_gauge_->add(now - reported_boundaries_);
    reported_boundaries_ = now;
  }
}

void CapacityPool::note_mutation(obs::Counter* CapacityPool::*counter) {
  ensure_instruments();
  (this->*counter)->increment();
  publish_boundaries();
}

// --- Timeline queries -------------------------------------------------------

double CapacityPool::peak_committed(const TimeInterval& interval) const {
  return timeline_.peak_committed(interval);
}

double CapacityPool::committed_at(SimTime t) const {
  return timeline_.committed_at(t);
}

bool CapacityPool::can_admit(const TimeInterval& interval, double rate) const {
  return interval.valid() && rate >= 0 &&
         peak_committed(interval) + rate <= capacity_ + kEpsilon;
}

double CapacityPool::headroom(const TimeInterval& interval) const {
  const double h = capacity_ - peak_committed(interval);
  return h > 0 ? h : 0;
}

// --- Reference oracle (the original full-scan implementation) ---------------

double CapacityPool::committed_at_reference(SimTime t) const {
  double total = 0;
  for (const auto& [key, c] : commitments_) {
    if (c.interval.contains(t)) total += c.rate;
  }
  return total;
}

double CapacityPool::peak_committed_reference(
    const TimeInterval& interval) const {
  // Sweep over the start points of overlapping commitments; the committed
  // function only changes at boundaries, so evaluating at each start inside
  // the interval (plus the interval start) finds the peak.
  std::vector<SimTime> points;
  points.reserve(commitments_.size() + 1);
  points.push_back(interval.start);
  for (const auto& [key, c] : commitments_) {
    if (!c.interval.overlaps(interval)) continue;
    if (c.interval.start > interval.start) points.push_back(c.interval.start);
  }
  double peak = 0;
  for (SimTime p : points) {
    peak = std::max(peak, committed_at_reference(p));
  }
  return peak;
}

bool CapacityPool::can_admit_reference(const TimeInterval& interval,
                                       double rate) const {
  return interval.valid() && rate >= 0 &&
         peak_committed_reference(interval) + rate <= capacity_ + kEpsilon;
}

double CapacityPool::headroom_reference(const TimeInterval& interval) const {
  const double h = capacity_ - peak_committed_reference(interval);
  return h > 0 ? h : 0;
}

// --- Mutation ---------------------------------------------------------------

Status CapacityPool::commit_with(const std::string& key,
                                 const TimeInterval& interval, double rate,
                                 bool use_reference) {
  if (!interval.valid() || rate < 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "commit: bad interval or rate");
  }
  if (commitments_.find(key) != commitments_.end()) {
    return make_error(ErrorCode::kConflict, "commit: duplicate key " + key);
  }
  const bool admit = use_reference ? can_admit_reference(interval, rate)
                                   : can_admit(interval, rate);
  if (!admit) {
    const double headroom = use_reference ? headroom_reference(interval)
                                          : this->headroom(interval);
    note_mutation(&CapacityPool::rejections_counter_);
    return make_error(ErrorCode::kAdmissionRejected,
                      "commit: insufficient capacity (headroom " +
                          std::to_string(headroom) + " bits/s)");
  }
  commitments_.emplace(key, Commitment{interval, rate});
  timeline_.apply(interval, rate);
  note_mutation(&CapacityPool::commits_counter_);
  return Status::ok_status();
}

Status CapacityPool::commit(const std::string& key,
                            const TimeInterval& interval, double rate) {
  return commit_with(key, interval, rate, /*use_reference=*/false);
}

Status CapacityPool::commit_reference(const std::string& key,
                                      const TimeInterval& interval,
                                      double rate) {
  return commit_with(key, interval, rate, /*use_reference=*/true);
}

Status CapacityPool::release(const std::string& key) {
  const auto it = commitments_.find(key);
  if (it == commitments_.end()) {
    return make_error(ErrorCode::kNotFound, "release: unknown key " + key);
  }
  const Commitment c = it->second;
  commitments_.erase(it);
  timeline_.retire(c.interval, c.rate);
  // Once the pool empties, drop the whole timeline: incremental subtraction
  // may leave float residue on boundaries still referenced by other
  // commitments, but an empty pool has an exactly-zero profile.
  if (commitments_.empty()) timeline_.clear();
  note_mutation(&CapacityPool::releases_counter_);
  return Status::ok_status();
}

}  // namespace e2e::bb
