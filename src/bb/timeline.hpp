// Timeline index for the piecewise-constant committed-rate function.
//
// A CapacityPool's committed level only changes at commitment boundaries
// (interval starts and ends). The index keeps one entry per distinct
// boundary: the committed level on [time, next boundary) and a refcount of
// commitments starting or ending there (pruned at zero, so float residue
// from incremental add/subtract cannot accumulate on dead boundaries).
//
// Two implementations share the same contract:
//
//   FlatTimeline  — a sorted vector of POD entries. Lookups are a binary
//                   search over contiguous memory; raising or lowering a
//                   level over [start, end) is a linear pass over adjacent
//                   entries; inserting a new boundary is one vector insert.
//                   No per-node allocation, no pointer chasing: this is
//                   what the pool runs in production.
//
//   MapTimeline   — the PR-5 std::map<SimTime, Boundary> implementation,
//                   kept verbatim as the differential oracle
//                   (tests/bb_pool_equivalence_test.cpp drives both with
//                   identical op sequences, the same *_reference pattern
//                   as crypto's modexp_reference).
//
// Neither is internally locked: the owning pool is driven by one thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "common/clock.hpp"

namespace e2e::bb {

class FlatTimeline {
 public:
  struct Entry {
    SimTime time = 0;
    double level = 0;  ///< committed rate on [time, next entry's time)
    int refs = 0;      ///< commitments starting or ending at `time`
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Committed level at one instant: the level of the greatest boundary
  /// <= t (0 before the first boundary).
  double committed_at(SimTime t) const {
    const std::size_t idx = upper_bound(t);
    return idx == 0 ? 0.0 : entries_[idx - 1].level;
  }

  /// Peak committed level over `interval`. A degenerate interval reduces
  /// to committed_at(start), matching the original full-scan semantics.
  double peak_committed(const TimeInterval& interval) const {
    if (interval.end <= interval.start) return committed_at(interval.start);
    double peak = committed_at(interval.start);
    for (std::size_t i = upper_bound(interval.start);
         i < entries_.size() && entries_[i].time < interval.end; ++i) {
      peak = std::max(peak, entries_[i].level);
    }
    return peak;
  }

  /// Insert a commitment: materialize both boundaries (seeding each new
  /// entry's level from its floor neighbour), take a ref on each, raise
  /// the level on [start, end).
  void apply(const TimeInterval& interval, double rate) {
    // Insert the start boundary first: inserting the (later) end boundary
    // afterwards cannot shift the start index, and the end entry must seed
    // from the pre-raise level (a commitment covers [start, end) only).
    const std::size_t start = ensure_boundary(interval.start);
    const std::size_t end = ensure_boundary(interval.end);
    ++entries_[start].refs;
    ++entries_[end].refs;
    for (std::size_t i = start; i < end; ++i) entries_[i].level += rate;
  }

  /// Remove a released commitment: lower the level on [start, end), drop a
  /// ref from each boundary, erase entries whose refcount reaches zero.
  void retire(const TimeInterval& interval, double rate) {
    const std::size_t start = index_of(interval.start);
    const std::size_t end = index_of(interval.end);
    for (std::size_t i = start; i < end; ++i) entries_[i].level -= rate;
    const bool drop_start = --entries_[start].refs == 0;
    const bool drop_end = --entries_[end].refs == 0;
    // Erase back to front so the start index stays valid (end > start for
    // every valid interval).
    if (drop_end) entries_.erase(entries_.begin() + static_cast<long>(end));
    if (drop_start) {
      entries_.erase(entries_.begin() + static_cast<long>(start));
    }
  }

  /// The raw entries, ascending by time (differential tests).
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  /// Index of the first entry with time > t.
  std::size_t upper_bound(SimTime t) const {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), t,
        [](SimTime v, const Entry& e) { return v < e.time; });
    return static_cast<std::size_t>(it - entries_.begin());
  }

  /// Index of the entry at exactly `t`, inserting one (refs 0, level
  /// seeded from the floor neighbour) when absent.
  std::size_t ensure_boundary(SimTime t) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const Entry& e, SimTime v) { return e.time < v; });
    if (it == entries_.end() || it->time != t) {
      const double seed =
          it == entries_.begin() ? 0.0 : std::prev(it)->level;
      it = entries_.insert(it, Entry{t, seed, 0});
    }
    return static_cast<std::size_t>(it - entries_.begin());
  }

  /// Index of the entry at exactly `t` (which must exist: retire only
  /// sees boundaries its own apply materialized).
  std::size_t index_of(SimTime t) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const Entry& e, SimTime v) { return e.time < v; });
    return static_cast<std::size_t>(it - entries_.begin());
  }

  std::vector<Entry> entries_;
};

/// The PR-5 map-backed index, kept as the flat index's differential
/// oracle. Same contract, same pruning discipline.
class MapTimeline {
 public:
  struct Boundary {
    double level = 0;
    int refs = 0;
  };

  std::size_t size() const { return timeline_.size(); }
  bool empty() const { return timeline_.empty(); }
  void clear() { timeline_.clear(); }

  double committed_at(SimTime t) const {
    auto it = timeline_.upper_bound(t);
    if (it == timeline_.begin()) return 0;
    return std::prev(it)->second.level;
  }

  double peak_committed(const TimeInterval& interval) const {
    if (interval.end <= interval.start) return committed_at(interval.start);
    double peak = committed_at(interval.start);
    for (auto it = timeline_.upper_bound(interval.start);
         it != timeline_.end() && it->first < interval.end; ++it) {
      peak = std::max(peak, it->second.level);
    }
    return peak;
  }

  void apply(const TimeInterval& interval, double rate) {
    auto add_boundary = [this](SimTime t) {
      auto it = timeline_.lower_bound(t);
      if (it == timeline_.end() || it->first != t) {
        const double seed =
            it == timeline_.begin() ? 0.0 : std::prev(it)->second.level;
        it = timeline_.emplace_hint(it, t, Boundary{seed, 0});
      }
      return it;
    };
    auto start_it = add_boundary(interval.start);
    auto end_it = add_boundary(interval.end);
    ++start_it->second.refs;
    ++end_it->second.refs;
    for (auto it = start_it; it != end_it; ++it) it->second.level += rate;
  }

  void retire(const TimeInterval& interval, double rate) {
    auto start_it = timeline_.find(interval.start);
    auto end_it = timeline_.find(interval.end);
    for (auto it = start_it; it != end_it; ++it) it->second.level -= rate;
    if (--start_it->second.refs == 0) timeline_.erase(start_it);
    if (--end_it->second.refs == 0) timeline_.erase(end_it);
  }

  const std::map<SimTime, Boundary>& boundaries() const { return timeline_; }

 private:
  std::map<SimTime, Boundary> timeline_;
};

}  // namespace e2e::bb
