// Differential property test: the timeline-indexed capacity pool must be
// decision-for-decision identical to the original full-scan implementation
// (kept as the `*_reference` oracle inside CapacityPool).
//
// Two angles:
//   1. Within one pool, every query answered by the timeline index must
//      exactly equal the reference scan over the same commitment map.
//   2. Two pools fed the same seeded workload — one deciding admissions
//      with the timeline, one with the reference scan — must admit and
//      reject the very same requests and end in identical states.
//
// Rates are exact multiples of 1 Mb/s, so sums of any subset are exact in
// double and "exactly equal" means bit-equal, regardless of the order the
// two implementations accumulate in. scripts/tier1.sh --load re-runs this
// binary under the ASan/UBSan preset.
#include "bb/admission.hpp"

#include <gtest/gtest.h>

#include "bb/timeline.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace e2e::bb {
namespace {

struct Op {
  bool is_release = false;
  std::string key;
  TimeInterval interval{0, 0};
  double rate = 0;
};

/// Seeded workload: mostly commits (some of which must be rejected — the
/// pool is sized so roughly half the offered load fits), with releases
/// mixed in to churn the timeline's boundary set.
std::vector<Op> make_workload(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<std::string> live;
  for (std::size_t i = 0; i < n; ++i) {
    if (!live.empty() && rng.next_bool(0.35)) {
      const std::size_t pick = rng.next_below(live.size());
      ops.push_back({true, live[pick], {0, 0}, 0});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    Op op;
    op.key = "r" + std::to_string(i);
    const SimTime start = static_cast<SimTime>(rng.next_below(500)) * 1000;
    const SimDuration len =
        (1 + static_cast<SimDuration>(rng.next_below(120))) * 1000;
    op.interval = {start, start + len};
    op.rate = 1e6 * static_cast<double>(1 + rng.next_below(40));
    ops.push_back(op);
    live.push_back(op.key);
  }
  return ops;
}

class PoolEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolEquivalence, TimelineMatchesReferenceExactly) {
  const double capacity = 400e6;
  CapacityPool timeline_pool(capacity);
  CapacityPool reference_pool(capacity);
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (const Op& op : make_workload(GetParam(), 400)) {
    if (op.is_release) {
      // Releases only target keys both pools admitted (decisions are
      // asserted identical below, so "held by one" implies "held by both"
      // — but a rejected commit's key never enters either).
      const bool t_holds = timeline_pool.holds(op.key);
      ASSERT_EQ(t_holds, reference_pool.holds(op.key)) << op.key;
      if (!t_holds) continue;
      ASSERT_TRUE(timeline_pool.release(op.key).ok());
      ASSERT_TRUE(reference_pool.release(op.key).ok());
    } else {
      // Both pools must agree BEFORE committing...
      ASSERT_EQ(timeline_pool.can_admit(op.interval, op.rate),
                reference_pool.can_admit_reference(op.interval, op.rate))
          << op.key;
      // ...and take the same decision (timeline decides one pool,
      // reference scan the other).
      const Status t = timeline_pool.commit(op.key, op.interval, op.rate);
      const Status r =
          reference_pool.commit_reference(op.key, op.interval, op.rate);
      ASSERT_EQ(t.ok(), r.ok()) << op.key;
      (t.ok() ? admitted : rejected)++;
    }
    // Cross-implementation state checks: exact equality, both within one
    // pool (timeline vs reference over the same commitments) and across
    // the two pools.
    ASSERT_EQ(timeline_pool.commitment_count(),
              reference_pool.commitment_count());
    const TimeInterval probe{op.interval.start,
                             op.interval.start + 240 * 1000};
    if (!op.is_release) {
      ASSERT_EQ(timeline_pool.headroom(probe),
                timeline_pool.headroom_reference(probe));
      ASSERT_EQ(timeline_pool.headroom(probe),
                reference_pool.headroom_reference(probe));
      ASSERT_EQ(timeline_pool.peak_committed(probe),
                reference_pool.peak_committed_reference(probe));
      ASSERT_EQ(timeline_pool.committed_at(op.interval.start),
                reference_pool.committed_at_reference(op.interval.start));
    }
  }
  // The workload must exercise both outcomes to prove anything.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Dense instant sweep after a full workload: the piecewise-constant
// profiles must agree everywhere, not just at op-adjacent probes.
TEST_P(PoolEquivalence, ProfileSweepIsIdentical) {
  CapacityPool pool(400e6);
  for (const Op& op : make_workload(GetParam() ^ 0x9e3779b97f4a7c15ULL, 250)) {
    if (op.is_release) {
      if (pool.holds(op.key)) {
        ASSERT_TRUE(pool.release(op.key).ok());
      }
    } else {
      (void)pool.commit(op.key, op.interval, op.rate);
    }
  }
  for (SimTime t = 0; t <= 650 * 1000; t += 500) {
    ASSERT_EQ(pool.committed_at(t), pool.committed_at_reference(t)) << t;
  }
  for (SimTime t = 0; t < 650 * 1000; t += 7 * 1000) {
    const TimeInterval iv{t, t + 13 * 1000};
    ASSERT_EQ(pool.peak_committed(iv), pool.peak_committed_reference(iv))
        << t;
    ASSERT_EQ(pool.headroom(iv), pool.headroom_reference(iv)) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolEquivalence,
                         ::testing::Values(2, 11, 303, 20010801, 987654321));

// ---------------------------------------------------------------------------
// ISSUE 8: the pool's index moved from std::map boundaries to the flat
// sorted-vector FlatTimeline. MapTimeline keeps the PR-5 implementation
// verbatim as the oracle; the two must stay entry-for-entry identical —
// levels bit-equal (exact 1 Mb/s multiples), refcounts equal, and pruned
// boundaries pruned in both.

class TimelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineEquivalence, FlatMatchesMapOracleEntryForEntry) {
  FlatTimeline flat;
  MapTimeline oracle;
  Rng rng(GetParam());
  struct Live {
    TimeInterval interval;
    double rate;
  };
  std::vector<Live> live;
  // Coarse 1 ks time grid so boundaries collide often and refcounts climb
  // past 1 — the pruning discipline only shows up on shared boundaries.
  for (int i = 0; i < 600; ++i) {
    if (!live.empty() && rng.next_bool(0.4)) {
      const std::size_t pick = rng.next_below(live.size());
      flat.retire(live[pick].interval, live[pick].rate);
      oracle.retire(live[pick].interval, live[pick].rate);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const SimTime start = static_cast<SimTime>(rng.next_below(40)) * 1000;
      const SimDuration len =
          (1 + static_cast<SimDuration>(rng.next_below(25))) * 1000;
      const Live commitment{{start, start + len},
                            1e6 * static_cast<double>(1 + rng.next_below(20))};
      flat.apply(commitment.interval, commitment.rate);
      oracle.apply(commitment.interval, commitment.rate);
      live.push_back(commitment);
    }
    ASSERT_EQ(flat.size(), oracle.size()) << "op " << i;
    auto it = oracle.boundaries().begin();
    for (const FlatTimeline::Entry& entry : flat.entries()) {
      ASSERT_EQ(entry.time, it->first) << "op " << i;
      ASSERT_EQ(entry.level, it->second.level)
          << "op " << i << " t=" << entry.time;
      ASSERT_EQ(entry.refs, it->second.refs)
          << "op " << i << " t=" << entry.time;
      ++it;
    }
    // Point and peak probes, including instants strictly between
    // boundaries and before the first one.
    for (SimTime t = 0; t <= 70 * 1000; t += 500) {
      ASSERT_EQ(flat.committed_at(t), oracle.committed_at(t)) << t;
    }
    for (SimTime t = 0; t < 70 * 1000; t += 3 * 1000) {
      const TimeInterval iv{t, t + 7 * 1000};
      ASSERT_EQ(flat.peak_committed(iv), oracle.peak_committed(iv)) << t;
    }
  }
  // Drain to empty: every boundary's refcount must reach zero and prune.
  for (const Live& commitment : live) {
    flat.retire(commitment.interval, commitment.rate);
    oracle.retire(commitment.interval, commitment.rate);
  }
  EXPECT_TRUE(flat.empty());
  EXPECT_TRUE(oracle.empty());
}

// A boundary shared by two commitments survives the first retire (refs
// 2 -> 1) and is pruned by the second — in both implementations.
TEST(TimelineRefcount, SharedBoundaryPrunesOnLastRetire) {
  FlatTimeline flat;
  MapTimeline oracle;
  const TimeInterval a{1000, 5000};
  const TimeInterval b{5000, 9000};  // b.start == a.end: shared boundary
  for (auto* apply_both : {&a, &b}) {
    flat.apply(*apply_both, 2e6);
    oracle.apply(*apply_both, 2e6);
  }
  ASSERT_EQ(flat.size(), 3u);
  ASSERT_EQ(oracle.size(), 3u);
  EXPECT_EQ(flat.entries()[1].refs, 2);  // t=5000, end of a + start of b
  flat.retire(a, 2e6);
  oracle.retire(a, 2e6);
  ASSERT_EQ(flat.size(), 2u);  // t=1000 pruned; t=5000 survives on b's ref
  ASSERT_EQ(oracle.size(), 2u);
  EXPECT_EQ(flat.entries()[0].time, 5000);
  EXPECT_EQ(flat.entries()[0].refs, 1);
  EXPECT_EQ(flat.committed_at(6000), oracle.committed_at(6000));
  flat.retire(b, 2e6);
  oracle.retire(b, 2e6);
  EXPECT_TRUE(flat.empty());
  EXPECT_TRUE(oracle.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineEquivalence,
                         ::testing::Values(7, 404, 20010801));

}  // namespace
}  // namespace e2e::bb
