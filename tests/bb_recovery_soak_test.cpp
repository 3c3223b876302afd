// Crash/recover soak (ISSUE 6): seeded randomized trials against a durable
// multi-domain world. Traffic runs through the hop-by-hop engine with a
// light fault profile; brokers are crashed mid-traffic via the fault
// fabric (PR-2), their on-disk state (snapshot + WAL tail) replayed into a
// blank broker and compared against the live in-memory oracle — the exact
// pool timeline at every probed instant, the full reservation set, and the
// tunnel books. After the mix: everything released, zero residual
// committed bandwidth anywhere, and never a double-grant (timeline
// equality is checked on every recovery).
//
// Reproducibility: base seed from E2E_SOAK_SEED (default 20010801), echoed
// up front; every trial announces itself via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bb/recovery.hpp"
#include "bb/snapshot.hpp"
#include "testing_world.hpp"

namespace e2e::kit {
namespace {

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("E2E_SOAK_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20010801ull;
}

constexpr std::size_t kDomains = 3;
constexpr std::size_t kTrials = 80;

/// Fresh durability directory for this run (stale logs from a previous
/// process must not be adopted into the new chain).
std::string make_durability_dir(std::uint64_t seed) {
  const std::string dir =
      ::testing::TempDir() + "bb_recovery_soak_" + std::to_string(seed);
  ::mkdir(dir.c_str(), 0755);
  for (std::size_t i = 0; i < kDomains; ++i) {
    const std::string base = dir + "/" + ChainWorld::domain_name(i);
    std::remove((base + ".wal").c_str());
    std::remove((base + ".snapshot").c_str());
  }
  return dir;
}

/// Differential check: the broker recovered from disk must be
/// indistinguishable from the live oracle — same reservation set, same
/// committed bandwidth at every interval boundary, same tunnel books.
/// Timeline equality at every probe is also the no-double-grant check: a
/// record applied twice would overshoot the oracle somewhere.
void expect_matches_oracle(const bb::BandwidthBroker& oracle,
                           const bb::BandwidthBroker& recovered) {
  const auto ra = oracle.all_reservations();
  const auto rb = recovered.all_reservations();
  ASSERT_EQ(ra.size(), rb.size());
  std::set<SimTime> ts{0};
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_TRUE(ra[i].spec == rb[i].spec) << "spec mismatch for " << ra[i].id;
    EXPECT_EQ(ra[i].upstream_domain, rb[i].upstream_domain);
    for (SimTime t : {ra[i].spec.interval.start, ra[i].spec.interval.end - 1,
                      ra[i].spec.interval.end + 1}) {
      ts.insert(t);
    }
  }
  for (SimTime t : ts) {
    ASSERT_DOUBLE_EQ(oracle.committed_at(t), recovered.committed_at(t))
        << "pool timeline diverges at t=" << t;
  }
  ASSERT_EQ(oracle.tunnel_count(), recovered.tunnel_count());
  for (const bb::Tunnel* t : oracle.all_tunnels()) {
    const bb::Tunnel* other = recovered.find_tunnel(t->id());
    ASSERT_NE(other, nullptr) << "missing tunnel " << t->id();
    EXPECT_EQ(t->authorized(), other->authorized());
    const auto aa = t->allocations();
    const auto ab = other->allocations();
    ASSERT_EQ(aa.size(), ab.size()) << "tunnel " << t->id();
    for (std::size_t i = 0; i < aa.size(); ++i) {
      EXPECT_EQ(aa[i].key, ab[i].key);
      EXPECT_DOUBLE_EQ(aa[i].rate, ab[i].rate);
    }
  }
}

/// Crash domain `d` mid-traffic and differentially recover it: isolate it
/// on the fabric, fire one in-flight request at the chain (it sees the
/// outage), then replay the domain's disk state into a blank broker and
/// compare against the frozen live broker.
void crash_and_recover(ChainWorld& world, const WorldUser& alice,
                       std::size_t d, std::size_t trial) {
  world.crash_broker(d);
  const double rate = 1e6 + 1e3 * static_cast<double>(trial);
  const TimeInterval iv{seconds(static_cast<std::int64_t>(9000 + trial)),
                        seconds(static_cast<std::int64_t>(9600 + trial))};
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, rate, iv), 0);
  ASSERT_TRUE(msg.ok());
  const auto in_flight = world.engine().reserve(*msg, iv.start);
  // The downed domain is on every path in this chain, so the in-flight
  // request cannot have been granted — and must not have leaked state.
  if (in_flight.ok()) {
    EXPECT_FALSE(in_flight->reply.granted);
  }

  auto blank = world.make_blank_broker(d);
  const auto report =
      bb::recover_broker(*blank, world.snapshot_path(d), world.wal_path(d));
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->failed, 0u) << "replay diverged from the oracle";
  expect_matches_oracle(world.broker(d), *blank);
  world.restore_broker(d);
}

TEST(BbRecoverySoak, CrashedBrokersReplayToTheLiveOracle) {
  const std::uint64_t seed = soak_seed();
  std::printf("bb_recovery_soak: seed=%llu trials=%zu domains=%zu\n",
              static_cast<unsigned long long>(seed), kTrials, kDomains);

  ChainWorldConfig config;
  config.domains = kDomains;
  config.durability_dir = make_durability_dir(seed);
  config.seed = seed;
  config.fault_profile.drop = 0.05;
  config.fault_profile.jitter = 0.10;
  config.fault_profile.max_jitter = milliseconds(20);
  config.fault_seed = seed ^ 0xd15c0ull;
  config.retry_policy.max_attempts = 3;
  config.retry_policy.base_timeout = milliseconds(50);
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  Rng control(seed ^ 0x77a1ull);
  std::vector<sig::RarReply> held;
  std::size_t granted = 0, tunnels_made = 0, recoveries = 0;

  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "trial=" << trial << " seed=" << seed
                 << " (rerun: E2E_SOAK_SEED=" << seed << ")");

    // Integer-valued rates keep pool sums exact, so recovery comparisons
    // are bit-exact regardless of replay order (docs/DURABILITY.md).
    const double rate = 1e6 + 1e5 * static_cast<double>(trial) +
                        1e4 * static_cast<double>(control.next_below(9));
    const TimeInterval iv{
        seconds(static_cast<std::int64_t>(trial)),
        seconds(static_cast<std::int64_t>(trial) + 600)};
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, rate, iv), 0);
    ASSERT_TRUE(msg.ok()) << msg.error().to_text();
    const auto outcome = world.engine().reserve(*msg, iv.start);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
    if (outcome->reply.granted) {
      ++granted;
      held.push_back(outcome->reply);
    }

    // Random releases keep release records flowing through every WAL.
    if (!held.empty() && control.next_bool(0.35)) {
      const std::size_t pick = control.next_below(held.size());
      const Status released = world.engine().release_end_to_end(held[pick]);
      ASSERT_TRUE(released.ok()) << released.error().to_text();
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Occasional direct tunnel traffic on a random end domain.
    if (trial % 11 == 7) {
      const std::size_t d = control.next_below(kDomains);
      auto aggregate =
          world.spec(alice, 20e6, {iv.start, iv.start + seconds(3600)});
      aggregate.is_tunnel = true;
      const auto tid = world.broker(d).register_tunnel(aggregate);
      ASSERT_TRUE(tid.ok()) << tid.error().to_text();
      bb::Tunnel* tunnel = world.broker(d).find_tunnel(*tid);
      ASSERT_TRUE(tunnel->authorize(alice.dn.to_string()).ok());
      ASSERT_TRUE(tunnel
                      ->allocate("t" + std::to_string(trial) + "-a",
                                 alice.dn.to_string(),
                                 {iv.start, iv.start + seconds(1200)}, 2e6)
                      .ok());
      ++tunnels_made;
    }

    // Periodic checkpoints on a random domain (snapshot + WAL truncation).
    if (trial % 10 == 4) {
      const auto dropped = world.snapshot_domain(control.next_below(kDomains));
      ASSERT_TRUE(dropped.ok()) << dropped.error().to_text();
    }

    // Crash a random broker mid-traffic and differentially recover it.
    if (trial % 8 == 5) {
      crash_and_recover(world, alice, control.next_below(kDomains), trial);
      ++recoveries;
    }
  }

  // Final sweep: every domain must recover exactly, then a full release
  // leaves zero residual bandwidth anywhere.
  for (std::size_t d = 0; d < kDomains; ++d) {
    SCOPED_TRACE(::testing::Message() << "final recovery domain=" << d);
    crash_and_recover(world, alice, d, kTrials + d);
    ++recoveries;
  }
  for (const auto& reply : held) {
    const Status released = world.engine().release_end_to_end(reply);
    ASSERT_TRUE(released.ok()) << released.error().to_text();
  }
  EXPECT_EQ(world.total_reservations(), 0u);
  EXPECT_EQ(world.total_committed_at(seconds(kTrials + 100)), 0.0);

  std::printf(
      "bb_recovery_soak: granted=%zu/%zu tunnels=%zu recoveries=%zu\n",
      granted, kTrials, tunnels_made, recoveries);
  EXPECT_GT(granted, 0u);
  EXPECT_GT(recoveries, 0u);
}

}  // namespace
}  // namespace e2e::kit
