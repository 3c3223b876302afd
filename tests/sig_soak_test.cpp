// Seeded soak harness (ISSUE 2 tentpole): hundreds of randomized trials
// against a faulty fabric, each asserting the end-to-end safety invariant —
// a trial either finishes fully established (one handle per domain, cleanly
// releasable) or leaves ZERO residual committed bandwidth anywhere.
//
// Reproducibility: the base seed comes from E2E_SOAK_SEED (default
// 20010801) and is printed up front; each trial announces its mix, index
// and derived fault seed via SCOPED_TRACE, so any failure names the exact
// seed to rerun with. scripts/tier1.sh --soak runs this binary under
// ASan/UBSan across three fixed seeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("E2E_SOAK_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20010801ull;
}

struct Mix {
  const char* name;
  FaultProfile profile;
  bool random_partitions;   // partition a random link on some trials
  bool random_crashes;      // crash a random middle broker on some trials
};

Mix lossy_mix() {
  Mix m{"lossy", {}, false, false};
  m.profile.drop = 0.15;
  m.profile.duplicate = 0.10;
  m.profile.corrupt = 0.10;
  m.profile.jitter = 0.20;
  m.profile.max_jitter = milliseconds(40);
  return m;
}

Mix chaos_mix() {
  Mix m{"chaos", {}, true, false};
  m.profile.drop = 0.30;
  m.profile.duplicate = 0.20;
  m.profile.corrupt = 0.20;
  m.profile.jitter = 0.40;
  m.profile.max_jitter = milliseconds(80);
  return m;
}

Mix dark_mix() {
  Mix m{"dark", {}, false, true};
  m.profile.drop = 0.10;
  return m;
}

/// Run `trials` randomized reservations against one world and check the
/// invariant after every one. Reports the number of granted trials via
/// `granted_out` so the suite can sanity-check both outcomes occur
/// (out-param because ASSERT_* requires a void-returning function).
void run_mix(const Mix& mix, std::uint64_t base_seed, std::size_t mix_index,
             std::size_t trials, std::size_t* granted_out) {
  constexpr std::size_t kDomains = 4;
  const std::uint64_t fault_seed = base_seed ^ (0x9e3779b9ull * mix_index);

  ChainWorldConfig config;
  config.domains = kDomains;
  config.fault_profile = mix.profile;
  config.fault_seed = fault_seed;
  // Keep trials short: a modest budget with quick timeouts so a mix of a
  // few hundred trials stays in the sub-second range per seed.
  config.retry_policy.max_attempts = 3;
  config.retry_policy.base_timeout = milliseconds(50);
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  // Trial-control randomness is separate from both the world RNG (crypto)
  // and the fabric's fault RNG, so the three streams never perturb each
  // other across mixes.
  Rng control(base_seed ^ 0x736f616bull ^ mix_index);

  std::size_t& granted = *granted_out;
  granted = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "mix=" << mix.name << " trial=" << trial
                 << " base_seed=" << base_seed
                 << " fault_seed=" << fault_seed
                 << " (rerun: E2E_SOAK_SEED=" << base_seed << ")");

    // Per-trial topology faults on top of the probabilistic profile.
    std::size_t cut_a = 0, cut_b = 0, down = 0;
    const bool cut = mix.random_partitions && control.next_bool(0.3);
    if (cut) {
      cut_a = control.next_below(kDomains - 1);
      cut_b = cut_a + 1;
      world.partition_link(cut_a, cut_b);
    }
    const bool crash = mix.random_crashes && control.next_bool(0.3);
    if (crash) {
      down = 1 + control.next_below(kDomains - 2);  // middle broker only
      world.crash_broker(down);
    }

    // Unique per-trial request: rate and interval both vary so no two
    // trials ever produce the same request digest.
    const double rate = 1e6 + 1e5 * static_cast<double>(trial) +
                        1e4 * static_cast<double>(control.next_below(9));
    const TimeInterval interval{seconds(static_cast<std::int64_t>(trial)),
                                seconds(static_cast<std::int64_t>(trial) + 600)};
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, rate, interval), 0);
    ASSERT_TRUE(msg.ok()) << msg.error().to_text();
    const auto outcome =
        world.engine().reserve(*msg, seconds(static_cast<std::int64_t>(trial)));
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();

    if (outcome->reply.granted) {
      ++granted;
      // Fully established: one handle per domain, all releasable.
      ASSERT_EQ(outcome->reply.handles.size(), kDomains);
      const Status released = world.engine().release_end_to_end(outcome->reply);
      ASSERT_TRUE(released.ok()) << released.error().to_text();
    }

    if (cut) world.heal_link(cut_a, cut_b);
    if (crash) world.restore_broker(down);

    // THE invariant: granted-and-released or denied — either way, zero
    // residual committed bandwidth across every broker on the path.
    ASSERT_EQ(world.total_reservations(), 0u);
    ASSERT_EQ(world.total_committed_at(
                  seconds(static_cast<std::int64_t>(trial) + 100)),
              0.0);
  }
}

constexpr std::size_t kTrialsPerMix = 110;  // 3 mixes -> 330 trials total

TEST(SigSoak, LossyMixLeavesNoResidualState) {
  const std::uint64_t seed = soak_seed();
  std::printf("sig_soak: mix=lossy seed=%llu trials=%zu\n",
              static_cast<unsigned long long>(seed), kTrialsPerMix);
  std::size_t granted = 0;
  run_mix(lossy_mix(), seed, 0, kTrialsPerMix, &granted);
  std::printf("sig_soak: mix=lossy granted=%zu/%zu\n", granted, kTrialsPerMix);
  // A lossy-but-connected fabric with retries must still establish some
  // reservations — all-deny would mean the retry path is broken.
  EXPECT_GT(granted, 0u);
}

TEST(SigSoak, ChaosMixLeavesNoResidualState) {
  const std::uint64_t seed = soak_seed();
  std::printf("sig_soak: mix=chaos seed=%llu trials=%zu\n",
              static_cast<unsigned long long>(seed), kTrialsPerMix);
  std::size_t granted = 0;
  run_mix(chaos_mix(), seed, 1, kTrialsPerMix, &granted);
  std::printf("sig_soak: mix=chaos granted=%zu/%zu denied=%zu\n", granted,
              kTrialsPerMix, kTrialsPerMix - granted);
  // Heavy loss + partitions must produce at least some denials — if every
  // trial sails through, the fault model isn't engaged.
  EXPECT_LT(granted, kTrialsPerMix);
}

TEST(SigSoak, DarkBrokerMixLeavesNoResidualState) {
  const std::uint64_t seed = soak_seed();
  std::printf("sig_soak: mix=dark seed=%llu trials=%zu\n",
              static_cast<unsigned long long>(seed), kTrialsPerMix);
  std::size_t granted = 0;
  run_mix(dark_mix(), seed, 2, kTrialsPerMix, &granted);
  std::printf("sig_soak: mix=dark granted=%zu/%zu denied=%zu\n", granted,
              kTrialsPerMix, kTrialsPerMix - granted);
  EXPECT_GT(granted, 0u);
  EXPECT_LT(granted, kTrialsPerMix);
}

}  // namespace
}  // namespace e2e::sig
