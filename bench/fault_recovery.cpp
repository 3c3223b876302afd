// Robustness claim — hop-by-hop signalling over a lossy inter-BB fabric.
//
// The paper's protocol (§6.1–§6.4) assumes reliable delivery; this bench
// measures what the retry/backoff layer costs when that assumption breaks.
// For a 4-domain path and increasing per-link drop probability, we run a
// fixed batch of reservations (deterministic fault seed) and report the
// grant rate, the retransmission traffic and the mean latency of granted
// requests — plus the invariant the soak suite hammers: no trial, granted
// or abandoned, may leave residual committed bandwidth anywhere.
#include <cstdlib>

#include "bench_util.hpp"
#include "kit/chain_world.hpp"
#include "obs/instruments.hpp"

using namespace e2e;
using namespace e2e::kit;
namespace bu = e2e::benchutil;

namespace {

struct LossPoint {
  std::size_t granted = 0;
  std::uint64_t retransmits = 0;
  double mean_granted_latency_ms = 0;
  bool residual_free = true;
};

LossPoint run_batch(double drop, std::size_t trials) {
  ChainWorldConfig config;
  config.domains = 4;
  config.fault_profile.drop = drop;
  config.fault_seed = 42;
  config.retry_policy.max_attempts = 5;
  config.retry_policy.base_timeout = milliseconds(50);
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  auto& retransmits = obs::MetricsRegistry::global().counter(
      obs::kSigRetransmitsTotal, {{"engine", "hopbyhop"}});
  const std::uint64_t retransmits_before = retransmits.value();

  LossPoint point;
  double granted_latency_ms = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const auto msg = world.engine().build_user_request(
        alice.credentials(),
        world.spec(alice, 1e6 + 1e5 * static_cast<double>(i)), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    if (!outcome.ok()) std::abort();
    if (outcome->reply.granted) {
      point.granted++;
      granted_latency_ms += to_milliseconds(outcome->latency);
      if (!world.engine().release_end_to_end(outcome->reply).ok()) {
        std::abort();
      }
    }
    point.residual_free &= world.total_reservations() == 0;
  }
  point.retransmits = retransmits.value() - retransmits_before;
  if (point.granted > 0) {
    point.mean_granted_latency_ms =
        granted_latency_ms / static_cast<double>(point.granted);
  }
  return point;
}

}  // namespace

int main() {
  constexpr std::size_t kTrials = 50;
  bu::heading("Robustness", "signalling under inter-BB message loss");
  bu::note("4-domain path, 20 ms links, 5-attempt retry budget with 50 ms");
  bu::note("base timeout (x2 backoff); 50 reservations per drop rate,");
  bu::note("deterministic fault seed. Latency averages granted requests.");

  bu::row("%-10s | %-10s %-12s %-16s", "drop", "granted", "retransmits",
          "mean lat(ms)");
  bu::rule();

  bool ok = true;
  LossPoint clean, heavy;
  for (double drop : {0.0, 0.05, 0.15, 0.30}) {
    const LossPoint point = run_batch(drop, kTrials);
    bu::row("%-10.2f | %-10zu %-12llu %-16.1f", drop, point.granted,
            static_cast<unsigned long long>(point.retransmits),
            point.mean_granted_latency_ms);
    ok &= bu::check(point.residual_free,
                    "no residual committed bandwidth at drop=" +
                        std::to_string(drop));
    if (drop == 0.0) clean = point;
    if (drop == 0.30) heavy = point;
  }
  bu::rule();

  ok &= bu::check(clean.granted == kTrials && clean.retransmits == 0,
                  "a clean fabric grants everything without a single "
                  "retransmission");
  ok &= bu::check(heavy.granted > 0,
                  "retries still land reservations at 30% per-link loss");
  ok &= bu::check(heavy.retransmits > 0 &&
                      heavy.mean_granted_latency_ms >
                          clean.mean_granted_latency_ms,
                  "recovery is paid for in retransmissions and latency, "
                  "not in leaked bandwidth");

  bu::dump_metrics_snapshot("fault_recovery");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
