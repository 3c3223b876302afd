// Retry/backoff policy for signalling exchanges over a lossy fabric.
//
// The paper assumes every inter-BB message arrives; a real control plane
// does not. Every request/reply exchange runs through exchange() in
// sig/exchange.hpp: it waits the timeout below for the answer, retransmits
// on silence and gives up once the budget is spent; the engine then
// releases its tentative commitments.
//
// The timeout is a *pure function* of (policy, attempt, jitter_seed):
// capped geometric backoff plus deterministic jitter derived with a
// SplitMix64 mix of the seed. No shared RNG is consulted, so every run
// stays replayable from its seed.
#pragma once

#include <cstdint>

#include "common/clock.hpp"

namespace e2e::sig {

struct RetryPolicy {
  /// Total tries per exchange (first transmission included).
  std::size_t max_attempts = 4;
  /// Timeout armed for the first attempt.
  SimDuration base_timeout = milliseconds(100);
  /// Geometric growth factor per attempt.
  double multiplier = 2.0;
  /// Backoff ceiling (pre-jitter).
  SimDuration max_timeout = seconds(2);
  /// Jitter fraction: the armed timeout lands in [t, t * (1 + jitter)].
  double jitter = 0.1;
};

/// Timeout armed for `attempt` (1-based). Deterministic: the same
/// (policy, attempt, jitter_seed) always yields the same duration.
inline SimDuration retry_timeout(const RetryPolicy& policy,
                                 std::size_t attempt,
                                 std::uint64_t jitter_seed) {
  double timeout = static_cast<double>(policy.base_timeout);
  for (std::size_t i = 1; i < attempt; ++i) {
    timeout *= policy.multiplier;
    if (timeout >= static_cast<double>(policy.max_timeout)) break;
  }
  if (timeout > static_cast<double>(policy.max_timeout)) {
    timeout = static_cast<double>(policy.max_timeout);
  }
  if (policy.jitter > 0) {
    // SplitMix64 finalizer over (seed, attempt) -> uniform in [0, 1).
    std::uint64_t z = jitter_seed + 0x9e3779b97f4a7c15ull *
                                        static_cast<std::uint64_t>(attempt);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    timeout *= 1.0 + policy.jitter * u;
  }
  return static_cast<SimDuration>(timeout);
}

}  // namespace e2e::sig
