// Wall-clock sliding-window instruments for live daemons.
//
// Everything else in src/obs measures virtual time (common/clock.hpp), so
// exports are deterministic. A running bbd daemon (docs/DAEMON.md) needs
// the opposite: rates and latency distributions over *real* time windows,
// so an operator scraping the admin plane sees "what happened in the last
// minute", not "what happened since process start". These instruments are
// that wall-clock layer:
//
//  - WindowRate:        a sliding-window sum/rate (requests per second);
//  - WindowedHistogram: a latency histogram whose contents decay as the
//                       window slides (slot-granular decay: observations
//                       leave in sub-window batches, not one by one);
//  - BurnRateTracker:   SLO error-budget burn rate over a real-time
//                       window, with edge-triggered alert accounting.
//
// Time is injected as plain milliseconds (WallClockFn) rather than read
// from std::chrono internally, so tests drive rollover and decay
// deterministically (tests/obs_window_test.cpp) and the daemon passes one
// shared steady-clock source. None of the three classes is synchronized:
// bbd records and scrapes them on its one request loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace e2e::obs {

/// Milliseconds on some monotonic wall clock. The epoch is arbitrary;
/// only differences matter.
using WallClockFn = std::function<std::uint64_t()>;

/// The production time source: std::chrono::steady_clock, in ms.
WallClockFn steady_wall_clock();

/// Sliding-window sum. The window is divided into `slots` sub-windows;
/// record() adds into the current slot and expired slots are dropped
/// lazily, so the reported total covers at most `window` of history with
/// one-slot granularity at the trailing edge.
class WindowRate {
 public:
  explicit WindowRate(std::chrono::milliseconds window,
                      std::size_t slots = 12);

  void record(std::uint64_t now_ms, double amount = 1.0);

  /// Sum of everything recorded within the window ending at `now_ms`.
  double total(std::uint64_t now_ms) const;
  /// total() scaled to events per second of window span.
  double per_second(std::uint64_t now_ms) const;

  std::chrono::milliseconds window() const { return window_; }

 private:
  std::chrono::milliseconds window_;
  std::uint64_t slot_ms_;
  // Ring keyed by absolute slot index (now_ms / slot_ms_); a ring entry is
  // live only while its absolute index is within the window.
  std::vector<std::uint64_t> slot_index_;
  std::vector<double> slot_sum_;
};

/// Sliding-window histogram: same bucket semantics as obs::Histogram
/// (cumulative upper bounds + one overflow bucket), but observations only
/// count toward snapshots for `window` of wall time. Decay is per slot:
/// when the window slides past a sub-window, that whole sub-window's
/// observations vanish together.
class WindowedHistogram {
 public:
  WindowedHistogram(std::chrono::milliseconds window, std::size_t slots,
                    std::vector<double> upper_bounds);
  explicit WindowedHistogram(std::chrono::milliseconds window,
                             std::size_t slots = 6);

  void observe(std::uint64_t now_ms, double value);

  /// Merged snapshot over the slots still inside the window at `now_ms`.
  Histogram::Snapshot snapshot(std::uint64_t now_ms) const;

  std::chrono::milliseconds window() const { return window_; }

 private:
  struct Slot {
    std::uint64_t index = 0;
    bool live = false;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, overflow last
    std::uint64_t count = 0;
    double sum = 0;
  };

  std::chrono::milliseconds window_;
  std::uint64_t slot_ms_;
  std::vector<double> bounds_;
  std::vector<Slot> slots_;
};

/// One burn-rate objective: how fast a live error budget is being spent.
struct BurnRateSpec {
  std::string objective;
  /// The SLO's error budget as a rate (e.g. 0.01 = 99% of requests good).
  double budget_error_rate = 0.01;
  /// Real-time evaluation window.
  std::chrono::milliseconds window{60000};
  /// Burn multiples at or above this value are alerting (e.g. 10 = the
  /// budget would be exhausted 10x faster than allowed).
  double alert_threshold = 10.0;

  /// Label value for the window dimension ("60s", "1500ms", ...).
  std::string window_label() const;
};

/// Tracks good/bad outcomes over the spec's window and evaluates the
/// burn rate: error_rate / budget_error_rate. An empty window is reported
/// as has_data == false and never alerts (no traffic is not an outage).
class BurnRateTracker {
 public:
  explicit BurnRateTracker(BurnRateSpec spec, std::size_t slots = 12);

  void record(std::uint64_t now_ms, bool bad);

  struct Evaluation {
    bool has_data = false;
    double total = 0;
    double bad = 0;
    double error_rate = 0;
    double burn_rate = 0;
    bool alerting = false;
  };
  Evaluation evaluate(std::uint64_t now_ms) const;

  /// evaluate() and publish the result into `registry`:
  /// e2e_slo_burn_rate{objective,window} is set to the burn multiple and
  /// e2e_slo_burn_alerts_total{objective} counts not-alerting -> alerting
  /// edges (a sustained breach is one alert, not one per scrape).
  Evaluation publish(MetricsRegistry& registry, std::uint64_t now_ms);

  const BurnRateSpec& spec() const { return spec_; }

 private:
  BurnRateSpec spec_;
  WindowRate total_;
  WindowRate bad_;
  bool was_alerting_ = false;
};

}  // namespace e2e::obs
