#include "obs/window.hpp"

#include <algorithm>
#include <utility>

#include "obs/instruments.hpp"

namespace e2e::obs {

WallClockFn steady_wall_clock() {
  return [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
}

namespace {

std::uint64_t slot_width_ms(std::chrono::milliseconds window,
                            std::size_t slots) {
  const std::uint64_t w =
      window.count() > 0 ? static_cast<std::uint64_t>(window.count()) : 1;
  const std::uint64_t n = slots == 0 ? 1 : static_cast<std::uint64_t>(slots);
  return std::max<std::uint64_t>(1, w / n);
}

}  // namespace

WindowRate::WindowRate(std::chrono::milliseconds window, std::size_t slots)
    : window_(window),
      slot_ms_(slot_width_ms(window, slots)),
      slot_index_(std::max<std::size_t>(1, slots), 0),
      slot_sum_(std::max<std::size_t>(1, slots), 0) {}

void WindowRate::record(std::uint64_t now_ms, double amount) {
  const std::uint64_t current = now_ms / slot_ms_;
  const std::size_t pos = current % slot_index_.size();
  if (slot_index_[pos] != current) {
    slot_index_[pos] = current;
    slot_sum_[pos] = 0;
  }
  slot_sum_[pos] += amount;
}

double WindowRate::total(std::uint64_t now_ms) const {
  const std::uint64_t current = now_ms / slot_ms_;
  const std::uint64_t span = static_cast<std::uint64_t>(slot_index_.size());
  // Live absolute indices: (current - span, current]. Index 0 is also the
  // ring's initial fill, so a slot claiming index 0 only counts while slot
  // 0 itself is within the window.
  const std::uint64_t oldest = current >= span ? current - span + 1 : 0;
  double sum = 0;
  for (std::size_t i = 0; i < slot_index_.size(); ++i) {
    if (slot_index_[i] >= oldest && slot_index_[i] <= current) {
      sum += slot_sum_[i];
    }
  }
  return sum;
}

double WindowRate::per_second(std::uint64_t now_ms) const {
  const double seconds =
      static_cast<double>(slot_ms_ * slot_index_.size()) / 1000.0;
  return seconds > 0 ? total(now_ms) / seconds : 0;
}

WindowedHistogram::WindowedHistogram(std::chrono::milliseconds window,
                                     std::size_t slots,
                                     std::vector<double> upper_bounds)
    : window_(window),
      slot_ms_(slot_width_ms(window, slots)),
      bounds_(std::move(upper_bounds)),
      slots_(std::max<std::size_t>(1, slots)) {
  for (Slot& slot : slots_) {
    slot.counts.assign(bounds_.size() + 1, 0);
  }
}

WindowedHistogram::WindowedHistogram(std::chrono::milliseconds window,
                                     std::size_t slots)
    : WindowedHistogram(window, slots,
                        Histogram::default_latency_buckets_us()) {}

void WindowedHistogram::observe(std::uint64_t now_ms, double value) {
  const std::uint64_t current = now_ms / slot_ms_;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Slot& slot = slots_[current % slots_.size()];
  if (!slot.live || slot.index != current) {
    slot.index = current;
    slot.live = true;
    std::fill(slot.counts.begin(), slot.counts.end(), 0);
    slot.count = 0;
    slot.sum = 0;
  }
  slot.counts[bucket] += 1;
  slot.count += 1;
  slot.sum += value;
}

Histogram::Snapshot WindowedHistogram::snapshot(std::uint64_t now_ms) const {
  const std::uint64_t current = now_ms / slot_ms_;
  const std::uint64_t span = static_cast<std::uint64_t>(slots_.size());
  const std::uint64_t oldest = current >= span ? current - span + 1 : 0;
  Histogram::Snapshot merged;
  merged.bounds = bounds_;
  merged.counts.assign(bounds_.size() + 1, 0);
  for (const Slot& slot : slots_) {
    if (!slot.live || slot.index < oldest || slot.index > current) continue;
    for (std::size_t i = 0; i < slot.counts.size(); ++i) {
      merged.counts[i] += slot.counts[i];
    }
    merged.count += slot.count;
    merged.sum += slot.sum;
  }
  return merged;
}

std::string BurnRateSpec::window_label() const {
  const auto ms = window.count();
  if (ms > 0 && ms % 1000 == 0) return std::to_string(ms / 1000) + "s";
  return std::to_string(ms) + "ms";
}

BurnRateTracker::BurnRateTracker(BurnRateSpec spec, std::size_t slots)
    : spec_(std::move(spec)),
      total_(spec_.window, slots),
      bad_(spec_.window, slots) {}

void BurnRateTracker::record(std::uint64_t now_ms, bool bad) {
  total_.record(now_ms, 1.0);
  if (bad) bad_.record(now_ms, 1.0);
}

BurnRateTracker::Evaluation BurnRateTracker::evaluate(
    std::uint64_t now_ms) const {
  Evaluation eval;
  eval.total = total_.total(now_ms);
  eval.bad = bad_.total(now_ms);
  if (eval.total <= 0) return eval;  // empty window: no data, no alert
  eval.has_data = true;
  eval.error_rate = eval.bad / eval.total;
  eval.burn_rate = spec_.budget_error_rate > 0
                       ? eval.error_rate / spec_.budget_error_rate
                       : (eval.bad > 0 ? spec_.alert_threshold : 0);
  eval.alerting = eval.burn_rate >= spec_.alert_threshold;
  return eval;
}

BurnRateTracker::Evaluation BurnRateTracker::publish(
    MetricsRegistry& registry, std::uint64_t now_ms) {
  const Evaluation eval = evaluate(now_ms);
  registry
      .gauge(kSloBurnRate, {{"objective", spec_.objective},
                            {"window", spec_.window_label()}})
      .set(eval.burn_rate);
  if (eval.alerting && !was_alerting_) {
    registry.counter(kSloBurnAlertsTotal, {{"objective", spec_.objective}})
        .increment();
  }
  was_alerting_ = eval.alerting;
  return eval;
}

}  // namespace e2e::obs
