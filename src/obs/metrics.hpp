// Zero-dependency metrics registry.
//
// The observability substrate every layer reports into: named counters,
// gauges and fixed-bucket latency histograms, grouped into families by
// metric name with an optional label set per series (Prometheus-style
// dimensionality, e.g. e2e_sig_hops_processed_total{domain="DomainB"}).
//
// Design constraints, in order:
//  - thread-safe: the registry is process-global, and in-process client
//    threads (tests, benches) increment it beside a daemon's loop;
//  - stable instrument references: counter()/gauge()/histogram() return a
//    reference that stays valid for the registry's lifetime, so hot paths
//    resolve an instrument once and increment a cached pointer afterwards.
//    reset_values() consequently zeroes instruments in place instead of
//    destroying them;
//  - deterministic export: text and JSON exports are sorted by family name
//    and label set, so snapshots diff cleanly across runs.
//
// The canonical list of every metric the library emits lives in
// obs/instruments.hpp and is documented in docs/OBSERVABILITY.md (the
// telemetry contract); tests/obs_contract_test.cpp diffs the two.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e::obs {

/// A series' label set: sorted key=value pairs. Keep small — one or two
/// labels per metric; cardinality is domains × small enums.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

constexpr const char* to_string(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

/// Monotonic event count.
class Counter {
 public:
  void increment(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time measurement (active reservations, committed rate, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// (value <= bound falls in that bucket); one implicit overflow bucket
/// catches everything above the last bound. Latency observations are in
/// microseconds of virtual time (SimDuration), so distributions are
/// deterministic across runs.
class Histogram {
 public:
  Histogram() : Histogram(default_latency_buckets_us()) {}
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  struct Snapshot {
    std::vector<double> bounds;          // upper bounds, ascending
    std::vector<std::uint64_t> counts;   // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;             // total observations
    double sum = 0;                      // sum of observed values
  };
  Snapshot snapshot() const;

  std::uint64_t count() const;
  double sum() const;
  void reset();

  /// Default bounds for virtual-time latency in microseconds: 100 us up to
  /// 10 s in a 1-2-5 ladder.
  static const std::vector<double>& default_latency_buckets_us();

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Declared shape of one metric family (from the instrument catalog).
struct MetricMetadata {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string unit;                     // "1", "us", "bytes", "bits/s"
  std::vector<std::string> label_keys;  // allowed label keys, sorted
  std::string help;
  std::vector<double> buckets;          // histograms only; empty = default
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Declare a family's metadata (idempotent). Families may also spring
  /// into existence undeclared on first use; declaring attaches unit/help
  /// and, for histograms, the bucket layout.
  void declare(MetricMetadata metadata);

  /// Find-or-create the series `name`+`labels`. The returned reference is
  /// valid for the registry's lifetime (instruments are never destroyed,
  /// only zeroed by reset_values()).
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Names of every family with at least one live series, sorted.
  std::vector<std::string> exported_names() const;
  /// Number of live series across all families.
  std::size_t series_count() const;

  /// Zero every instrument in place. References handed out earlier stay
  /// valid; declared metadata is kept.
  void reset_values();

  /// Prometheus-style text exposition (sorted, deterministic).
  std::string to_text() const;
  /// JSON snapshot: {"metrics":[{name,type,unit,series:[{labels,...}]}]}.
  std::string to_json() const;

  /// The process-wide registry all library instrumentation reports into.
  /// Pre-declared with the full instrument catalog (obs/instruments.hpp).
  static MetricsRegistry& global();

 private:
  struct Family {
    MetricMetadata metadata;
    bool declared = false;
    // Keyed by label set; unique_ptr keeps references stable.
    std::map<Labels, std::unique_ptr<Counter>> counters;
    std::map<Labels, std::unique_ptr<Gauge>> gauges;
    std::map<Labels, std::unique_ptr<Histogram>> histograms;
  };

  Family& family_locked(const std::string& name, MetricType type);
  /// Apply the cardinality cap: returns `labels` (sorted) when the series
  /// exists or the family has room, else the overflow label set (and
  /// accounts the drop).
  template <typename Map>
  Labels capped_labels_locked(const std::string& name, const Map& series,
                              Labels labels);

  /// Cardinality cap: at most this many series per family and instrument
  /// kind. Once a family is full, lookups for *new* label sets are routed
  /// to a single overflow series labelled {overflow="other"} and counted
  /// in e2e_obs_dropped_labels_total{metric=<family>}; existing series are
  /// unaffected. Guards against unbounded label growth (e.g. a per-user
  /// label leaking into a hot path).
  static constexpr std::size_t kSeriesLimit = 256;

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace e2e::obs
