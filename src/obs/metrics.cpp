#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/instruments.hpp"

namespace e2e::obs {

namespace {

/// Render a double without trailing noise: integers as integers, the rest
/// with up to six significant decimals (snapshots must diff cleanly).
std::string format_number(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(labels[i].first) + "\":\"" +
           json_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

std::string labels_text(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += "}";
  return out;
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  std::lock_guard lock(mutex_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  count_++;
  sum_ += value;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  return Snapshot{bounds_, counts_, count_, sum_};
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard lock(mutex_);
  return sum_;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  sum_ = 0;
}

const std::vector<double>& Histogram::default_latency_buckets_us() {
  static const std::vector<double> kBuckets = {
      100,     200,     500,     1000,    2000,    5000,    10000,
      20000,   50000,   100000,  200000,  500000,  1000000, 2000000,
      5000000, 10000000};
  return kBuckets;
}

void MetricsRegistry::declare(MetricMetadata metadata) {
  std::lock_guard lock(mutex_);
  Family& family = families_[metadata.name];
  if (family.declared) return;
  std::sort(metadata.label_keys.begin(), metadata.label_keys.end());
  family.metadata = std::move(metadata);
  family.declared = true;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, MetricType type) {
  Family& family = families_[name];
  if (!family.declared) {
    family.metadata.name = name;
    family.metadata.type = type;
  }
  return family;
}

template <typename Map>
Labels MetricsRegistry::capped_labels_locked(const std::string& name,
                                             const Map& series,
                                             Labels labels) {
  labels = sorted(std::move(labels));
  if (series.size() < kSeriesLimit || series.count(labels) != 0 ||
      name == kObsDroppedLabelsTotal) {
    return labels;
  }
  // Family full and this is a new label set: account the drop and route
  // the caller to the shared overflow series. The dropped-labels counter
  // is created directly (same lock) — counter() here would deadlock.
  Family& dropped =
      family_locked(kObsDroppedLabelsTotal, MetricType::kCounter);
  auto& slot = dropped.counters[Labels{{"metric", name}}];
  if (!slot) slot = std::make_unique<Counter>();
  slot->increment();
  return Labels{{"overflow", "other"}};
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard lock(mutex_);
  Family& family = family_locked(name, MetricType::kCounter);
  auto& slot =
      family.counters[capped_labels_locked(name, family.counters, labels)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mutex_);
  Family& family = family_locked(name, MetricType::kGauge);
  auto& slot =
      family.gauges[capped_labels_locked(name, family.gauges, labels)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  std::lock_guard lock(mutex_);
  Family& family = family_locked(name, MetricType::kHistogram);
  auto& slot =
      family.histograms[capped_labels_locked(name, family.histograms,
                                             labels)];
  if (!slot) {
    slot = family.metadata.buckets.empty()
               ? std::make_unique<Histogram>()
               : std::make_unique<Histogram>(family.metadata.buckets);
  }
  return *slot;
}

std::vector<std::string> MetricsRegistry::exported_names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, family] : families_) {
    if (!family.counters.empty() || !family.gauges.empty() ||
        !family.histograms.empty()) {
      names.push_back(name);
    }
  }
  return names;  // std::map iteration is already sorted
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) {
    n += family.counters.size() + family.gauges.size() +
         family.histograms.size();
  }
  return n;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [labels, c] : family.counters) c->reset();
    for (auto& [labels, g] : family.gauges) g->reset();
    for (auto& [labels, h] : family.histograms) h->reset();
  }
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    const bool live = !family.counters.empty() || !family.gauges.empty() ||
                      !family.histograms.empty();
    if (!live) continue;
    if (!family.metadata.help.empty()) {
      out << "# HELP " << name << " " << family.metadata.help << "\n";
    }
    out << "# TYPE " << name << " " << to_string(family.metadata.type)
        << "\n";
    for (const auto& [labels, c] : family.counters) {
      out << name << labels_text(labels) << " " << c->value() << "\n";
    }
    for (const auto& [labels, g] : family.gauges) {
      out << name << labels_text(labels) << " " << format_number(g->value())
          << "\n";
    }
    for (const auto& [labels, h] : family.histograms) {
      const Histogram::Snapshot snap = h->snapshot();
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        cumulative += snap.counts[i];
        Labels with_le = labels;
        with_le.emplace_back("le", format_number(snap.bounds[i]));
        out << name << "_bucket" << labels_text(with_le) << " " << cumulative
            << "\n";
      }
      Labels with_le = labels;
      with_le.emplace_back("le", "+Inf");
      out << name << "_bucket" << labels_text(with_le) << " " << snap.count
          << "\n";
      out << name << "_sum" << labels_text(labels) << " "
          << format_number(snap.sum) << "\n";
      out << name << "_count" << labels_text(labels) << " " << snap.count
          << "\n";
    }
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    const bool live = !family.counters.empty() || !family.gauges.empty() ||
                      !family.histograms.empty();
    if (!live) continue;
    if (!first_family) out << ",";
    first_family = false;
    out << "{\"name\":\"" << json_escape(name) << "\",\"type\":\""
        << to_string(family.metadata.type) << "\",\"unit\":\""
        << json_escape(family.metadata.unit) << "\",\"series\":[";
    bool first_series = true;
    for (const auto& [labels, c] : family.counters) {
      if (!first_series) out << ",";
      first_series = false;
      out << "{\"labels\":" << labels_json(labels) << ",\"value\":"
          << c->value() << "}";
    }
    for (const auto& [labels, g] : family.gauges) {
      if (!first_series) out << ",";
      first_series = false;
      out << "{\"labels\":" << labels_json(labels) << ",\"value\":"
          << format_number(g->value()) << "}";
    }
    for (const auto& [labels, h] : family.histograms) {
      if (!first_series) out << ",";
      first_series = false;
      const Histogram::Snapshot snap = h->snapshot();
      out << "{\"labels\":" << labels_json(labels) << ",\"buckets\":[";
      for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        if (i > 0) out << ",";
        out << "{\"le\":" << format_number(snap.bounds[i]) << ",\"count\":"
            << snap.counts[i] << "}";
      }
      if (!snap.bounds.empty()) out << ",";
      out << "{\"le\":\"+Inf\",\"count\":" << snap.counts.back() << "}]";
      out << ",\"count\":" << snap.count << ",\"sum\":"
          << format_number(snap.sum) << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    register_all(*r);
    return r;
  }();
  return *registry;
}

}  // namespace e2e::obs
