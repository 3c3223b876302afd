// Unit tests for the metrics registry: counter/gauge/histogram semantics,
// concurrent increments, label dimensionality, export round-trip.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/instruments.hpp"

namespace e2e::obs {
namespace {

TEST(MetricsRegistry, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_events_total");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistry, LabelsSeparateSeries) {
  MetricsRegistry registry;
  registry.counter("hops_total", {{"domain", "DomainA"}}).increment(3);
  registry.counter("hops_total", {{"domain", "DomainB"}}).increment(5);
  EXPECT_EQ(registry.counter("hops_total", {{"domain", "DomainA"}}).value(),
            3u);
  EXPECT_EQ(registry.counter("hops_total", {{"domain", "DomainB"}}).value(),
            5u);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReference) {
  MetricsRegistry registry;
  Counter& first = registry.counter("stable_total");
  first.increment();
  // Creating many other series must not move the original instrument.
  for (int i = 0; i < 100; ++i) {
    registry.counter("other_total", {{"i", std::to_string(i)}});
  }
  Counter& again = registry.counter("stable_total");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.value(), 1u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("active");
  g.set(10);
  g.add(5);
  g.add(-3);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(MetricsRegistry, HistogramBucketsCumulativeUpperBounds) {
  Histogram h({10, 100, 1000});
  h.observe(5);      // <= 10
  h.observe(10);     // <= 10 (le semantics: on the bound)
  h.observe(50);     // <= 100
  h.observe(999);    // <= 1000
  h.observe(5000);   // overflow
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 5 + 10 + 50 + 999 + 5000);
}

TEST(MetricsRegistry, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry registry;
  Counter& c = registry.counter("concurrent_total");
  Histogram& h = registry.histogram("concurrent_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread);
}

TEST(MetricsRegistry, ResetValuesZeroesInPlace) {
  MetricsRegistry registry;
  Counter& c = registry.counter("reset_total", {{"k", "v"}});
  Histogram& h = registry.histogram("reset_us");
  c.increment(7);
  h.observe(123);
  registry.reset_values();
  // The same references stay valid and read zero.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  // The series still exists (no destruction on reset).
  EXPECT_EQ(&c, &registry.counter("reset_total", {{"k", "v"}}));
}

TEST(MetricsRegistry, JsonExportRoundTripsValues) {
  MetricsRegistry registry;
  registry.counter("json_total", {{"domain", "DomainA"}}).increment(3);
  registry.gauge("json_active").set(2.5);
  registry.histogram("json_us", {{"engine", "hopbyhop"}}).observe(150);
  const std::string json = registry.to_json();
  // Families, labels and values all appear in the export.
  EXPECT_NE(json.find("\"json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\":\"DomainA\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"json_active\""), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
  EXPECT_NE(json.find("\"json_us\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"hopbyhop\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":150"), std::string::npos);
}

TEST(MetricsRegistry, TextExportIsDeterministic) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Insert in different orders; the export must sort identically.
  a.counter("z_total").increment();
  a.counter("a_total", {{"k", "2"}}).increment();
  a.counter("a_total", {{"k", "1"}}).increment();
  b.counter("a_total", {{"k", "1"}}).increment();
  b.counter("a_total", {{"k", "2"}}).increment();
  b.counter("z_total").increment();
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(MetricsRegistry, GlobalRegistryPreDeclaresTheCatalog) {
  MetricsRegistry& global = MetricsRegistry::global();
  // Using a catalog name must not invent a new family, and the instrument
  // type must match the declared one (histogram here).
  Histogram& h = global.histogram(kSigE2eLatencyUs, {{"engine", "test"}});
  (void)h;
  bool found = false;
  for (const auto& info : catalog()) {
    if (std::string(info.name) == kSigE2eLatencyUs) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, ExportedNamesAreSortedAndUnique) {
  MetricsRegistry registry;
  registry.counter("b_total").increment();
  registry.counter("a_total").increment();
  registry.counter("a_total").increment();
  const auto names = registry.exported_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a_total");
  EXPECT_EQ(names[1], "b_total");
}

}  // namespace
}  // namespace e2e::obs
