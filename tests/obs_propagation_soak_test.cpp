// Propagation soak (ISSUE 4 tentpole): seeded runs across all three
// signalling styles — clean fabric and fault-injected with retries and
// duplicates — asserting the distributed-tracing and audit contracts:
//
//   - every RAR yields exactly one trace id, reused across retransmitted
//     attempts and duplicate deliveries;
//   - the destination-side SpanCollector, fed only the per-domain recorder
//     exports (linked by the TraceContext carried in the transport
//     envelope), reconstructs a tree that matches the source-side
//     reference recorder node for node: names, parents, virtual-time
//     bounds, failure tags and attributes;
//   - every audit record joins a span of the collected tree, and the hash
//     chain verifies across broker crashes, evictions and re-exports;
//   - any tampering with an exported audit line is detected.
//
// Reproducibility: the fault seed derives from E2E_SOAK_SEED (default
// 20010801), same convention as sig_soak_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "testing_world.hpp"

namespace e2e::obs {
namespace {

using testing::attach_reference;
using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("E2E_SOAK_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20010801ull;
}

void reset_globals() {
  MetricsRegistry::global().reset_values();
  AuditLog::global().clear();
}

/// The collected tree must match the source-side reference tree node for
/// node. Collected spans may carry *extra* attributes (`remote.parent`,
/// `hop.index` — the stitching links themselves), but every reference
/// attribute must survive the round trip through the per-domain exports.
void expect_tree_matches_reference(const SpanCollector& collector,
                                   const TraceRecorder& reference,
                                   const std::string& trace_id) {
  const auto collected = collector.flatten(trace_id);
  const auto expected =
      SpanCollector::flatten_recorder(reference, trace_id);
  ASSERT_FALSE(expected.empty()) << "no reference spans for " << trace_id;
  ASSERT_EQ(collected.size(), expected.size()) << trace_id;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << trace_id << " node " << i << " ("
                                      << expected[i].span.name << ")");
    EXPECT_EQ(collected[i].span.name, expected[i].span.name);
    EXPECT_EQ(collected[i].depth, expected[i].depth);
    EXPECT_EQ(collected[i].span.start, expected[i].span.start);
    EXPECT_EQ(collected[i].span.end, expected[i].span.end);
    EXPECT_EQ(collected[i].span.failed, expected[i].span.failed);
    for (const auto& [key, value] : expected[i].span.attributes) {
      const std::string* got = collected[i].span.attribute(key);
      ASSERT_NE(got, nullptr) << "missing attribute " << key;
      EXPECT_EQ(*got, value) << "attribute " << key;
    }
  }
}

/// Every audit record must name a span that exists in the collected tree
/// of its trace. Kinds emitted by brokers carry the exporting domain;
/// peer_auth records carry the initiator DN, so those match on span id
/// within the trace only.
void expect_records_join_collected_spans(const SpanCollector& collector) {
  const auto records = AuditLog::global().records();
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    SCOPED_TRACE(::testing::Message() << "audit record " << record.index
                                      << " kind=" << record.kind);
    ASSERT_FALSE(record.trace_id.empty());
    ASSERT_NE(record.span_id, 0u);
    const auto tree = collector.flatten(record.trace_id);
    const bool match_domain = record.kind != audit_kind::kPeerAuth;
    const bool joined = std::any_of(
        tree.begin(), tree.end(), [&](const CollectedSpan& node) {
          if (node.span.id != record.span_id) return false;
          return !match_domain || node.domain == record.domain;
        });
    EXPECT_TRUE(joined) << "record joins no collected span of "
                        << record.trace_id;
  }
}

TEST(ObsPropagation, CleanFabricTreesMatchReferenceAcrossEngines) {
  reset_globals();
  ChainWorld world;
  TraceRecorder reference;
  attach_reference(world, reference);
  const WorldUser alice =
      world.make_user("Alice", 0, /*with_capability=*/true,
                      /*register_everywhere=*/true);

  std::vector<std::string> traces;

  // Hop-by-hop: granted and policy-path exercised.
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6, {0, minutes(10)}), 0);
  ASSERT_TRUE(msg.ok());
  const auto hop = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(hop.ok());
  EXPECT_TRUE(hop->reply.granted);
  traces.push_back(hop->trace_id);

  // Source-based (sequential — the parallel mode interleaves reference
  // recorder writes and is excluded from exact-tree comparisons).
  const auto src = world.source_engine().reserve(
      world.names(), world.spec(alice, 12e6, {0, minutes(10)}),
      alice.identity_cert, alice.identity_keys.priv,
      sig::SourceDomainEngine::Mode::kSequential, seconds(2));
  ASSERT_TRUE(src.ok());
  EXPECT_TRUE(src->reply.granted);
  traces.push_back(src->trace_id);

  // Tunnel: aggregate establishment, then one per-flow sub-reservation.
  bb::ResSpec agg = world.spec(alice, 50e6, {0, seconds(3600)});
  agg.is_tunnel = true;
  const auto agg_msg =
      world.engine().build_user_request(alice.credentials(), agg, 0);
  ASSERT_TRUE(agg_msg.ok());
  const auto est = world.engine().reserve(*agg_msg, seconds(3));
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(est->reply.granted);
  traces.push_back(est->trace_id);
  const auto flow = world.engine().reserve_in_tunnel(
      est->reply.tunnel_id, alice.dn.to_string(), 5e6, {0, seconds(60)},
      seconds(4));
  ASSERT_TRUE(flow.ok());
  EXPECT_TRUE(flow->reply.granted);
  traces.push_back(flow->trace_id);

  // One distinct trace id per RAR.
  std::set<std::string> unique(traces.begin(), traces.end());
  EXPECT_EQ(unique.size(), traces.size());

  SpanCollector collector;
  world.collect(collector);
  for (const auto& trace_id : traces) {
    expect_tree_matches_reference(collector, reference, trace_id);
  }

  // The collector saw exactly the traces the reference recorder saw.
  auto collected_ids = collector.trace_ids();
  auto reference_ids = reference.trace_ids();
  std::sort(collected_ids.begin(), collected_ids.end());
  std::sort(reference_ids.begin(), reference_ids.end());
  EXPECT_EQ(collected_ids, reference_ids);

  expect_records_join_collected_spans(collector);
  const auto verdict =
      AuditLog::verify_chain(AuditLog::global().export_jsonl());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_text();
  EXPECT_EQ(*verdict, AuditLog::global().size());
}

TEST(ObsPropagation, FaultySoakReusesTraceIdsAndMatchesReference) {
  reset_globals();
  ChainWorldConfig config;
  config.domains = 4;
  config.fault_profile.drop = 0.20;
  config.fault_profile.duplicate = 0.15;
  config.fault_profile.corrupt = 0.05;
  config.fault_seed = soak_seed();
  config.retry_policy.max_attempts = 4;
  config.retry_policy.base_timeout = milliseconds(50);
  ChainWorld world(config);
  TraceRecorder reference;
  attach_reference(world, reference);
  const WorldUser alice =
      world.make_user("Alice", 0, /*with_capability=*/true,
                      /*register_everywhere=*/true);

  constexpr std::size_t kTrials = 40;
  std::vector<std::string> traces;
  std::size_t granted = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "trial=" << trial << " fault_seed=" << config.fault_seed
                 << " (rerun: E2E_SOAK_SEED=" << config.fault_seed << ")");
    const double rate = 1e6 + 1e5 * static_cast<double>(trial);
    const TimeInterval interval{
        seconds(static_cast<std::int64_t>(trial)),
        seconds(static_cast<std::int64_t>(trial) + 600)};
    if (trial % 3 == 2) {
      const auto outcome = world.source_engine().reserve(
          world.names(), world.spec(alice, rate, interval),
          alice.identity_cert, alice.identity_keys.priv,
          sig::SourceDomainEngine::Mode::kSequential,
          seconds(static_cast<std::int64_t>(trial)));
      ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
      if (outcome->reply.granted) ++granted;
      traces.push_back(outcome->trace_id);
    } else {
      const auto msg = world.engine().build_user_request(
          alice.credentials(), world.spec(alice, rate, interval), 0);
      ASSERT_TRUE(msg.ok()) << msg.error().to_text();
      const auto outcome = world.engine().reserve(
          *msg, seconds(static_cast<std::int64_t>(trial)));
      ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
      if (outcome->reply.granted) ++granted;
      traces.push_back(outcome->trace_id);
    }
  }
  // The fault mix must exercise both outcomes, or the soak proves nothing.
  EXPECT_GT(granted, 0u);
  EXPECT_LT(granted, kTrials);

  // Retried/duplicated RARs still produce exactly one trace id each.
  std::set<std::string> unique(traces.begin(), traces.end());
  ASSERT_EQ(unique.size(), kTrials);

  SpanCollector collector;
  world.collect(collector);
  bool saw_retry = false;
  for (const auto& trace_id : traces) {
    SCOPED_TRACE(trace_id);
    expect_tree_matches_reference(collector, reference, trace_id);
    for (const auto& node : collector.flatten(trace_id)) {
      if (node.span.attribute("retry.attempts") != nullptr) saw_retry = true;
    }
  }
  // At this loss rate the retry path must have fired at least once — and
  // the matching trees above prove the retransmissions stayed inside the
  // original trace rather than opening a new one.
  EXPECT_TRUE(saw_retry);

  expect_records_join_collected_spans(collector);
  const auto verdict =
      AuditLog::verify_chain(AuditLog::global().export_jsonl());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_text();
}

TEST(ObsPropagation, AuditChainSurvivesBrokerCrashes) {
  reset_globals();
  ChainWorldConfig config;
  config.domains = 4;
  config.retry_policy.max_attempts = 2;
  config.retry_policy.base_timeout = milliseconds(50);
  ChainWorld world(config);
  TraceRecorder reference;
  attach_reference(world, reference);
  const WorldUser alice = world.make_user("Alice", 0);

  // Grant, crash a middle broker (the RAR dies at the dark hop), heal,
  // grant again. The chain must verify across the whole sequence.
  const auto before = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 5e6, {0, seconds(600)}), 0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(world.engine().reserve(*before, seconds(1))->reply.granted);

  world.crash_broker(2);
  const auto during = world.engine().build_user_request(
      alice.credentials(),
      world.spec(alice, 6e6, {seconds(1), seconds(601)}), 0);
  ASSERT_TRUE(during.ok());
  const auto denied = world.engine().reserve(*during, seconds(2));
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->reply.granted);
  world.restore_broker(2);

  const auto after = world.engine().build_user_request(
      alice.credentials(),
      world.spec(alice, 7e6, {seconds(2), seconds(602)}), 0);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(world.engine().reserve(*after, seconds(30))->reply.granted);

  const auto verdict =
      AuditLog::verify_chain(AuditLog::global().export_jsonl());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_text();
  EXPECT_EQ(*verdict, AuditLog::global().size());

  // The denied RAR's collected tree records the failure at the hop that
  // went dark, with the source hop's forward stage tagged failed.
  SpanCollector collector;
  world.collect(collector);
  const auto tree = collector.flatten(denied->trace_id);
  ASSERT_FALSE(tree.empty());
  EXPECT_TRUE(tree.front().span.failed);
  expect_tree_matches_reference(collector, reference,
                                denied->trace_id);
}

TEST(ObsPropagation, TamperingWithExportedChainIsDetected) {
  reset_globals();
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 5e6, {0, seconds(600)}), 0);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(world.engine().reserve(*msg, seconds(1))->reply.granted);

  const std::string jsonl = AuditLog::global().export_jsonl();
  ASSERT_TRUE(AuditLog::verify_chain(jsonl).ok());

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(jsonl.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_GE(lines.size(), 3u);

  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) {
      out += l;
      out += '\n';
    }
    return out;
  };

  // (a) Editing a field value breaks that record's own hash.
  {
    auto tampered = lines;
    const std::size_t pos = tampered[1].find("\"domain\"");
    ASSERT_NE(pos, std::string::npos);
    tampered[1].replace(pos, 8, "\"d0main\"");
    EXPECT_FALSE(AuditLog::verify_chain(join(tampered)).ok());
  }
  // (b) Reordering intact records breaks the prev links.
  {
    auto tampered = lines;
    std::swap(tampered[0], tampered[1]);
    EXPECT_FALSE(AuditLog::verify_chain(join(tampered)).ok());
  }
  // (c) Deleting a middle record breaks the link across the gap.
  {
    auto tampered = lines;
    tampered.erase(tampered.begin() + 1);
    EXPECT_FALSE(AuditLog::verify_chain(join(tampered)).ok());
  }
  // Truncating from the front is NOT tampering: eviction does exactly
  // that, and the chain stays verifiable from any suffix.
  {
    auto suffix = lines;
    suffix.erase(suffix.begin());
    EXPECT_TRUE(AuditLog::verify_chain(join(suffix)).ok());
  }
}

TEST(ObsPropagation, EvictionKeepsChainVerifiable) {
  AuditLog log;
  log.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    log.append("DomainA", audit_kind::kAdmission,
               {{"result", "ok"}, {"user", "Alice"}});
  }
  EXPECT_EQ(log.size(), 4u);
  const auto verdict = AuditLog::verify_chain(log.export_jsonl());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_text();
  EXPECT_EQ(*verdict, 4u);
}

}  // namespace
}  // namespace e2e::obs
