// The telemetry contract, enforced: docs/OBSERVABILITY.md must list every
// metric in the instrument catalog (and nothing else), everything the
// instrumented library actually emits must come from the catalog, and every
// span name and attribute key a trace carries must be documented.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sig/transport.hpp"
#include "testing_world.hpp"

#ifndef E2E_SOURCE_DIR
#error "build must define E2E_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace e2e::obs {
namespace {

using e2e::testing::attach_reference;
using e2e::testing::ChainWorld;
using e2e::testing::ChainWorldConfig;
using e2e::testing::WorldUser;

std::string read_doc() {
  const std::string path =
      std::string(E2E_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every `e2e_...` token the doc mentions.
std::set<std::string> doc_metric_names(const std::string& doc) {
  std::set<std::string> names;
  const std::regex token("e2e_[a-z0-9_]+");
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), token);
       it != std::sregex_iterator(); ++it) {
    names.insert(it->str());
  }
  return names;
}

std::set<std::string> catalog_names() {
  std::set<std::string> names;
  for (const auto& info : catalog()) names.insert(info.name);
  return names;
}

TEST(TelemetryContract, DocListsEveryCatalogMetric) {
  const std::set<std::string> documented = doc_metric_names(read_doc());
  for (const std::string& name : catalog_names()) {
    EXPECT_TRUE(documented.contains(name))
        << name << " is in obs/instruments.hpp but missing from "
        << "docs/OBSERVABILITY.md — document it";
  }
}

TEST(TelemetryContract, DocMentionsNoUnknownMetric) {
  const std::set<std::string> known = catalog_names();
  for (const std::string& name : doc_metric_names(read_doc())) {
    EXPECT_TRUE(known.contains(name))
        << name << " appears in docs/OBSERVABILITY.md but not in the "
        << "instrument catalog (obs/instruments.hpp) — stale docs";
  }
}

TEST(TelemetryContract, CatalogMetadataIsComplete) {
  std::set<std::string> seen;
  for (const auto& info : catalog()) {
    EXPECT_TRUE(seen.insert(info.name).second)
        << "duplicate catalog entry " << info.name;
    EXPECT_TRUE(std::string(info.name).starts_with("e2e_"))
        << info.name << ": all metrics share the e2e_ prefix";
    EXPECT_FALSE(std::string(info.unit).empty()) << info.name;
    EXPECT_FALSE(std::string(info.help).empty()) << info.name;
  }
}

TEST(TelemetryContract, RuntimeEmitsOnlyCatalogMetrics) {
  // Exercise grant, denial and the network simulator so instrumentation
  // across the layers actually fires, then check everything that showed up
  // in the global registry against the catalog.
  {
    ChainWorldConfig config;
    config.domains = 4;
    config.policies = {"Return GRANT", "Return GRANT", "Return GRANT",
                       "Return DENY"};
    ChainWorld world(config);
    WorldUser alice = world.make_user("Alice", 0, true, true);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    ASSERT_TRUE(msg.ok());
    (void)world.engine().reserve(*msg, seconds(1));
    (void)world.source_engine().reserve(
        world.names(), world.spec(alice, 1e6), alice.identity_cert,
        alice.identity_keys.priv,
        sig::SourceDomainEngine::Mode::kSequential, seconds(1));
  }
  {
    ChainWorld world;
    WorldUser alice = world.make_user("Alice", 0);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    ASSERT_TRUE(msg.ok());
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->reply.granted);
    ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
  }

  const std::set<std::string> known = catalog_names();
  for (const std::string& name :
       MetricsRegistry::global().exported_names()) {
    EXPECT_TRUE(known.contains(name))
        << name << " was emitted at runtime but is not declared in the "
        << "instrument catalog (obs/instruments.hpp)";
  }
}

TEST(TelemetryContract, DocCoversEverySpanNameAndAttributeKey) {
  const std::string doc = read_doc();

  // Collect what real traces carry: a granted 4-domain tunnel-free run and
  // a policy denial, read from an engine-wide reference recorder.
  std::set<std::string> span_names;
  std::set<std::string> attribute_keys;
  auto collect = [&](const TraceRecorder& reference,
                     const std::string& trace_id) {
    for (const auto& span : reference.trace(trace_id)) {
      span_names.insert(span.name);
      for (const auto& [key, value] : span.attributes) {
        attribute_keys.insert(key);
      }
    }
  };
  {
    ChainWorldConfig config;
    config.domains = 4;
    ChainWorld world(config);
    TraceRecorder reference;
    attach_reference(world, reference);
    WorldUser alice = world.make_user("Alice", 0);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    collect(reference, outcome->trace_id);
  }
  {
    ChainWorldConfig config;
    config.policies = {"Return GRANT", "Return DENY"};
    ChainWorld world(config);
    TraceRecorder reference;
    attach_reference(world, reference);
    WorldUser alice = world.make_user("Alice", 0);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    collect(reference, outcome->trace_id);
  }
  {
    // Tunnel establishment exercises the channel_handshake span.
    ChainWorld world;
    TraceRecorder reference;
    attach_reference(world, reference);
    WorldUser alice = world.make_user("Alice", 0);
    auto spec = world.spec(alice, 10e6);
    spec.is_tunnel = true;
    const auto msg = world.engine().build_user_request(alice.credentials(),
                                                       spec, 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->reply.granted);
    collect(reference, outcome->trace_id);
  }

  EXPECT_TRUE(span_names.contains("channel_handshake"));
  for (const std::string& name : span_names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "span name `" << name
        << "` is emitted but not documented in docs/OBSERVABILITY.md";
  }
  for (const std::string& key : attribute_keys) {
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "span attribute key `" << key
        << "` is emitted but not documented in docs/OBSERVABILITY.md";
  }
}

TEST(TelemetryContract, DocListsEveryAuditKindAndEmittedField) {
  const std::string doc = read_doc();

  // The closed kind set (obs/audit.hpp) must be documented in full...
  for (const char* kind :
       {audit_kind::kPeerAuth, audit_kind::kVerify, audit_kind::kPolicy,
        audit_kind::kDelegation, audit_kind::kAdmission,
        audit_kind::kRecovery, audit_kind::kShutdown}) {
    EXPECT_NE(doc.find("`" + std::string(kind) + "`"), std::string::npos)
        << "audit kind `" << kind
        << "` is in obs/audit.hpp but not documented in "
        << "docs/OBSERVABILITY.md";
  }

  // ...and everything the instrumented library actually appends — kinds
  // AND kind-specific field keys — must come from the documented schema.
  // Exercise grant, policy denial and a tunnel per-flow reservation so
  // every emission point fires.
  AuditLog::global().clear();
  const std::set<std::string> known_kinds = {
      audit_kind::kPeerAuth,   audit_kind::kVerify,    audit_kind::kPolicy,
      audit_kind::kDelegation, audit_kind::kAdmission, audit_kind::kRecovery,
      audit_kind::kShutdown};
  {
    ChainWorldConfig config;
    config.domains = 4;
    config.policies = {"Return GRANT", "Return GRANT", "Return GRANT",
                       "Return DENY"};
    ChainWorld world(config);
    WorldUser alice = world.make_user("Alice", 0, true, true);
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 10e6), 0);
    ASSERT_TRUE(msg.ok());
    (void)world.engine().reserve(*msg, seconds(1));
    (void)world.source_engine().reserve(
        world.names(), world.spec(alice, 1e6), alice.identity_cert,
        alice.identity_keys.priv,
        sig::SourceDomainEngine::Mode::kSequential, seconds(1));
  }
  {
    ChainWorld world;
    WorldUser alice = world.make_user("Alice", 0);
    auto spec = world.spec(alice, 50e6, {0, seconds(3600)});
    spec.is_tunnel = true;
    const auto msg =
        world.engine().build_user_request(alice.credentials(), spec, 0);
    ASSERT_TRUE(msg.ok());
    const auto est = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(est.ok());
    ASSERT_TRUE(est->reply.granted);
    (void)world.engine().reserve_in_tunnel(est->reply.tunnel_id,
                                           alice.dn.to_string(), 5e6,
                                           {0, seconds(60)}, seconds(2));
  }
  const auto records = AuditLog::global().records();
  ASSERT_FALSE(records.empty());
  std::set<std::string> seen_kinds;
  for (const auto& record : records) {
    EXPECT_TRUE(known_kinds.contains(record.kind))
        << "runtime emitted unknown audit kind " << record.kind;
    seen_kinds.insert(record.kind);
    for (const auto& [key, value] : record.fields) {
      EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
          << "audit field key `" << key << "` (kind " << record.kind
          << ") is emitted but not documented in docs/OBSERVABILITY.md";
    }
  }
  // The exercised scenarios cover every kind except peer_auth (channel
  // handshakes happen at world setup, outside any span, and are not
  // audited by design).
  for (const char* kind : {audit_kind::kVerify, audit_kind::kPolicy,
                           audit_kind::kDelegation, audit_kind::kAdmission}) {
    EXPECT_TRUE(seen_kinds.contains(kind)) << kind << " never emitted";
  }
  AuditLog::global().clear();
}

TEST(TelemetryContract, DocMatchesTraceContextWireTags) {
  const std::string doc = read_doc();
  const std::pair<const char*, tlv::Tag> tags[] = {
      {"0xE270", sig::envelope_tag::kTraceContext},
      {"0xE271", sig::envelope_tag::kTraceId},
      {"0xE272", sig::envelope_tag::kOrigin},
      {"0xE273", sig::envelope_tag::kSpanId},
      {"0xE274", sig::envelope_tag::kHopCount},
      {"0xE275", sig::envelope_tag::kSampled},
  };
  for (const auto& [text, tag] : tags) {
    // The doc names the tag...
    EXPECT_NE(doc.find("`" + std::string(text) + "`"), std::string::npos)
        << "envelope tag " << text
        << " is not documented in docs/OBSERVABILITY.md";
    // ...and the documented hex value is the one the wire actually uses.
    EXPECT_EQ(static_cast<tlv::Tag>(std::stoul(text, nullptr, 16)), tag);
  }
}

}  // namespace
}  // namespace e2e::obs
