// Source-domain-based signalling (Approach 1) and its documented flaws.
#include "sig/source_signalling.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

TEST(SourceSignalling, GrantsWhenUserKnownEverywhere) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0, true, true);
  const auto outcome = world.source_engine().reserve(
      world.names(), world.spec(alice, 10e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kSequential,
      seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->reply.granted) << outcome->reply.denial.to_text();
  EXPECT_EQ(outcome->reply.handles.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 1u);
  }
}

TEST(SourceSignalling, FailsWhereUserUnknown) {
  ChainWorld world;
  // Alice is only registered in her home domain — the paper's scalability
  // flaw: "each BB must know about (and be able to authenticate) Alice".
  const WorldUser alice = world.make_user("Alice", 0, true, false);
  const auto outcome = world.source_engine().reserve(
      world.names(), world.spec(alice, 10e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kSequential,
      seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kAuthenticationFailed);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainB");
  // The partial grant in A was rolled back.
  EXPECT_EQ(world.broker(0).reservation_count(), 0u);
}

TEST(SourceSignalling, ParallelFasterThanSequential) {
  ChainWorldConfig config;
  config.domains = 5;
  ChainWorld world(config);
  world.fabric().set_processing_delay(milliseconds(1));
  const WorldUser alice = world.make_user("Alice", 0, true, true);

  const auto seq = world.source_engine().reserve(
      world.names(), world.spec(alice, 1e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kSequential,
      seconds(1));
  ASSERT_TRUE(seq->reply.granted);
  ASSERT_TRUE(world.source_engine().release_end_to_end(seq->reply).ok());

  const auto par = world.source_engine().reserve(
      world.names(), world.spec(alice, 1e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kParallel,
      seconds(1));
  ASSERT_TRUE(par->reply.granted);

  // Sequential pays the sum of per-domain RTTs; parallel pays the max.
  EXPECT_GT(seq->latency, par->latency);
  // Parallel latency equals the farthest domain's RTT + processing.
  SimDuration worst = 0;
  for (const auto& name : world.names()) {
    worst = std::max(worst, world.fabric().rtt("DomainA", name));
  }
  EXPECT_EQ(par->latency, worst + world.fabric().processing_delay());
}

TEST(SourceSignalling, PartialDenialRollsBackParallel) {
  ChainWorldConfig config;
  config.policies = {"Return GRANT", "Return GRANT", "Return DENY"};
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0, true, true);
  const auto outcome = world.source_engine().reserve(
      world.names(), world.spec(alice, 10e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kParallel,
      seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainC");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.broker(i).reservation_count(), 0u);
  }
}

/// Everything one run of parallel reserves makes observable.
struct ParallelRun {
  std::vector<Bytes> replies;
  std::vector<SimDuration> latencies;
  std::vector<std::size_t> messages;
  std::uint64_t retransmits = 0;
  std::uint64_t fabric_messages = 0;
  std::string audit_head;
};

ParallelRun run_parallel_under_faults() {
  ChainWorldConfig config;
  config.domains = 4;
  config.fault_profile.drop = 0.2;
  config.fault_profile.duplicate = 0.1;
  config.fault_profile.jitter = 0.2;
  config.fault_seed = 4242;
  obs::Counter& retransmits = obs::MetricsRegistry::global().counter(
      obs::kSigRetransmitsTotal, {{"engine", "source"}});
  const std::uint64_t retransmits_before = retransmits.value();
  // The audit chain is process-wide: restart it so both runs hash the
  // same records from genesis.
  obs::AuditLog::global().clear();
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0, true, true);
  ParallelRun run;
  for (int i = 0; i < 50; ++i) {
    const auto outcome = world.source_engine().reserve(
        world.names(), world.spec(alice, 1e6), alice.identity_cert,
        alice.identity_keys.priv, SourceDomainEngine::Mode::kParallel,
        seconds(1 + i));
    EXPECT_TRUE(outcome.ok());
    if (!outcome.ok()) break;
    run.replies.push_back(outcome->reply.encode());
    run.latencies.push_back(outcome->latency);
    run.messages.push_back(outcome->messages);
    if (outcome->reply.granted) {
      EXPECT_TRUE(
          world.source_engine().release_end_to_end(outcome->reply).ok());
    }
  }
  run.retransmits = retransmits.value() - retransmits_before;
  run.fabric_messages = world.fabric().total().messages;
  run.audit_head = obs::AuditLog::global().head_hash();
  return run;
}

TEST(SourceSignalling, ParallelReservesReproducibleUnderFaults) {
  // Every per-domain request draws from the fabric's one fault RNG and
  // appends to the one hash-chained audit log, so their order must not
  // depend on thread scheduling: two identically seeded worlds agree on
  // every observable.
  const ParallelRun a = run_parallel_under_faults();
  const ParallelRun b = run_parallel_under_faults();
  ASSERT_EQ(a.replies.size(), 50u);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_GT(a.retransmits, 0u) << "the fault profile never forced a retry";
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.fabric_messages, b.fabric_messages);
  EXPECT_NE(a.audit_head, obs::AuditLog::genesis_hash());
  EXPECT_EQ(a.audit_head, b.audit_head);
}

TEST(SourceSignalling, MisreservationSkipsDomains) {
  // Fig. 4: David reserves in D(omainA here) and B but NOT C — nothing in
  // the source-based approach prevents it.
  ChainWorld world;
  const WorldUser david = world.make_user("David", 0, true, true);
  const auto outcome = world.source_engine().reserve_subset(
      {"DomainA", "DomainB"}, "DomainA", world.spec(david, 10e6),
      david.identity_cert, david.identity_keys.priv,
      SourceDomainEngine::Mode::kSequential, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->reply.granted);  // "granted" — but incomplete!
  EXPECT_EQ(outcome->reply.handles.size(), 2u);
  EXPECT_EQ(world.broker(0).reservation_count(), 1u);
  EXPECT_EQ(world.broker(1).reservation_count(), 1u);
  EXPECT_EQ(world.broker(2).reservation_count(), 0u);  // C never asked
}

TEST(SourceSignalling, WrongCertificateRejected) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0, true, true);
  const WorldUser bob = world.make_user("Bob", 0, true, true);
  // Alice presents Bob's certificate.
  bb::ResSpec spec = world.spec(alice, 1e6);
  const auto outcome = world.source_engine().reserve(
      world.names(), spec, bob.identity_cert, alice.identity_keys.priv,
      SourceDomainEngine::Mode::kSequential, seconds(1));
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kAuthenticationFailed);
}

TEST(SourceSignalling, MessageCountScalesWithDomains) {
  ChainWorldConfig config;
  config.domains = 4;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0, true, true);
  const auto outcome = world.source_engine().reserve(
      world.names(), world.spec(alice, 1e6), alice.identity_cert,
      alice.identity_keys.priv, SourceDomainEngine::Mode::kParallel,
      seconds(1));
  ASSERT_TRUE(outcome->reply.granted);
  EXPECT_EQ(outcome->messages, 8u);  // 2 per contacted domain
  EXPECT_EQ(outcome->domains_contacted, 4u);
}

TEST(SourceSignalling, EmptyPathRejected) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  EXPECT_FALSE(world.source_engine()
                   .reserve({}, world.spec(alice, 1e6), alice.identity_cert,
                            alice.identity_keys.priv,
                            SourceDomainEngine::Mode::kSequential, 0)
                   .ok());
}

}  // namespace
}  // namespace e2e::sig
