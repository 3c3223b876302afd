// Retry/backoff and idempotency: timer math (cap, jitter bounds, budget
// exhaustion), exchange() against a scripted transport, and
// at-most-once admission when the fabric redelivers or loses messages,
// asserted against the failure-path obs counters.
#include <gtest/gtest.h>

#include <deque>

#include "crypto/ca.hpp"
#include "crypto/sha256.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "sig/exchange.hpp"
#include "sig/retry.hpp"
#include "testing_world.hpp"

namespace e2e::sig {
namespace {

using testing::ChainWorld;
using testing::ChainWorldConfig;
using testing::WorldUser;

std::uint64_t counter_value(const char* name, obs::Labels labels) {
  return obs::MetricsRegistry::global()
      .counter(name, std::move(labels))
      .value();
}

TEST(RetryTimeout, GrowsGeometricallyUpToTheCap) {
  RetryPolicy p;
  p.base_timeout = milliseconds(100);
  p.multiplier = 2.0;
  p.max_timeout = milliseconds(300);
  p.jitter = 0;  // isolate the backoff ladder
  EXPECT_EQ(retry_timeout(p, 1, 7), milliseconds(100));
  EXPECT_EQ(retry_timeout(p, 2, 7), milliseconds(200));
  EXPECT_EQ(retry_timeout(p, 3, 7), milliseconds(300));  // capped
  EXPECT_EQ(retry_timeout(p, 4, 7), milliseconds(300));
  EXPECT_EQ(retry_timeout(p, 60, 7), milliseconds(300));  // no overflow
}

TEST(RetryTimeout, JitterStaysInsideTheConfiguredBand) {
  RetryPolicy p;
  p.base_timeout = milliseconds(100);
  p.jitter = 0.1;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const SimDuration t = retry_timeout(p, 1, seed);
    EXPECT_GE(t, milliseconds(100)) << "seed " << seed;
    EXPECT_LE(t, milliseconds(110)) << "seed " << seed;
  }
}

TEST(RetryTimeout, DeterministicPerSeedAndSpreadAcrossSeeds) {
  RetryPolicy p;
  EXPECT_EQ(retry_timeout(p, 2, 123), retry_timeout(p, 2, 123));
  // Different seeds or attempts land on different jittered values (not a
  // hard guarantee of the mix, but these particular inputs must differ for
  // the jitter to be doing anything).
  EXPECT_NE(retry_timeout(p, 1, 1), retry_timeout(p, 1, 2));
}

/// A transport that plays back one scripted fate per transmission; once
/// the script runs out, every message is delivered cleanly.
class ScriptedTransport : public Transport {
 public:
  struct Fate {
    Delivery::Outcome outcome = Delivery::Outcome::kDelivered;
    SimDuration latency = milliseconds(10);
    bool corrupt = false;
    bool duplicate = false;
  };
  std::deque<Fate> script;

  SimDuration one_way(const std::string&, const std::string&) const override {
    return 0;
  }
  SimDuration processing_delay() const override { return 0; }
  void record_message(const std::string&, const std::string&,
                      std::size_t) override {}
  Delivery transmit(const std::string&, const std::string&, BytesView payload,
                    const obs::TraceContext* trace_context) override {
    Fate fate;
    if (!script.empty()) {
      fate = script.front();
      script.pop_front();
    }
    Delivery delivery;
    delivery.outcome = fate.outcome;
    delivery.latency = fate.latency;
    if (!delivery.delivered()) return delivery;
    delivery.payload.assign(payload.begin(), payload.end());
    if (fate.corrupt) {
      delivery.payload[0] ^= 0xff;
      delivery.corrupted = true;
    }
    delivery.duplicated = fate.duplicate;
    if (trace_context != nullptr) delivery.trace_context = *trace_context;
    return delivery;
  }
};

const ScriptedTransport::Fate kDelivered{};
const ScriptedTransport::Fate kDropped{Delivery::Outcome::kDropped};

/// Two brokers' halves of one authenticated channel.
struct ChannelPairFixture {
  Rng rng{99};
  TimeInterval validity{0, hours(1000)};
  crypto::CertificateAuthority ca_a{
      crypto::DistinguishedName::make("CA-A", "DomainA"), rng, validity, 256};
  crypto::CertificateAuthority ca_b{
      crypto::DistinguishedName::make("CA-B", "DomainB"), rng, validity, 256};
  crypto::KeyPair keys_a = crypto::generate_keypair(rng, 256);
  crypto::KeyPair keys_b = crypto::generate_keypair(rng, 256);
  crypto::TrustStore store_a;
  crypto::TrustStore store_b;
  SessionPair sessions;

  ChannelPairFixture() {
    store_a.add_anchor(ca_b.root_certificate());
    store_b.add_anchor(ca_a.root_certificate());
    const ChannelEndpoint a{
        ca_a.issue(crypto::DistinguishedName::make("BB-A", "DomainA"),
                   keys_a.pub, validity),
        keys_a.priv, &store_a, {}};
    const ChannelEndpoint b{
        ca_b.issue(crypto::DistinguishedName::make("BB-B", "DomainB"),
                   keys_b.pub, validity),
        keys_b.priv, &store_b, {}};
    sessions = handshake(a, b, 0, rng).value();
  }
};

/// A retry policy without jitter, so timeouts are exact.
RetryPolicy exact_policy(std::size_t max_attempts = 4) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.jitter = 0;
  return policy;
}

/// A far end that grants with one handle and records what reached it.
struct CountingFarEnd {
  struct Seen {
    Bytes payload;
    SimDuration waited = 0;
    SimDuration latency = 0;
  };
  std::size_t calls = 0;
  std::vector<Seen> arrivals;

  FarEnd handler() {
    return [this](const Arrival& arrival) {
      ++calls;
      arrivals.push_back(
          Seen{Bytes(arrival.payload.begin(), arrival.payload.end()),
               arrival.waited, arrival.latency});
      RarReply reply = RarReply::approve();
      reply.handles.emplace_back("DomainB", "res-1");
      return reply;
    };
  }
};

TEST(Exchange, LostRequestIsRetransmitted) {
  ChannelPairFixture channel;
  ScriptedTransport transport;
  transport.script = {kDropped, {.latency = milliseconds(10)},
                      {.latency = milliseconds(7)}};
  const RetryPolicy policy = exact_policy();
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");
  const auto retransmits_before =
      counter_value(obs::kSigRetransmitsTotal, {{"engine", "hopbyhop"}});

  const ExchangeResult result = exchange(
      transport, policy,
      Exchange{"hopbyhop", "DomainA", "DomainB", request, nullptr,
               &channel.sessions.initiator, &channel.sessions.responder,
               ReplyLeg::kSealed},
      far.handler());

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.messages, 3u);
  // The first timeout, then both legs of the attempt that got through.
  EXPECT_EQ(result.latency,
            policy.base_timeout + milliseconds(10) + milliseconds(7));
  ASSERT_EQ(far.calls, 1u);
  EXPECT_EQ(far.arrivals[0].waited, policy.base_timeout);
  EXPECT_EQ(far.arrivals[0].latency, milliseconds(10));
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_TRUE(result.reply->granted);
  EXPECT_EQ(counter_value(obs::kSigRetransmitsTotal,
                          {{"engine", "hopbyhop"}}) -
                retransmits_before,
            1u);
}

TEST(Exchange, LostReplyIsAnsweredFromTheSavedReply) {
  ChannelPairFixture channel;
  ScriptedTransport transport;
  transport.script = {kDelivered, kDropped, kDelivered, kDelivered};
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");
  const auto cache_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}});

  const ExchangeResult result = exchange(
      transport, exact_policy(),
      Exchange{"hopbyhop", "DomainA", "DomainB", request, nullptr,
               &channel.sessions.initiator, &channel.sessions.responder,
               ReplyLeg::kSealed},
      far.handler());

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(far.calls, 1u);
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "cache"}}) -
                cache_before,
            1u);
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_TRUE(result.reply->granted);
}

TEST(Exchange, DuplicatedDeliveryIsRefusedByTheChannel) {
  ChannelPairFixture channel;
  ScriptedTransport transport;
  transport.script = {{.duplicate = true}, kDelivered};
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");
  const auto channel_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "channel"}});
  const auto cache_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}});

  const ExchangeResult result = exchange(
      transport, exact_policy(),
      Exchange{"hopbyhop", "DomainA", "DomainB", request, nullptr,
               &channel.sessions.initiator, &channel.sessions.responder,
               ReplyLeg::kSealed},
      far.handler());

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(far.calls, 1u);
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "channel"}}) -
                channel_before,
            1u);
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "cache"}}) -
                cache_before,
            0u);
}

TEST(Exchange, CorruptedPlaintextLegCountsAsLost) {
  ScriptedTransport transport;
  transport.script = {{.corrupt = true}, kDelivered};
  const RetryPolicy policy = exact_policy();
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");
  const auto timeouts_before =
      counter_value(obs::kSigTimeoutsTotal, {{"engine", "source"}});

  const ExchangeResult result = exchange(
      transport, policy,
      Exchange{"source", "DomainA", "DomainB", request, nullptr, nullptr,
               nullptr, ReplyLeg::kNone},
      far.handler());

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.messages, 2u);  // no reply leg
  EXPECT_EQ(result.latency, policy.base_timeout + milliseconds(10));
  ASSERT_EQ(far.calls, 1u);
  EXPECT_EQ(far.arrivals[0].payload, request);
  EXPECT_EQ(counter_value(obs::kSigTimeoutsTotal, {{"engine", "source"}}) -
                timeouts_before,
            1u);
}

TEST(Exchange, BudgetExhaustedReturnsTheSavedGrant) {
  ChannelPairFixture channel;
  ScriptedTransport transport;
  // Every request arrives; every reply is lost.
  transport.script = {kDelivered, kDropped, kDelivered, kDropped,
                      kDelivered, kDropped};
  const RetryPolicy policy = exact_policy(3);
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");
  const auto cache_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}});

  const ExchangeResult result = exchange(
      transport, policy,
      Exchange{"tunnel", "DomainA", "DomainB", request, nullptr,
               &channel.sessions.initiator, &channel.sessions.responder,
               ReplyLeg::kAck},
      far.handler());

  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(far.calls, 1u);
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "cache"}}) -
                cache_before,
            2u);
  // Only the armed timeouts: no leg completed.
  EXPECT_EQ(result.latency, retry_timeout(policy, 1, 0) +
                                retry_timeout(policy, 2, 0) +
                                retry_timeout(policy, 3, 0));
  // The unconfirmed grant comes back for the caller to release.
  ASSERT_TRUE(result.reply.has_value());
  EXPECT_TRUE(result.reply->granted);
  ASSERT_EQ(result.reply->handles.size(), 1u);
  EXPECT_EQ(result.reply->handles[0].second, "res-1");
}

TEST(Exchange, JitteredTimeoutIsSeededByTheRequestDigest) {
  ChannelPairFixture channel;
  ScriptedTransport transport;
  transport.script = {kDropped, {.latency = milliseconds(10)},
                      {.latency = milliseconds(7)}};
  const RetryPolicy policy;  // default jitter
  ASSERT_GT(policy.jitter, 0);
  CountingFarEnd far;
  const Bytes request = to_bytes("rar");

  const ExchangeResult result = exchange(
      transport, policy,
      Exchange{"hopbyhop", "DomainA", "DomainB", request, nullptr,
               &channel.sessions.initiator, &channel.sessions.responder,
               ReplyLeg::kSealed},
      far.handler());

  // The seed is the first eight bytes of the request's SHA-256,
  // big-endian.
  const crypto::Digest digest = crypto::sha256(request);
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i < 8; ++i) seed = (seed << 8) | digest[i];
  ASSERT_NE(retry_timeout(policy, 1, seed), retry_timeout(policy, 1, 0));

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.latency, retry_timeout(policy, 1, seed) +
                                milliseconds(10) + milliseconds(7));
}

TEST(RetryBudget, ExhaustionDeniesWithTimeoutAndReleasesEverything) {
  ChainWorldConfig config;
  config.domains = 3;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  // Every A->B request vanishes; the reverse direction is clean but never
  // used because the request never arrives.
  FaultProfile drop_all;
  drop_all.drop = 1.0;
  world.fabric().set_fault_profile("DomainA", "DomainB", drop_all);
  world.fabric().seed_faults(1);

  const std::uint64_t timeouts_before =
      counter_value(obs::kSigTimeoutsTotal, {{"engine", "hopbyhop"}});
  const std::uint64_t retransmits_before =
      counter_value(obs::kSigRetransmitsTotal, {{"engine", "hopbyhop"}});
  const std::uint64_t released_before =
      counter_value(obs::kSigReleasedOnFailureTotal, {{"domain", "DomainA"}});

  const auto msg = world.engine().build_user_request(alice.credentials(),
                                                     world.spec(alice, 1e6),
                                                     0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kTimeout);
  EXPECT_EQ(outcome->reply.denial.origin, "DomainA");

  const RetryPolicy& policy = world.engine().retry_policy();
  EXPECT_EQ(counter_value(obs::kSigTimeoutsTotal, {{"engine", "hopbyhop"}}) -
                timeouts_before,
            policy.max_attempts);
  EXPECT_EQ(
      counter_value(obs::kSigRetransmitsTotal, {{"engine", "hopbyhop"}}) -
          retransmits_before,
      policy.max_attempts - 1);
  EXPECT_EQ(counter_value(obs::kSigReleasedOnFailureTotal,
                          {{"domain", "DomainA"}}) -
                released_before,
            1u);
  // Give-up waits: the modeled latency covers every armed timeout.
  SimDuration waits = 0;
  for (std::size_t a = 1; a <= policy.max_attempts; ++a) {
    waits += policy.base_timeout;  // lower bound (jitter only adds)
  }
  EXPECT_GE(outcome->latency, waits);
  // Nothing residual anywhere.
  EXPECT_EQ(world.total_reservations(), 0u);
}

TEST(RetryIdempotency, LostRepliesNeverDoubleAdmit) {
  ChainWorldConfig config;
  config.domains = 2;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  // Requests get through; every reply B->A is lost. B admits on the first
  // delivery; each retransmission must hit B's reply cache, not its
  // admission control.
  FaultProfile drop_all;
  drop_all.drop = 1.0;
  world.fabric().set_fault_profile("DomainB", "DomainA", drop_all);
  world.fabric().seed_faults(2);

  const std::uint64_t cache_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}});
  const auto committed_before = world.broker(1).counters().granted;

  const auto msg = world.engine().build_user_request(alice.credentials(),
                                                     world.spec(alice, 1e6),
                                                     0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->reply.granted);
  EXPECT_EQ(outcome->reply.denial.code, ErrorCode::kTimeout);

  const RetryPolicy& policy = world.engine().retry_policy();
  // B processed the request exactly once...
  EXPECT_EQ(world.broker(1).counters().granted - committed_before, 1u);
  // ...and served every retransmission from the reply cache.
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "cache"}}) -
                cache_before,
            policy.max_attempts - 1);
  // A gave up: its own tentative commitment and B's orphaned grant are
  // both gone.
  EXPECT_EQ(world.broker(0).reservation_count(), 0u);
  EXPECT_EQ(world.broker(1).reservation_count(), 0u);
  EXPECT_GE(counter_value(obs::kSigReleasedOnFailureTotal,
                          {{"domain", "DomainB"}}),
            1u);
}

TEST(RetryIdempotency, DuplicatedDeliveryIsSuppressedByTheChannel) {
  ChainWorldConfig config;
  config.domains = 2;
  config.fault_profile.duplicate = 1.0;  // every message arrives twice
  config.fault_seed = 3;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  const std::uint64_t channel_before =
      counter_value(obs::kSigDuplicatesSuppressedTotal, {{"via", "channel"}});
  const auto msg = world.engine().build_user_request(alice.credentials(),
                                                     world.spec(alice, 1e6),
                                                     0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->reply.granted);
  // One inter-BB exchange, both legs duplicated, both copies rejected by
  // the record layer's replay protection.
  EXPECT_EQ(counter_value(obs::kSigDuplicatesSuppressedTotal,
                          {{"via", "channel"}}) -
                channel_before,
            2u);
  // Exactly one admission per broker despite the duplicates.
  EXPECT_EQ(world.broker(0).reservation_count(), 1u);
  EXPECT_EQ(world.broker(1).reservation_count(), 1u);
  ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
  EXPECT_EQ(world.total_reservations(), 0u);
}

TEST(RetryRecovery, LossyLinkEventuallySucceedsWithRetransmits) {
  ChainWorldConfig config;
  config.domains = 3;
  config.fault_profile.drop = 0.4;
  config.fault_seed = 77;
  config.retry_policy.max_attempts = 8;  // plenty of budget
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);

  // With drop=0.4 and 8 attempts per exchange, at least one of a handful
  // of requests succeeds (and the seed is fixed, so this is stable).
  bool granted = false;
  for (int i = 0; i < 5 && !granted; ++i) {
    const auto msg = world.engine().build_user_request(
        alice.credentials(), world.spec(alice, 1e6 + i), 0);
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok());
    if (outcome->reply.granted) {
      granted = true;
      EXPECT_EQ(outcome->reply.handles.size(), 3u);
      ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
    }
    EXPECT_EQ(world.total_reservations(), 0u);
  }
  EXPECT_TRUE(granted);
}

TEST(RetryTunnel, DarkDestinationReleasesBothTunnelHalves) {
  ChainWorldConfig config;
  config.domains = 3;
  ChainWorld world(config);
  WorldUser alice = world.make_user("Alice", 0);

  // Establish the tunnel on a clean fabric.
  auto spec = world.spec(alice, 50e6);
  spec.is_tunnel = true;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->reply.granted);
  const std::string tunnel_id = outcome->reply.tunnel_id;

  // First per-flow allocation works.
  auto flow = world.engine().reserve_in_tunnel(
      tunnel_id, alice.dn.to_string(), 1e6, {0, seconds(60)}, seconds(2));
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(flow->reply.granted);

  // Now the destination goes dark for the direct channel: every reply
  // DomainC->DomainA is lost, so the source retries and eventually gives
  // up. The destination's unconfirmed grant must be rolled back too.
  FaultProfile drop_all;
  drop_all.drop = 1.0;
  world.fabric().set_fault_profile("DomainC", "DomainA", drop_all);
  world.fabric().seed_faults(4);
  auto info_before = world.engine().tunnel_info(tunnel_id);
  ASSERT_TRUE(info_before.has_value());

  auto failed = world.engine().reserve_in_tunnel(
      tunnel_id, alice.dn.to_string(), 1e6, {0, seconds(60)}, seconds(3));
  ASSERT_TRUE(failed.ok());
  ASSERT_FALSE(failed->reply.granted);
  EXPECT_EQ(failed->reply.denial.code, ErrorCode::kTimeout);

  auto info_after = world.engine().tunnel_info(tunnel_id);
  ASSERT_TRUE(info_after.has_value());
  // Only the first (confirmed) flow remains on the source side.
  EXPECT_EQ(info_after->active_flows, info_before->active_flows);
}

TEST(RetryTunnel, LostReplyDoesNotReevaluateDeniedFlow) {
  ChainWorldConfig config;
  config.domains = 3;
  ChainWorld world(config);
  obs::TraceRecorder reference;
  testing::attach_reference(world, reference);
  WorldUser alice = world.make_user("Alice", 0);

  auto spec = world.spec(alice, 10e6);
  spec.is_tunnel = true;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  const auto established = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(established.ok());
  ASSERT_TRUE(established->reply.granted);
  const std::string tunnel_id = established->reply.tunnel_id;

  // An 8 Mb/s filler in the destination half of the 10 Mb/s tunnel: the
  // source half admits a 5 Mb/s flow, the destination half refuses it.
  const auto dst_tunnels = world.broker(2).all_tunnels();
  ASSERT_EQ(dst_tunnels.size(), 1u);
  bb::Tunnel* dst_half = world.broker(2).find_tunnel(dst_tunnels[0]->id());
  ASSERT_NE(dst_half, nullptr);
  ASSERT_TRUE(dst_half
                  ->allocate("filler", alice.dn.to_string(), {0, seconds(60)},
                             8e6)
                  .ok());

  // Every destination->source reply is lost, so the source retransmits
  // until the budget is spent.
  FaultProfile drop_all;
  drop_all.drop = 1.0;
  world.fabric().set_fault_profile("DomainC", "DomainA", drop_all);
  world.fabric().seed_faults(5);
  // Trace ids restart with every world; keep only this flow's records.
  obs::AuditLog::global().clear();

  const auto flow = world.engine().reserve_in_tunnel(
      tunnel_id, alice.dn.to_string(), 5e6, {0, seconds(60)}, seconds(2));
  ASSERT_TRUE(flow.ok());
  ASSERT_FALSE(flow->reply.granted);
  EXPECT_EQ(flow->reply.denial.code, ErrorCode::kTimeout);

  // The destination evaluated the flow once; every retransmission got its
  // saved denial.
  std::size_t dst_admissions = 0;
  for (const auto& record :
       obs::AuditLog::global().records_for(flow->trace_id)) {
    if (record.domain == "DomainC" &&
        record.kind == obs::audit_kind::kAdmission) {
      ++dst_admissions;
    }
  }
  EXPECT_EQ(dst_admissions, 1u);
  std::size_t dst_hops = 0;
  for (const auto& span : reference.trace(flow->trace_id)) {
    const std::string* domain = span.attribute("domain");
    if (span.name == "hop" && domain != nullptr && *domain == "DomainC") {
      ++dst_hops;
    }
  }
  EXPECT_EQ(dst_hops, 1u);

  // Zero residual in both halves once the filler is gone.
  const auto info = world.engine().tunnel_info(tunnel_id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->active_flows, 0u);
  ASSERT_TRUE(dst_half->release("filler").ok());
  EXPECT_EQ(dst_half->active_allocations(), 0u);
}

}  // namespace
}  // namespace e2e::sig
