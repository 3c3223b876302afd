// Source-domain-based signalling (the paper's Approach 1, Fig. 3).
//
// "Alice, or an agent working on her behalf, can contact each BB
// individually. A positive response from every BB indicates that Alice has
// an end-to-end reservation. However, there are two serious flaws ...
// First, it is difficult to scale since each BB must know about (and be
// able to authenticate) Alice ... Furthermore, if another user, Bob, makes
// an incomplete reservation, either maliciously or accidentally, he can
// interfere with Alice's reservation." (Fig. 4.)
//
// This engine implements that approach faithfully, including its flaws:
//  - every contacted BB authenticates the user directly (a per-domain
//    registry of known users — the scalability problem);
//  - reservations can be issued sequentially or in parallel ("source-
//    domain-based signalling may be faster ... because the reservations
//    for each domain can be made in parallel"). Parallel is a property of
//    virtual time: every request leaves at `at`, so the answer arrives
//    after the slowest domain's round trip. The engine still contacts the
//    domains one after another on the calling thread, which keeps fault
//    draws, audit records and spans in one reproducible order;
//  - nothing forces the agent to contact every domain on the path:
//    `reserve_subset` models David's misreservation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "obs/trace.hpp"
#include "policy/group_server.hpp"
#include "sig/message.hpp"
#include "sig/retry.hpp"
#include "sig/transport.hpp"

namespace e2e::sig {

struct HopSpan;

class SourceDomainEngine {
 public:
  explicit SourceDomainEngine(Transport& fabric) : fabric_(&fabric) {}

  /// Retry budget and backoff for each per-domain request. Timeouts are a
  /// pure function of (policy, attempt, request digest).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  struct DomainOptions {
    policy::GroupServer* group_server = nullptr;
    std::vector<std::string> relevant_groups;
    std::function<bool(const std::string&)> cpu_reservation_checker;
  };

  void add_domain(bb::BandwidthBroker& broker, DomainOptions options);
  void add_domain(bb::BandwidthBroker& broker) {
    add_domain(broker, DomainOptions());
  }

  /// Direct trust registration: the user must be known at EVERY domain it
  /// wants to reserve in (the approach's scalability flaw).
  void register_user(const std::string& domain,
                     const crypto::Certificate& user_cert);

  enum class Mode { kSequential, kParallel };

  struct Outcome {
    RarReply reply;
    SimDuration latency = 0;
    std::size_t domains_contacted = 0;
    std::size_t messages = 0;
    /// Request id keying this reservation's spans in the attached
    /// TraceRecorder (empty when none is attached).
    std::string trace_id;
  };

  /// Attach an engine-wide reference recorder (mirrors HopByHopEngine).
  void set_trace_recorder(obs::TraceRecorder* recorder) { tracer_ = recorder; }

  /// Attach `domain`'s own recorder; cross-domain linkage travels in the
  /// unsigned transport envelope exactly as in the hop-by-hop engine.
  void set_domain_trace_recorder(const std::string& domain,
                                 obs::TraceRecorder* recorder);

  /// Reserve in every domain on `domain_path` (source first). The agent
  /// runs in `domain_path.front()`. Sequential mode stops at the first
  /// denial; parallel mode contacts every domain. On any denial,
  /// already-granted per-domain reservations are rolled back.
  Result<Outcome> reserve(const std::vector<std::string>& domain_path,
                          const bb::ResSpec& spec,
                          const crypto::Certificate& user_cert,
                          const crypto::PrivateKey& user_key, Mode mode,
                          SimTime at);

  /// The misreservation primitive (Fig. 4): contact only `contacted`
  /// (a subset of the real path). The engine cannot stop a user from doing
  /// this — that is the point the paper makes against Approach 1.
  Result<Outcome> reserve_subset(const std::vector<std::string>& contacted,
                                 const std::string& agent_domain,
                                 const bb::ResSpec& spec,
                                 const crypto::Certificate& user_cert,
                                 const crypto::PrivateKey& user_key,
                                 Mode mode, SimTime at);

  Status release_end_to_end(const RarReply& reply);

 private:
  struct Node {
    bb::BandwidthBroker* broker = nullptr;
    DomainOptions options;
    std::map<std::string, crypto::Certificate> known_users;
    /// This domain's own trace recorder (nullptr = no local recording).
    obs::TraceRecorder* recorder = nullptr;
  };

  struct PerDomainResult {
    /// The domain's answer; a grant carries its one reservation handle.
    RarReply reply;
    SimDuration rtt = 0;
  };

  /// Tracing state shared by every per-domain request of one reservation.
  struct TraceCtx {
    std::string trace_id;
    /// Root reservation span in the engine-wide recorder (0 = off).
    obs::SpanId root = 0;
    /// Wire trace context stamped on each request's transport envelope
    /// (hop_count is replaced per domain with its path index).
    obs::TraceContext wire;
  };

  /// One per-domain reservation: send the signed request through
  /// exchange(), whose far end is step() at that domain's broker.
  PerDomainResult reserve_at(const std::string& domain,
                             const std::string& agent_domain,
                             const bb::ResSpec& spec,
                             const crypto::Certificate& user_cert,
                             const crypto::PrivateKey& user_key, SimTime at,
                             const TraceCtx& trace, std::size_t hop_index);

  /// The direct-trust step at one broker: authenticate the user, evaluate
  /// policy, admit. Walks `hop.cursor` through the processing budget.
  RarReply step(Node& node, const RarMessage& msg, const bb::ResSpec& spec,
                const crypto::Certificate& user_cert, SimTime at,
                HopSpan& hop);

  Transport* fabric_;
  RetryPolicy retry_policy_;
  std::map<std::string, Node> nodes_;
  std::uint64_t next_request_ = 1;
  obs::TraceRecorder* tracer_ = nullptr;
};

}  // namespace e2e::sig
