// Hop-by-hop inter-BB signalling engine (the paper's Approach 2 and core
// contribution, §3/§6).
//
// "Alice only contacts BB_A, which then propagates the reservation request
// to BB_B only if the reservation was accepted by BB_A. Similarly, BB_B
// contacts BB_C. With this solution, each BB only needs to know about its
// neighboring BBs, and all BBs are always contacted."
//
// Per hop the engine performs the §6.1/§6.2 steps: verify the received RAR
// (transitive trust over the nested signatures), consult the policy server,
// run admission control against the SLA with the upstream peer, delegate
// the capability chain to the next broker (§6.5), append and sign a new
// RAR layer, and forward over the mutually authenticated channel. Denials
// propagate back upstream with their origin; approvals commit hop state and
// (for tunnel requests) establish the direct source<->end signalling
// channel.
//
// The code keeps those two concerns apart. step() is the per-hop decision
// and never touches the transport: it returns either this hop's reply or a
// signed forward for the next hop. process() is the recursion around it:
// it sends a forward through exchange() (sig/exchange.hpp), whose far end
// is process() at the next hop, and applies the verdict.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bb/bandwidth_broker.hpp"
#include "obs/trace.hpp"
#include "policy/group_server.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"
#include "sig/retry.hpp"
#include "sig/transport.hpp"
#include "sig/trust.hpp"

namespace e2e::sig {

struct HopSpan;

struct DomainOptions {
  policy::GroupServer* group_server = nullptr;
  /// Groups this domain's policy may reference; membership is validated
  /// against the group server per request.
  std::vector<std::string> relevant_groups;
  /// Resolver for HasValidCPUResv(RAR); bound to GARA by the deployment.
  std::function<bool(const std::string&)> cpu_reservation_checker;
  TrustPolicy trust_policy;
  /// One-way latency between a local user and this domain's BB.
  SimDuration user_link_latency = milliseconds(1);
};

/// What a user holds after grid-login (paper Fig. 7): an identity
/// certificate plus, optionally, a CAS capability certificate and the
/// matching private proxy key.
struct UserCredentials {
  crypto::Certificate identity_certificate;
  crypto::PrivateKey identity_key;
  std::optional<crypto::Certificate> capability_certificate;
  std::optional<crypto::PrivateKey> proxy_key;
};

class HopByHopEngine {
 public:
  HopByHopEngine(Transport& fabric, Rng& rng) : fabric_(&fabric), rng_(&rng) {}

  /// Register a domain's broker with the engine.
  void add_domain(bb::BandwidthBroker& broker, DomainOptions options = {});

  /// Establish the mutually authenticated channel between two peered
  /// domains (part of SLA setup; paper §6). Must be called after both SLAs
  /// installed the peer CA certificates.
  Status connect_peers(const std::string& a, const std::string& b, SimTime at);

  /// Make `domain` trust capability certificates issued by `community`'s
  /// CAS (key distribution for communities is out of band).
  void trust_community(const std::string& domain, const std::string& community,
                       const crypto::PublicKey& cas_key);

  /// Revocation oracle for a community's CAS-issued capability
  /// certificates (CRL stand-in): `revoked(serial)` is consulted for the
  /// root capability certificate during chain validation.
  void set_community_revocation_check(
      const std::string& domain, const std::string& community,
      std::function<bool(std::uint64_t serial)> revoked);

  /// The source-domain BB knows its local users directly (paper §6.1).
  void register_local_user(const std::string& domain,
                           const crypto::Certificate& user_cert);

  /// Bind the HasValidCPUResv(RAR) predicate of a domain to a resolver
  /// (GARA attaches its compute manager here; Fig. 5/6 coupling).
  void set_cpu_reservation_checker(const std::string& domain,
                                   std::function<bool(const std::string&)> fn);

  /// Replace a domain's trust policy after setup (failure-injection tests
  /// tighten max_introduction_depth per hop).
  void set_trust_policy(const std::string& domain, const TrustPolicy& policy);

  /// Retry budget and backoff for every inter-BB exchange (the hop-by-hop
  /// forward and the tunnel per-flow requests).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Build the user's signed request (RAR_U): res_spec + DN of the source
  /// BB + the CAS capability certificate + the user's delegation of it to
  /// the source BB (signed with the private proxy key, restricted
  /// "valid for RAR").
  Result<RarMessage> build_user_request(const UserCredentials& user,
                                        const bb::ResSpec& spec,
                                        SimTime at) const;

  struct Outcome {
    RarReply reply;
    /// Modeled end-to-end signalling latency (request submission to final
    /// answer back at the user).
    SimDuration latency = 0;
    std::size_t domains_contacted = 0;
    std::size_t messages = 0;
    /// Wire size of the RAR as received by the destination (grows per hop).
    std::size_t final_wire_bytes = 0;
    /// Request id keying this reservation's spans in the attached
    /// TraceRecorder (empty when none is attached).
    std::string trace_id;
  };

  /// Attach an engine-wide reference recorder: every reserve() then also
  /// records its whole trace tree (root reservation span, one hop span per
  /// broker, step spans for verify/policy/admission/sign_and_forward) in
  /// this one recorder, against virtual time. A test oracle for the
  /// per-domain recorders; ChainWorld attaches none. Pass nullptr to
  /// detach. The recorder must outlive the engine's use.
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    tracer_ = recorder;
  }

  /// Attach `domain`'s own recorder. Its spans mirror the engine-wide
  /// recorder's, but cross-domain linkage travels only in the unsigned
  /// transport envelope: downstream hops carry a `remote.parent`
  /// attribute instead of a local parent id, and
  /// obs::SpanCollector::ingest() stitches the per-domain exports back
  /// into one end-to-end tree. Pass nullptr to detach.
  void set_domain_trace_recorder(const std::string& domain,
                                 obs::TraceRecorder* recorder);

  /// Process a user request end to end. The request enters at the source
  /// BB named in its user layer.
  Result<Outcome> reserve(const RarMessage& user_msg, SimTime at);

  /// Release every per-domain reservation of a granted request.
  Status release_end_to_end(const RarReply& reply);

  /// Allocate a per-flow slice inside an established tunnel: only the two
  /// end domains are contacted, over the direct channel created at tunnel
  /// establishment (paper §1/§6.4).
  Result<Outcome> reserve_in_tunnel(const std::string& tunnel_id,
                                    const std::string& user_dn, double rate,
                                    TimeInterval interval, SimTime at);
  Status release_in_tunnel(const std::string& tunnel_id,
                           const std::string& sub_id);

  /// Scenario observer: called at each BB with the request as that broker
  /// verified it (drives the Fig. 7 walkthrough).
  using Observer =
      std::function<void(const std::string& domain, const VerifiedRar&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Established-tunnel inspection (for tests and benches).
  struct TunnelInfo {
    std::string id;
    std::string source_domain;
    std::string destination_domain;
    std::string user_dn;
    double aggregate_rate = 0;
    std::size_t active_flows = 0;
  };
  std::optional<TunnelInfo> tunnel_info(const std::string& id) const;

 private:
  struct Node {
    bb::BandwidthBroker* broker = nullptr;
    DomainOptions options;
    std::map<std::string, Session> sessions;  // peer domain -> channel half
    std::map<std::string, crypto::PublicKey> trusted_cas;  // community -> key
    std::map<std::string, std::function<bool(std::uint64_t)>>
        cas_revocation;  // community -> revocation oracle
    std::map<std::string, crypto::Certificate> local_users;  // DN -> cert
    /// Whether the broker proved, at add_domain(), that it holds the
    /// private key of its public key; without that proof no capability
    /// chain delegated to it validates.
    bool proves_key_possession = false;
    /// This domain's own trace recorder (nullptr = no local recording).
    obs::TraceRecorder* recorder = nullptr;
    /// Per-domain hop instruments, resolved at the first hop.
    obs::Counter* hops_processed = nullptr;
    obs::Histogram* hop_processing = nullptr;
  };

  struct TunnelRecord {
    std::string id;
    std::string source_domain;
    std::string destination_domain;
    std::string user_dn;
    bb::TunnelId source_handle;
    bb::TunnelId destination_handle;
    Session source_session;       // direct channel, source side
    Session destination_session;  // direct channel, destination side
    std::uint64_t next_sub = 1;
  };

  Node* find_node(const std::string& domain);
  const Node* find_node(const std::string& domain) const;

  /// Tracing state threaded through the recursive hop processing.
  struct TraceCtx {
    std::string trace_id;
    /// Root reservation span all hop spans parent under (0 = tracing off).
    obs::SpanId root = 0;
    /// Virtual time the RAR arrives at the current hop.
    SimTime arrival = 0;
    /// Wire trace context as received at this hop (invalid = no per-domain
    /// recording upstream). Downstream hops parent their local spans under
    /// wire.remote_parent_ref(); the engine re-sends it with hop_count+1.
    obs::TraceContext wire;
    /// Local parent for this hop's domain-recorder span: the source
    /// domain's own root (source hop only — downstream domains link
    /// remotely through `wire`).
    obs::SpanId local_parent = 0;
  };

  /// A request this hop admitted and signed for the next hop.
  struct Forward {
    std::string next;
    Bytes wire;
    /// This hop's tentative commitment, released if the rest of the path
    /// denies or stays dark.
    bb::ReservationId handle;
  };

  /// One hop's decision: its final reply (a denial names the denying
  /// `stage`), or a forward to the next hop.
  struct Decision {
    RarReply reply;
    const char* stage = nullptr;
    std::optional<Forward> forward;
  };

  /// The transport-free per-hop step (§6.1/§6.2): verify the request,
  /// decide policy (and, at the destination, cost), admit, then answer at
  /// the destination or delegate, augment and sign for the next hop. Walks
  /// `hop.cursor` through the stages' shares of the processing `budget`.
  Decision step(Node& node, const RarMessage& msg,
                const std::string& from_domain, SimTime at,
                SimDuration budget, HopSpan& hop);

  /// Recursive per-hop processing: step(), then send a forward through
  /// exchange() and apply the verdict. Returns the reply travelling
  /// upstream.
  RarReply process(const std::string& domain, const RarMessage& msg,
                   const std::string& from_domain, SimTime at,
                   Outcome& outcome, const TraceCtx& trace);

  /// Source side of a granted tunnel request: register the local tunnel
  /// end and open the direct channel to the destination. Leaves the
  /// end-to-end grant standing if either fails.
  void establish_tunnel(Node& node, const bb::ResSpec& spec, RarReply& reply,
                        Outcome& outcome, HopSpan& hop, SimTime at);

  /// Validate the capability chain carried by a verified RAR at `node`,
  /// given `chain`, the decoding of vr.capability_certs; returns the
  /// validated capabilities usable by the policy engine (empty if no chain,
  /// no trusted CAS for the community, or the broker failed its proof of
  /// key possession).
  std::vector<policy::ValidatedCapability> validate_capabilities(
      Node& node, const VerifiedRar& vr,
      const Result<std::vector<crypto::Certificate>>& chain,
      SimTime at) const;

  ChannelEndpoint endpoint_for(const Node& node,
                               const crypto::Certificate* pinned = nullptr) const;

  Transport* fabric_;
  Rng* rng_;
  RetryPolicy retry_policy_;
  std::map<std::string, Node> nodes_;
  std::map<std::string, TunnelRecord> tunnels_;
  std::uint64_t next_tunnel_ = 1;
  std::uint64_t next_request_ = 1;
  Observer observer_;
  obs::TraceRecorder* tracer_ = nullptr;
};

}  // namespace e2e::sig
