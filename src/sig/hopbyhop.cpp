#include "sig/hopbyhop.hpp"

#include <cstdlib>

#include "common/logging.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "sig/context_builder.hpp"
#include "sig/delegation.hpp"
#include "sig/exchange.hpp"
#include "sig/hop_span.hpp"

namespace e2e::sig {

namespace {

obs::Labels engine_label(const char* engine) {
  return {{"engine", engine}};
}

/// kSigRarOutcomesTotal of one engine, resolved once per outcome. Each
/// series is registered the first time it counts.
template <const char* kEngine>
obs::Counter& rar_outcome(bool granted) {
  auto& registry = obs::MetricsRegistry::global();
  if (granted) {
    static obs::Counter& counter =
        registry.counter(obs::kSigRarOutcomesTotal,
                         {{"engine", kEngine}, {"outcome", "granted"}});
    return counter;
  }
  static obs::Counter& counter =
      registry.counter(obs::kSigRarOutcomesTotal,
                       {{"engine", kEngine}, {"outcome", "denied"}});
  return counter;
}
constexpr char kHopByHop[] = "hopbyhop";
constexpr char kTunnel[] = "tunnel";

/// Audit one end domain's admission decision on a tunnel flow.
void audit_flow_admission(const std::string& domain, const std::string& sub_id,
                          double rate, bool admitted) {
  obs::AuditLog::global().append(
      domain, obs::audit_kind::kAdmission,
      {{"result", admitted ? "admitted" : "rejected"},
       {"flow", sub_id},
       {"rate_bits_per_s", std::to_string(rate)}});
}

}  // namespace

void HopByHopEngine::add_domain(bb::BandwidthBroker& broker,
                                DomainOptions options) {
  Node node;
  node.broker = &broker;
  node.options = std::move(options);
  // Proof of possession (§6.5 checklist): the broker demonstrates knowledge
  // of the private key that capability chains delegated to it bind to. A
  // broker's keys never change, so it proves this once, here.
  Bytes nonce(16);
  Rng nonce_rng(0x706f7373);
  for (auto& b : nonce) b = static_cast<std::uint8_t>(nonce_rng.next_u64());
  node.proves_key_possession =
      check_possession(broker.public_key(), nonce, broker.sign(nonce));
  nodes_.emplace(broker.domain(), std::move(node));
}

HopByHopEngine::Node* HopByHopEngine::find_node(const std::string& domain) {
  const auto it = nodes_.find(domain);
  return it == nodes_.end() ? nullptr : &it->second;
}

const HopByHopEngine::Node* HopByHopEngine::find_node(
    const std::string& domain) const {
  const auto it = nodes_.find(domain);
  return it == nodes_.end() ? nullptr : &it->second;
}

ChannelEndpoint HopByHopEngine::endpoint_for(
    const Node& node, const crypto::Certificate* pinned) const {
  ChannelEndpoint ep;
  ep.certificate = node.broker->certificate();
  ep.private_key = node.broker->private_key();
  ep.trust_store = &node.broker->trust_store();
  if (pinned != nullptr) ep.pinned_peer = *pinned;
  return ep;
}

Status HopByHopEngine::connect_peers(const std::string& a,
                                     const std::string& b, SimTime at) {
  Node* na = find_node(a);
  Node* nb = find_node(b);
  if (na == nullptr || nb == nullptr) {
    return make_error(ErrorCode::kNotFound, "unknown domain in connect_peers");
  }
  auto pair = handshake(endpoint_for(*na), endpoint_for(*nb), at, *rng_);
  if (!pair.ok()) return pair.error();
  na->sessions[b] = std::move(pair->initiator);
  nb->sessions[a] = std::move(pair->responder);
  return Status::ok_status();
}

void HopByHopEngine::trust_community(const std::string& domain,
                                     const std::string& community,
                                     const crypto::PublicKey& cas_key) {
  if (Node* node = find_node(domain)) {
    node->trusted_cas.emplace(community, cas_key);
  }
}

void HopByHopEngine::set_community_revocation_check(
    const std::string& domain, const std::string& community,
    std::function<bool(std::uint64_t)> revoked) {
  if (Node* node = find_node(domain)) {
    node->cas_revocation[community] = std::move(revoked);
  }
}

void HopByHopEngine::register_local_user(
    const std::string& domain, const crypto::Certificate& user_cert) {
  if (Node* node = find_node(domain)) {
    // Re-registration replaces the stored certificate (renewal).
    node->local_users.insert_or_assign(user_cert.subject().to_string(),
                                       user_cert);
  }
}

void HopByHopEngine::set_cpu_reservation_checker(
    const std::string& domain, std::function<bool(const std::string&)> fn) {
  if (Node* node = find_node(domain)) {
    node->options.cpu_reservation_checker = std::move(fn);
  }
}

void HopByHopEngine::set_trust_policy(const std::string& domain,
                                      const TrustPolicy& policy) {
  if (Node* node = find_node(domain)) {
    node->options.trust_policy = policy;
  }
}

void HopByHopEngine::set_domain_trace_recorder(const std::string& domain,
                                               obs::TraceRecorder* recorder) {
  if (Node* node = find_node(domain)) {
    node->recorder = recorder;
  }
}

Result<RarMessage> HopByHopEngine::build_user_request(
    const UserCredentials& user, const bb::ResSpec& spec, SimTime at) const {
  const Node* source = find_node(spec.source_domain);
  if (source == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "unknown source domain " + spec.source_domain);
  }
  std::vector<Bytes> capability_certs;
  capability_certs.reserve(2);  // root capability + one delegation layer
  if (user.capability_certificate.has_value()) {
    if (!user.proxy_key.has_value()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "capability certificate without proxy key");
    }
    // Fig. 7: the user delegates the CAS capability to BB_A, restricted to
    // reservations in the destination domain, signed with the private
    // proxy key. The source BB's real public key becomes the subject key.
    const std::string restriction =
        "Valid for Reservation in " + spec.destination_domain;
    const crypto::Certificate delegated = delegate_capability(
        *user.capability_certificate, *user.proxy_key,
        source->broker->dn(), source->broker->public_key(), restriction,
        user.capability_certificate->validity(),
        /*serial=*/static_cast<std::uint64_t>(at) + 1);
    capability_certs.push_back(user.capability_certificate->encode());
    capability_certs.push_back(delegated.encode());
  }
  return RarMessage::create_user_request(spec,
                                         source->broker->dn().to_string(),
                                         std::move(capability_certs),
                                         user.identity_key);
}

std::vector<policy::ValidatedCapability>
HopByHopEngine::validate_capabilities(
    Node& node, const VerifiedRar& vr,
    const Result<std::vector<crypto::Certificate>>& chain, SimTime at) const {
  std::vector<policy::ValidatedCapability> out;
  if (vr.capability_certs.empty() || !node.proves_key_possession) return out;
  out.reserve(1);  // one validated chain per RAR
  if (!chain.ok()) {
    log::warn("sig[" + node.broker->domain() + "]")
        << "capability chain undecodable: " << chain.error().to_text();
    return out;
  }
  const std::string community =
      chain->front().extension_value(crypto::kExtCommunity).value_or("");
  const auto cas_it = node.trusted_cas.find(community);
  if (cas_it == node.trusted_cas.end()) return out;  // no trusted CAS
  // CRL check on the CAS-issued root capability certificate.
  const auto revocation_it = node.cas_revocation.find(community);
  if (revocation_it != node.cas_revocation.end() &&
      revocation_it->second(chain->front().serial())) {
    log::warn("sig[" + node.broker->domain() + "]")
        << "capability certificate serial " << chain->front().serial()
        << " revoked by " << community << " CAS";
    return out;
  }
  const std::string expected_rar =
      "Valid for Reservation in " + vr.res_spec.destination_domain;
  auto result = verify_capability_chain(*chain, cas_it->second,
                                        node.broker->public_key(),
                                        expected_rar, at);
  if (!result.ok()) {
    log::warn("sig[" + node.broker->domain() + "]")
        << "capability chain rejected: " << result.error().to_text();
    return out;
  }
  out.push_back(result->to_validated());
  return out;
}

Result<HopByHopEngine::Outcome> HopByHopEngine::reserve(
    const RarMessage& user_msg, SimTime at) {
  const std::string& source_domain =
      user_msg.user_layer().res_spec.source_domain;
  Node* source = find_node(source_domain);
  if (source == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "unknown source domain " + source_domain);
  }
  if (user_msg.user_layer().source_bb_dn !=
      source->broker->dn().to_string()) {
    return make_error(ErrorCode::kAuthenticationFailed,
                      "request addresses " + user_msg.user_layer().source_bb_dn +
                          " but the source domain's broker is " +
                          source->broker->dn().to_string());
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& requests =
      registry.counter(obs::kSigRarRequestsTotal, engine_label(kHopByHop));
  requests.increment();

  Outcome outcome;
  outcome.trace_id = "rar-" + std::to_string(next_request_++);
  // The root lives in the source domain's own recorder, whose span id
  // seeds the wire trace context (and in the reference recorder, when a
  // test attached one).
  const SimTime submitted = at;
  obs::SpanScope root(tracer_, source->recorder, outcome.trace_id,
                      "reservation", 0, 0, &submitted);
  {
    const bb::ResSpec& spec = user_msg.user_layer().res_spec;
    root.annotate("user", spec.user);
    root.annotate("source", spec.source_domain);
    root.annotate("destination", spec.destination_domain);
    root.annotate("rate_bits_per_s", std::to_string(spec.rate_bits_per_s));
  }

  // User <-> source BB exchange (request + final answer).
  outcome.latency += 2 * source->options.user_link_latency;
  fabric_->record_message("user", source_domain, user_msg.wire_size());
  outcome.messages++;

  TraceCtx trace;
  trace.trace_id = outcome.trace_id;
  trace.root = root.id();
  trace.arrival = at + source->options.user_link_latency;
  trace.local_parent = root.secondary_id();
  trace.wire = obs::TraceContext{outcome.trace_id, source_domain,
                                 root.secondary_id(), 0, true};
  outcome.reply = process(source_domain, user_msg, /*from_domain=*/"", at,
                          outcome, trace);
  fabric_->record_message(source_domain, "user", 64);
  outcome.messages++;

  if (!outcome.reply.granted) {
    root.annotate("failure.domain", outcome.reply.denial.origin);
    root.annotate("failure.code", to_string(outcome.reply.denial.code));
    root.fail(outcome.reply.denial.message);
  }
  root.finish_at(at + outcome.latency);
  rar_outcome<kHopByHop>(outcome.reply.granted).increment();
  static obs::Histogram& latency =
      registry.histogram(obs::kSigE2eLatencyUs, engine_label(kHopByHop));
  latency.observe(static_cast<double>(outcome.latency));
  return outcome;
}

RarReply HopByHopEngine::process(const std::string& domain,
                                 const RarMessage& msg,
                                 const std::string& from_domain, SimTime at,
                                 Outcome& outcome, const TraceCtx& trace) {
  Node* node = find_node(domain);
  if (node == nullptr) {
    return RarReply::deny(make_error(ErrorCode::kNoRoute,
                                     "no broker for domain " + domain));
  }
  outcome.domains_contacted++;
  outcome.latency += fabric_->processing_delay();

  auto& registry = obs::MetricsRegistry::global();
  if (node->hops_processed == nullptr) {
    node->hops_processed =
        &registry.counter(obs::kSigHopsProcessedTotal, {{"domain", domain}});
  }
  node->hops_processed->increment();

  HopSpan hop(tracer_, node->recorder, trace.trace_id, trace.root,
              trace.local_parent, trace.wire, domain, trace.arrival);

  // Every exit path closes the hop span and records the hop metrics;
  // `stage` names the pipeline stage that denied (nullptr on success or
  // when the denial came from a downstream hop).
  auto finish_hop = [&](RarReply reply, const char* stage) {
    if (node->hop_processing == nullptr) {
      node->hop_processing =
          &registry.histogram(obs::kSigHopProcessingUs, {{"domain", domain}});
    }
    node->hop_processing->observe(
        static_cast<double>(hop.cursor - trace.arrival));
    if (stage != nullptr) {
      registry
          .counter(obs::kSigHopDenialsTotal,
                   {{"domain", domain}, {"stage", stage}})
          .increment();
      hop.span.annotate("stage", stage);
      hop.span.fail(reply.denial.to_text());
    }
    hop.span.finish();
    return reply;
  };

  Decision decision = step(*node, msg, from_domain, at,
                           fabric_->processing_delay(), hop);
  if (!decision.forward.has_value()) {
    return finish_hop(std::move(decision.reply), decision.stage);
  }
  const Forward& forward = *decision.forward;
  Node& next_node = *find_node(forward.next);
  outcome.final_wire_bytes = forward.wire.size();

  // The trace context rides the unsigned envelope next to the sealed
  // record, one hop deeper than it arrived here.
  obs::TraceContext next_ctx = trace.wire;
  next_ctx.hop_count++;
  ExchangeResult done = exchange(
      *fabric_, retry_policy_,
      Exchange{"hopbyhop", domain, forward.next, forward.wire, &next_ctx,
               &node->sessions.at(forward.next),
               &next_node.sessions.at(domain), ReplyLeg::kSealed},
      [&](const Arrival& arrival) {
        auto decoded = RarMessage::decode(arrival.payload);
        if (!decoded.ok()) return RarReply::deny(decoded.error());
        TraceCtx next_trace;
        next_trace.trace_id = trace.trace_id;
        next_trace.root = trace.root;
        next_trace.arrival = hop.cursor + arrival.latency;
        if (arrival.trace_context.has_value()) {
          next_trace.wire = *arrival.trace_context;
        }
        return process(forward.next, *decoded, domain, at, outcome,
                       next_trace);
      });
  outcome.latency += done.latency;
  outcome.messages += done.messages;
  if (done.attempts > 1) {
    hop.span.annotate("retry.attempts", std::to_string(done.attempts));
  }

  bb::BandwidthBroker& broker = *node->broker;
  if (!done.completed) {
    // The downstream domain stayed dark past the retry budget. If it did
    // grant, model that grant expiring unconfirmed down the chain; then
    // release the local tentative commitment.
    if (done.reply.has_value() && done.reply->granted) {
      for (const auto& [d, handle] : done.reply->handles) {
        if (Node* owner = find_node(d)) {
          (void)owner->broker->release(handle);
          registry.counter(obs::kSigReleasedOnFailureTotal, {{"domain", d}})
              .increment();
        }
      }
    }
    (void)broker.release(forward.handle);
    registry
        .counter(obs::kSigReleasedOnFailureTotal, {{"domain", domain}})
        .increment();
    return finish_hop(
        RarReply::deny(no_answer(forward.next, done.attempts, domain)),
        "forward");
  }
  RarReply downstream = std::move(*done.reply);
  if (!downstream.granted) {
    // Denial propagates upstream; roll back our tentative commitment. The
    // failure is attributed to the hop that produced it, so this hop's span
    // closes clean (stage = nullptr).
    (void)broker.release(forward.handle);
    return finish_hop(std::move(downstream), nullptr);
  }
  downstream.handles.insert(downstream.handles.begin(),
                            {domain, forward.handle});
  const bb::ResSpec& spec = msg.user_layer().res_spec;
  if (spec.is_tunnel && from_domain.empty()) {
    establish_tunnel(*node, spec, downstream, outcome, hop, at);
  }
  return finish_hop(std::move(downstream), nullptr);
}

HopByHopEngine::Decision HopByHopEngine::step(Node& node,
                                              const RarMessage& msg,
                                              const std::string& from_domain,
                                              SimTime at, SimDuration budget,
                                              HopSpan& hop) {
  bb::BandwidthBroker& broker = *node.broker;
  const std::string& domain = broker.domain();
  auto& registry = obs::MetricsRegistry::global();
  auto deny = [](Error e, const char* stage) {
    return Decision{RarReply::deny(std::move(e)), stage, std::nullopt};
  };

  // Per-stage virtual-time model: the hop's processing budget
  // (Transport::processing_delay) is apportioned across the pipeline
  // stages so trace spans carry non-zero deterministic durations that sum
  // to exactly the budget the latency model already charges.
  const SimDuration verify_cost = budget * 2 / 5;
  const SimDuration policy_cost = budget / 4;
  const SimDuration admission_cost = budget / 5;
  const SimDuration forward_cost =
      budget - verify_cost - policy_cost - admission_cost;
  const bool at_source = from_domain.empty();

  // 1. Verify the request: transitive-trust verification for inter-BB
  //    messages, direct user authentication at the source.
  obs::SpanScope verify_scope = hop.stage("verify");
  static obs::Counter& verify_cache_hits = registry.counter(
      obs::kCryptoVerifyCacheLookupsTotal, {{"result", "hit"}});
  const std::uint64_t verify_cache_hits_before = verify_cache_hits.value();
  Result<VerifiedRar> verified = [&]() -> Result<VerifiedRar> {
    if (at_source) {
      const auto user_it =
          node.local_users.find(msg.user_layer().res_spec.user);
      if (user_it == node.local_users.end()) {
        return make_error(
            ErrorCode::kAuthenticationFailed,
            "user " + msg.user_layer().res_spec.user +
                " not known in source domain (no direct trust relationship)",
            domain);
      }
      return verify_user_request(msg, user_it->second, broker.dn(), at);
    }
    const auto session_it = node.sessions.find(from_domain);
    if (session_it == node.sessions.end()) {
      return make_error(ErrorCode::kUnavailable,
                        "no authenticated channel with " + from_domain,
                        domain);
    }
    return verify_rar(msg, session_it->second.peer_certificate(),
                      broker.dn(), node.options.trust_policy, at);
  }();
  // Signature-verify verdict, with whether the verification cache served
  // it (counter delta — the engine is single-threaded per request).
  const bool verify_cache_hit =
      verify_cache_hits.value() > verify_cache_hits_before;
  {
    obs::CurrentSpan audit_scope(hop.ref(verify_scope));
    obs::AuditLog::global().append(
        domain, obs::audit_kind::kVerify,
        {{"result", verified.ok() ? "ok" : "fail"},
         {"subject",
          at_source ? msg.user_layer().res_spec.user : from_domain},
         {"cache", verify_cache_hit ? "hit" : "miss"}});
  }
  hop.cursor += verify_cost;
  if (!verified.ok()) {
    verify_scope.fail(verified.error().to_text());
  }
  verify_scope.finish();
  if (!verified.ok()) {
    Error e = verified.error();
    if (e.origin.empty()) e.origin = domain;
    return deny(std::move(e), "verify");
  }
  const VerifiedRar& vr = *verified;
  if (observer_) observer_(domain, vr);

  // 2. Policy decision via this domain's policy server (the span also
  //    covers capability-chain validation and, at the destination, cost
  //    negotiation — everything feeding the decision).
  obs::SpanScope policy_scope = hop.stage("policy");
  // The capability chain, decoded once for validation here and delegation
  // in stage 4 (no certificates decode to an empty chain).
  const auto chain = decode_chain(vr.capability_certs);
  ContextInputs inputs;
  inputs.broker = &broker;
  inputs.spec = &vr.res_spec;
  inputs.user_dn = vr.user_dn;
  inputs.at = at;
  inputs.augmentations = &vr.augmentations;
  inputs.group_server = node.options.group_server;
  inputs.relevant_groups = &node.options.relevant_groups;
  inputs.capabilities = validate_capabilities(node, vr, chain, at);
  inputs.cpu_reservation_checker = node.options.cpu_reservation_checker;
  const policy::EvalContext ctx = build_policy_context(inputs);
  const policy::PolicyReply policy_reply = [&] {
    obs::CurrentSpan audit_scope(hop.ref(policy_scope));
    return broker.policy_server().decide(ctx);
  }();
  hop.cursor += policy_cost;
  if (policy_reply.decision != policy::Decision::kGrant) {
    policy_scope.fail(policy_reply.reason);
    policy_scope.finish();
    return deny(
        make_error(ErrorCode::kPolicyDenied, policy_reply.reason, domain),
        "policy");
  }

  const bool is_destination =
      vr.res_spec.destination_domain == domain;

  // 2b. Cost negotiation (§6.1): the user's request carries "a cost that
  // the user is willing to accept"; domains attach cost offers as signed
  // augmentations. The destination totals them and refuses when the chain
  // is more expensive than the user authorized.
  if (is_destination && vr.res_spec.max_cost > 0) {
    double total_cost = 0;
    auto add_offers = [&total_cost](const std::vector<policy::Augmentation>&
                                        augmentations) {
      for (const auto& aug : augmentations) {
        if (aug.name == "Cost.offer") {
          char* end = nullptr;
          const double v = std::strtod(aug.value.c_str(), &end);
          if (end != aug.value.c_str()) total_cost += v;
        }
      }
    };
    add_offers(vr.augmentations);
    add_offers(policy_reply.augmentations);
    if (total_cost > vr.res_spec.max_cost) {
      Error e = make_error(ErrorCode::kPolicyDenied,
                           "accumulated cost " + std::to_string(total_cost) +
                               " exceeds the user's limit " +
                               std::to_string(vr.res_spec.max_cost),
                           domain);
      policy_scope.fail(e.message);
      policy_scope.finish();
      return deny(std::move(e), "cost");
    }
  }
  policy_scope.finish();

  // 3. Admission control (SLA conformance for transit traffic).
  obs::SpanScope admission_scope = hop.stage("admission");
  auto handle = [&] {
    obs::CurrentSpan audit_scope(hop.ref(admission_scope));
    return broker.commit(vr.res_spec, from_domain);
  }();
  hop.cursor += admission_cost;
  if (!handle.ok()) {
    admission_scope.fail(handle.error().to_text());
    admission_scope.finish();
    return deny(handle.error(), "admission");
  }
  admission_scope.finish();
  if (is_destination) {
    RarReply reply = RarReply::approve();
    reply.handles.emplace_back(domain, *handle);
    if (vr.res_spec.is_tunnel) {
      auto tunnel_handle = broker.register_tunnel(vr.res_spec);
      if (!tunnel_handle.ok()) {
        (void)broker.release(*handle);
        return deny(tunnel_handle.error(), "admission");
      }
      bb::Tunnel* tunnel = broker.find_tunnel(*tunnel_handle);
      if (tunnel == nullptr) {
        (void)broker.release(*handle);
        return deny(make_error(ErrorCode::kInternal,
                               "registered tunnel not found", domain),
                    "admission");
      }
      auto authorized = tunnel->authorize(vr.res_spec.user);
      if (!authorized.ok()) {
        // The authorization could not be made durable: deny rather than
        // ack a tunnel whose recovered twin would reject its only user.
        (void)broker.release(*handle);
        return deny(authorized.error(), "admission");
      }
      reply.tunnel_id = *tunnel_handle;
    }
    return Decision{std::move(reply), nullptr, std::nullopt};
  }

  // 4. Forward downstream: delegate, append a signed layer, encode.
  obs::SpanScope forward_scope = hop.stage("sign_and_forward");
  // Local forwarding failure: roll back the tentative commitment, close the
  // forward span and deny at this hop.
  auto deny_forward = [&](Error e) {
    (void)broker.release(*handle);
    hop.cursor += forward_cost;
    forward_scope.fail(e.to_text());
    forward_scope.finish();
    return deny(std::move(e), "forward");
  };

  const auto next = broker.next_hop(vr.res_spec.destination_domain);
  if (!next.has_value()) {
    return deny_forward(make_error(
        ErrorCode::kNoRoute,
        "no next hop toward " + vr.res_spec.destination_domain, domain));
  }
  Node* next_node = find_node(*next);
  if (next_node == nullptr || !node.sessions.contains(*next)) {
    return deny_forward(make_error(ErrorCode::kUnavailable,
                                   "peer " + *next + " unreachable",
                                   domain));
  }

  BrokerLayer layer;
  layer.upstream_certificate =
      at_source ? vr.user_certificate.encode()
                : node.sessions.at(from_domain).peer_certificate().encode();
  layer.downstream_dn = next_node->broker->dn().to_string();
  layer.augmentations = policy_reply.augmentations;
  layer.signer_dn = broker.dn().to_string();
  // §6.5: delegate the capability chain to the next broker under our own
  // signature, preserving the RAR restriction.
  if (chain.ok() && !chain->empty()) {
    const crypto::Certificate delegated =
        broker.sign_certificate(build_delegation(
            chain->back(), next_node->broker->dn(),
            next_node->broker->public_key(), /*rar_restriction=*/"",
            chain->back().validity(), broker.next_certificate_serial()));
    layer.capability_certs.push_back(delegated.encode());
    obs::CurrentSpan audit_scope(hop.ref(forward_scope));
    obs::AuditLog::global().append(
        domain, obs::audit_kind::kDelegation,
        {{"issuer", broker.dn().to_string()},
         {"subject", next_node->broker->dn().to_string()},
         {"serial", std::to_string(delegated.serial())}});
  }
  Forward forward{*next,
                  msg.encode_with_layer(std::move(layer),
                                        [&broker](BytesView tbs) {
                                          return broker.sign(tbs);
                                        }),
                  *handle};
  hop.cursor += forward_cost;
  forward_scope.finish();
  return Decision{RarReply(), nullptr, std::move(forward)};
}

void HopByHopEngine::establish_tunnel(Node& node, const bb::ResSpec& spec,
                                      RarReply& reply, Outcome& outcome,
                                      HopSpan& hop, SimTime at) {
  // Once the end-to-end aggregate is approved, the source and destination
  // set up the direct signalling channel. The destination pins the source
  // BB's certificate, which it learned through the introduction chain
  // (path tracing).
  bb::BandwidthBroker& broker = *node.broker;
  const std::string& domain = broker.domain();
  Node* dest = find_node(spec.destination_domain);
  auto source_tunnel = broker.register_tunnel(spec);
  // An authorization that cannot be made durable skips the direct channel
  // setup, like a failed registration: the end-to-end grant stands, but
  // this source end offers no tunnel the recovered broker would not
  // honour.
  bb::Tunnel* source_end =
      source_tunnel.ok() ? broker.find_tunnel(*source_tunnel) : nullptr;
  if (source_end == nullptr || dest == nullptr ||
      !source_end->authorize(spec.user).ok()) {
    return;
  }
  // Both ends pin the peer certificate they learned through the signalling
  // exchange (source cert introduced downstream by the layer chain;
  // destination cert introduced upstream with the signed approval).
  const crypto::Certificate source_cert = broker.certificate();
  const crypto::Certificate dest_cert = dest->broker->certificate();
  const std::string& dest_domain = dest->broker->domain();
  obs::SpanScope handshake_scope = hop.stage("channel_handshake");
  handshake_scope.annotate("peer", dest_domain);
  auto direct = [&] {
    obs::CurrentSpan audit_scope(hop.ref(handshake_scope));
    return handshake(endpoint_for(node, &dest_cert),
                     endpoint_for(*dest, &source_cert), at, *rng_);
  }();
  outcome.latency += fabric_->rtt(domain, dest_domain);
  outcome.messages += 2;  // handshake round trip
  fabric_->record_message(domain, dest_domain, 512);
  fabric_->record_message(dest_domain, domain, 512);
  if (!direct.ok()) {
    handshake_scope.fail(direct.error().to_text());
  }
  handshake_scope.finish_at(hop.cursor + fabric_->rtt(domain, dest_domain));
  if (!direct.ok()) {
    log::warn("sig[" + domain + "]")
        << "direct tunnel channel failed: " << direct.error().to_text();
    return;
  }
  TunnelRecord rec;
  rec.id = "tunnel-" + std::to_string(next_tunnel_++);
  rec.source_domain = domain;
  rec.destination_domain = spec.destination_domain;
  rec.user_dn = spec.user;
  rec.source_handle = *source_tunnel;
  rec.destination_handle = reply.tunnel_id;
  rec.source_session = std::move(direct->initiator);
  rec.destination_session = std::move(direct->responder);
  reply.tunnel_id = rec.id;
  tunnels_.emplace(rec.id, std::move(rec));
}

Status HopByHopEngine::release_end_to_end(const RarReply& reply) {
  if (!reply.granted) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot release a denied reservation");
  }
  for (const auto& [domain, handle] : reply.handles) {
    Node* node = find_node(domain);
    if (node == nullptr) continue;
    auto status = node->broker->release(handle);
    if (!status.ok()) return status;
  }
  return Status::ok_status();
}

Result<HopByHopEngine::Outcome> HopByHopEngine::reserve_in_tunnel(
    const std::string& tunnel_id, const std::string& user_dn, double rate,
    TimeInterval interval, SimTime at) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& requests =
      registry.counter(obs::kSigRarRequestsTotal, engine_label(kTunnel));
  requests.increment();
  const auto it = tunnels_.find(tunnel_id);
  if (it == tunnels_.end()) {
    return make_error(ErrorCode::kNotFound, "unknown tunnel " + tunnel_id);
  }
  TunnelRecord& rec = it->second;
  Node* src = find_node(rec.source_domain);
  Node* dst = find_node(rec.destination_domain);
  if (src == nullptr || dst == nullptr) {
    return make_error(ErrorCode::kInternal, "tunnel endpoints missing");
  }
  bb::Tunnel* src_tunnel = src->broker->find_tunnel(rec.source_handle);
  bb::Tunnel* dst_tunnel = dst->broker->find_tunnel(rec.destination_handle);
  if (src_tunnel == nullptr || dst_tunnel == nullptr) {
    return make_error(ErrorCode::kInternal, "tunnel state missing");
  }

  Outcome outcome;
  outcome.trace_id = "rar-" + std::to_string(next_request_++);
  const std::string sub_id =
      tunnel_id + "-flow-" + std::to_string(rec.next_sub++);

  // A per-flow sub-reservation traces like any RAR: root at the user's
  // submission, one hop per contacted end domain. The destination recorder
  // links through the wire context on the direct channel (hop index 1: the
  // aggregate's intermediate hops are exactly what this path skips), and a
  // retransmitted attempt reuses the same trace id.
  const SimTime submitted = at;
  obs::SpanScope root(tracer_, src->recorder, outcome.trace_id,
                      "reservation", 0, 0, &submitted);
  root.annotate("user", user_dn);
  root.annotate("source", rec.source_domain);
  root.annotate("destination", rec.destination_domain);
  root.annotate("rate_bits_per_s", std::to_string(rate));
  root.annotate("tunnel", tunnel_id);
  obs::TraceContext wire_ctx{outcome.trace_id, rec.source_domain,
                             root.secondary_id(), 1, true};

  // Every exit path that produced an Outcome closes the root (tagging
  // failures) and records the tunnel-engine outcome counter and latency
  // histogram.
  auto finish = [&](Outcome o) {
    if (!o.reply.granted) {
      root.annotate("failure.domain", o.reply.denial.origin);
      root.annotate("failure.code", to_string(o.reply.denial.code));
      root.fail(o.reply.denial.message);
    }
    root.finish_at(at + o.latency);
    rar_outcome<kTunnel>(o.reply.granted).increment();
    static obs::Histogram& latency =
        registry.histogram(obs::kSigE2eLatencyUs, engine_label(kTunnel));
    latency.observe(static_cast<double>(o.latency));
    return o;
  };

  // Each end domain admits the flow against its half of the tunnel; a
  // refusal fails the admission stage and the hop.
  auto admit = [&](HopSpan& hop, bb::Tunnel& half,
                   const std::string& domain) -> Status {
    obs::SpanScope admission = hop.stage("admission");
    Status admitted = [&] {
      obs::CurrentSpan audit_scope(hop.ref(admission));
      Status result = half.allocate(sub_id, user_dn, interval, rate);
      audit_flow_admission(domain, sub_id, rate, result.ok());
      return result;
    }();
    hop.cursor += fabric_->processing_delay();
    if (admitted.ok()) return admitted;
    Error e = admitted.error();
    e.origin = domain;
    admission.fail(e.to_text());
    hop.span.annotate("stage", "admission");
    hop.span.fail(e.to_text());
    return e;
  };

  // User contacts the source-domain BB.
  outcome.latency += 2 * src->options.user_link_latency;
  outcome.latency += fabric_->processing_delay();
  fabric_->record_message("user", rec.source_domain, 128);
  outcome.messages++;
  outcome.domains_contacted++;
  HopSpan src_hop(tracer_, src->recorder, outcome.trace_id, root.id(),
                  root.secondary_id(), wire_ctx, rec.source_domain,
                  at + src->options.user_link_latency);
  if (Status admitted = admit(src_hop, *src_tunnel, rec.source_domain);
      !admitted.ok()) {
    src_hop.span.finish();
    outcome.reply = RarReply::deny(admitted.error());
    return finish(std::move(outcome));
  }

  // Source BB contacts the destination BB directly over the pinned
  // channel — intermediate domains are not involved. The destination
  // evaluates the flow once per exchange, so a retransmitted tunnel-alloc
  // (whose first reply was lost) never debits its half twice.
  outcome.latency += fabric_->processing_delay();
  outcome.domains_contacted++;
  const Bytes wire = to_bytes("tunnel-alloc:" + sub_id);
  ExchangeResult done = exchange(
      *fabric_, retry_policy_,
      Exchange{"tunnel", rec.source_domain, rec.destination_domain, wire,
               &wire_ctx, &rec.source_session, &rec.destination_session,
               ReplyLeg::kAck},
      [&](const Arrival& arrival) {
        HopSpan dst_hop(tracer_, dst->recorder, outcome.trace_id, root.id(),
                        0, arrival.trace_context.value_or(obs::TraceContext{}),
                        rec.destination_domain,
                        src_hop.cursor + arrival.waited + arrival.latency);
        Status admitted = admit(dst_hop, *dst_tunnel, rec.destination_domain);
        return admitted.ok() ? RarReply::approve()
                             : RarReply::deny(admitted.error());
      });
  outcome.latency += done.latency;
  outcome.messages += done.messages;
  if (done.attempts > 1) {
    src_hop.span.annotate("retry.attempts", std::to_string(done.attempts));
  }
  if (!done.completed) {
    // Destination stayed dark: roll back the source half and model the
    // destination expiring a grant it made but never got confirmed.
    (void)src_tunnel->release(sub_id);
    registry
        .counter(obs::kSigReleasedOnFailureTotal,
                 {{"domain", rec.source_domain}})
        .increment();
    if (done.reply.has_value() && done.reply->granted) {
      (void)dst_tunnel->release(sub_id);
      registry
          .counter(obs::kSigReleasedOnFailureTotal,
                   {{"domain", rec.destination_domain}})
          .increment();
    }
    outcome.reply = RarReply::deny(
        no_answer(rec.destination_domain, done.attempts, rec.source_domain));
    src_hop.span.annotate("stage", "forward");
    src_hop.span.fail(outcome.reply.denial.to_text());
    src_hop.span.finish();
    return finish(std::move(outcome));
  }
  src_hop.span.finish();
  if (!done.reply->granted) {
    (void)src_tunnel->release(sub_id);
    outcome.reply = std::move(*done.reply);
    return finish(std::move(outcome));
  }

  outcome.reply = RarReply::approve();
  outcome.reply.handles.emplace_back(rec.source_domain, sub_id);
  outcome.reply.handles.emplace_back(rec.destination_domain, sub_id);
  outcome.reply.tunnel_id = tunnel_id;
  return finish(std::move(outcome));
}

Status HopByHopEngine::release_in_tunnel(const std::string& tunnel_id,
                                         const std::string& sub_id) {
  const auto it = tunnels_.find(tunnel_id);
  if (it == tunnels_.end()) {
    return make_error(ErrorCode::kNotFound, "unknown tunnel " + tunnel_id);
  }
  TunnelRecord& rec = it->second;
  Node* src = find_node(rec.source_domain);
  Node* dst = find_node(rec.destination_domain);
  bb::Tunnel* src_tunnel =
      src != nullptr ? src->broker->find_tunnel(rec.source_handle) : nullptr;
  bb::Tunnel* dst_tunnel =
      dst != nullptr ? dst->broker->find_tunnel(rec.destination_handle)
                     : nullptr;
  if (src_tunnel == nullptr || dst_tunnel == nullptr) {
    return make_error(ErrorCode::kInternal, "tunnel state missing");
  }
  auto s1 = src_tunnel->release(sub_id);
  auto s2 = dst_tunnel->release(sub_id);
  if (!s1.ok()) return s1;
  return s2;
}

std::optional<HopByHopEngine::TunnelInfo> HopByHopEngine::tunnel_info(
    const std::string& id) const {
  const auto it = tunnels_.find(id);
  if (it == tunnels_.end()) return std::nullopt;
  const TunnelRecord& rec = it->second;
  TunnelInfo info;
  info.id = rec.id;
  info.source_domain = rec.source_domain;
  info.destination_domain = rec.destination_domain;
  info.user_dn = rec.user_dn;
  const Node* src = find_node(rec.source_domain);
  if (src != nullptr) {
    if (const bb::Tunnel* t = src->broker->find_tunnel(rec.source_handle)) {
      info.aggregate_rate = t->aggregate_rate();
      info.active_flows = t->active_allocations();
    }
  }
  return info;
}

}  // namespace e2e::sig
