#include "sig/source_signalling.hpp"

#include <algorithm>
#include <optional>

#include "crypto/sha256.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "sig/context_builder.hpp"
#include "sig/trust.hpp"

namespace e2e::sig {

void SourceDomainEngine::add_domain(bb::BandwidthBroker& broker,
                                    DomainOptions options) {
  Node node;
  node.broker = &broker;
  node.options = std::move(options);
  nodes_.emplace(broker.domain(), std::move(node));
}

void SourceDomainEngine::register_user(const std::string& domain,
                                       const crypto::Certificate& user_cert) {
  const auto it = nodes_.find(domain);
  if (it != nodes_.end()) {
    it->second.known_users.emplace(user_cert.subject().to_string(),
                                   user_cert);
  }
}

void SourceDomainEngine::set_domain_trace_recorder(
    const std::string& domain, obs::TraceRecorder* recorder) {
  const auto it = nodes_.find(domain);
  if (it != nodes_.end()) {
    it->second.recorder = recorder;
  }
}

SourceDomainEngine::PerDomainResult SourceDomainEngine::reserve_at(
    const std::string& domain, const std::string& agent_domain,
    const bb::ResSpec& spec, const crypto::Certificate& user_cert,
    const crypto::PrivateKey& user_key, SimTime at, const TraceCtx& trace,
    std::size_t hop_index) {
  const auto it = nodes_.find(domain);
  if (it == nodes_.end()) {
    return {domain,
            Result<bb::ReservationId>(make_error(
                ErrorCode::kNoRoute, "no broker for domain " + domain)),
            fabric_->rtt(agent_domain, domain) + fabric_->processing_delay()};
  }
  Node& node = it->second;
  bb::BandwidthBroker& broker = *node.broker;

  // The agent signs a request addressed directly to this broker and
  // retransmits on silence. One delivered request stands for the whole
  // exchange (the broker's answer rides the same abstraction), so faults
  // are applied to the request leg: a drop/partition/crash or a corrupted
  // request the broker discards all leave the agent waiting for the armed
  // timeout, then retrying. A duplicated delivery is suppressed at the
  // broker by request id rather than admitted twice.
  const RarMessage msg = RarMessage::create_user_request(
      spec, broker.dn().to_string(), {}, user_key);
  const Bytes wire = msg.encode();
  const crypto::Digest request_digest = crypto::sha256(wire);
  std::uint64_t jitter_seed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    jitter_seed = (jitter_seed << 8) | request_digest[i];
  }

  auto& registry = obs::MetricsRegistry::global();
  // Each per-domain request carries the reservation's trace context in the
  // unsigned transport envelope; hop_count is this domain's path index.
  obs::TraceContext ctx_to_send = trace.wire;
  ctx_to_send.hop_count = static_cast<std::uint32_t>(hop_index);
  SimDuration latency = 0;
  SimTime arrival = at;
  std::optional<obs::TraceContext> rx_ctx;
  bool delivered = false;
  std::size_t attempts_used = 0;
  for (std::size_t attempt = 1; attempt <= retry_policy_.max_attempts;
       ++attempt) {
    attempts_used = attempt;
    if (attempt > 1) {
      registry.counter(obs::kSigRetransmitsTotal, {{"engine", "source"}})
          .increment();
    }
    Delivery sent = fabric_->transmit(agent_domain, domain, wire, &ctx_to_send);
    if (sent.delivered() && !sent.corrupted) {
      if (sent.duplicated) {
        // The broker sees the copy, recognizes the request id and drops it.
        registry
            .counter(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}})
            .increment();
      }
      arrival = at + latency + sent.latency;  // timeouts waited + this leg
      latency += sent.latency + fabric_->one_way(agent_domain, domain) +
                 fabric_->processing_delay();
      rx_ctx = sent.trace_context;
      delivered = true;
      break;
    }
    // Lost, blocked or corrupted-and-discarded: wait out the timeout.
    registry.counter(obs::kSigTimeoutsTotal, {{"engine", "source"}})
        .increment();
    latency += retry_timeout(retry_policy_, attempt, jitter_seed);
  }
  if (attempts_used > 1) {
    registry.histogram(obs::kSigRetryAttempts, {{"engine", "source"}})
        .observe(static_cast<double>(attempts_used));
  }
  if (!delivered) {
    return {domain,
            Result<bb::ReservationId>(make_error(
                ErrorCode::kTimeout,
                "no answer from " + domain + " after " +
                    std::to_string(attempts_used) + " attempts",
                domain)),
            latency};
  }
  const SimDuration rtt = latency;

  // Broker-side processing walks a cursor over the delivered request's
  // processing-delay budget: verify 2/5, policy 1/4, admission the rest.
  // Per-domain recording requires the wire context to have arrived sampled.
  const SimDuration processing = fabric_->processing_delay();
  const SimDuration verify_cost = processing * 2 / 5;
  const SimDuration policy_cost = processing / 4;
  SimTime cursor = arrival;
  obs::TraceRecorder* local =
      (node.recorder != nullptr && rx_ctx.has_value() && rx_ctx->valid() &&
       rx_ctx->sampled)
          ? node.recorder
          : nullptr;
  obs::SpanScope hop(tracer_, local, trace.trace_id, "hop", trace.root, 0,
                     &cursor);
  hop.annotate("domain", domain);
  if (local != nullptr) {
    hop.annotate_secondary("remote.parent", rx_ctx->remote_parent_ref());
    hop.annotate_secondary("hop.index", std::to_string(rx_ctx->hop_count));
  }
  // Audit records written inside a stage join that stage's span (the
  // per-domain one when recording locally, else the engine-wide one).
  auto stage_ref = [&](const obs::SpanScope& scope) {
    const obs::SpanId id =
        scope.secondary_id() != 0 ? scope.secondary_id() : scope.id();
    return obs::SpanRef{id != 0 ? trace.trace_id : std::string(), id, cursor};
  };

  obs::SpanScope verify_scope(tracer_, local, trace.trace_id, "verify",
                              hop.id(), hop.secondary_id(), &cursor);
  // Direct trust has no verification cache: every request re-checks the
  // user's signature, so (unlike the hop-by-hop path) no cache field.
  auto audit_verify = [&](const char* result, const std::string& subject) {
    obs::CurrentSpan audit_scope(stage_ref(verify_scope));
    obs::AuditLog::global().append(
        domain, obs::audit_kind::kVerify,
        {{"result", result}, {"subject", subject}});
  };
  auto deny_verify = [&](Error e) {
    const std::string text = e.to_text();
    audit_verify("fail", spec.user);
    cursor += verify_cost;
    verify_scope.fail(text);
    verify_scope.finish();
    hop.annotate("stage", "verify");
    hop.fail(text);
    hop.finish();
    return PerDomainResult{domain, Result<bb::ReservationId>(std::move(e)),
                           rtt};
  };

  // Direct trust: this broker must know the user.
  const auto user_it = node.known_users.find(spec.user);
  if (user_it == node.known_users.end()) {
    return deny_verify(make_error(
        ErrorCode::kAuthenticationFailed,
        "user " + spec.user + " unknown in " + domain +
            " (source-based signalling requires direct trust "
            "with every domain)",
        domain));
  }
  if (!(user_it->second == user_cert)) {
    return deny_verify(make_error(
        ErrorCode::kAuthenticationFailed,
        "presented certificate does not match the registered one", domain));
  }
  auto verified = verify_user_request(msg, user_it->second, broker.dn(), at);
  if (!verified.ok()) {
    return deny_verify(verified.error());
  }
  audit_verify("ok", verified->user_dn.to_string());
  cursor += verify_cost;
  verify_scope.finish();

  ContextInputs inputs;
  inputs.broker = &broker;
  inputs.spec = &spec;
  inputs.user_dn = verified->user_dn;
  inputs.at = at;
  inputs.group_server = node.options.group_server;
  inputs.relevant_groups = &node.options.relevant_groups;
  inputs.cpu_reservation_checker = node.options.cpu_reservation_checker;
  const policy::EvalContext ctx = build_policy_context(inputs);
  obs::SpanScope policy_scope(tracer_, local, trace.trace_id, "policy",
                              hop.id(), hop.secondary_id(), &cursor);
  const policy::PolicyReply reply = [&] {
    obs::CurrentSpan audit_scope(stage_ref(policy_scope));
    return broker.policy_server().decide(ctx);
  }();
  cursor += policy_cost;
  if (reply.decision != policy::Decision::kGrant) {
    policy_scope.fail(reply.reason);
    policy_scope.finish();
    hop.annotate("stage", "policy");
    hop.fail(reply.reason);
    hop.finish();
    return {domain,
            Result<bb::ReservationId>(make_error(ErrorCode::kPolicyDenied,
                                                 reply.reason, domain)),
            rtt};
  }
  policy_scope.finish();

  // Approach 1 has no upstream-SLA context: each reservation is a direct
  // request against the domain's own capacity.
  obs::SpanScope admission_scope(tracer_, local, trace.trace_id, "admission",
                                 hop.id(), hop.secondary_id(), &cursor);
  auto committed = [&] {
    obs::CurrentSpan audit_scope(stage_ref(admission_scope));
    return broker.commit(spec, /*from_domain=*/"");
  }();
  cursor = arrival + processing;
  if (!committed.ok()) {
    const std::string text = committed.error().to_text();
    admission_scope.fail(text);
    admission_scope.finish();
    hop.annotate("stage", "admission");
    hop.fail(text);
  } else {
    admission_scope.finish();
  }
  hop.finish();
  return {domain, std::move(committed), rtt};
}

Result<SourceDomainEngine::Outcome> SourceDomainEngine::reserve(
    const std::vector<std::string>& domain_path, const bb::ResSpec& spec,
    const crypto::Certificate& user_cert, const crypto::PrivateKey& user_key,
    Mode mode, SimTime at) {
  if (domain_path.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty domain path");
  }
  return reserve_subset(domain_path, domain_path.front(), spec, user_cert,
                        user_key, mode, at);
}

Result<SourceDomainEngine::Outcome> SourceDomainEngine::reserve_subset(
    const std::vector<std::string>& contacted, const std::string& agent_domain,
    const bb::ResSpec& spec, const crypto::Certificate& user_cert,
    const crypto::PrivateKey& user_key, Mode mode, SimTime at) {
  if (contacted.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "no domains to contact");
  }
  auto& registry = obs::MetricsRegistry::global();
  registry.counter(obs::kSigRarRequestsTotal, {{"engine", "source"}})
      .increment();
  Outcome outcome;
  outcome.trace_id = "src-rar-" + std::to_string(next_request_++);

  // Root reservation span: engine-wide recorder plus the agent domain's own
  // recorder. Every per-domain request parents under it (locally for the
  // engine-wide recorder, via the wire context for per-domain ones).
  const auto agent_it = nodes_.find(agent_domain);
  obs::TraceRecorder* agent_recorder =
      agent_it != nodes_.end() ? agent_it->second.recorder : nullptr;
  const SimTime submitted = at;
  obs::SpanScope root(tracer_, agent_recorder, outcome.trace_id,
                      "reservation", 0, 0, &submitted);
  root.annotate("user", spec.user);
  root.annotate("source", agent_domain);
  root.annotate("destination", spec.destination_domain);
  root.annotate("rate_bits_per_s", std::to_string(spec.rate_bits_per_s));
  TraceCtx trace;
  trace.trace_id = outcome.trace_id;
  trace.root = root.id();
  trace.wire = obs::TraceContext{outcome.trace_id, agent_domain,
                                 root.secondary_id(), 0, true};

  // Every Outcome-producing exit closes the root (tagging failures) and
  // records the source-engine outcome counter and latency histogram.
  auto finish = [&](Outcome o) {
    if (!o.reply.granted) {
      root.annotate("failure.domain", o.reply.denial.origin);
      root.annotate("failure.code", to_string(o.reply.denial.code));
      root.fail(o.reply.denial.message);
    }
    root.finish_at(at + o.latency);
    registry
        .counter(obs::kSigRarOutcomesTotal,
                 {{"engine", "source"},
                  {"outcome", o.reply.granted ? "granted" : "denied"}})
        .increment();
    registry.histogram(obs::kSigE2eLatencyUs, {{"engine", "source"}})
        .observe(static_cast<double>(o.latency));
    return o;
  };
  std::vector<PerDomainResult> results;
  results.reserve(contacted.size());

  // Sequential: one request at a time, latencies add up, stop at the
  // first denial. Parallel: every request leaves at `at`, so the answer
  // arrives when the slowest domain answers.
  for (std::size_t i = 0; i < contacted.size(); ++i) {
    results.push_back(reserve_at(contacted[i], agent_domain, spec, user_cert,
                                 user_key, at, trace, i));
    outcome.messages += 2;
    outcome.domains_contacted++;
    const PerDomainResult& last = results.back();
    if (mode == Mode::kParallel) {
      outcome.latency = std::max(outcome.latency, last.rtt);
    } else {
      outcome.latency += last.rtt;
      if (!last.outcome.ok()) break;
    }
  }

  const bool all_granted =
      results.size() == contacted.size() &&
      std::all_of(results.begin(), results.end(),
                  [](const PerDomainResult& r) { return r.outcome.ok(); });
  if (all_granted) {
    outcome.reply = RarReply::approve();
    for (const auto& r : results) {
      outcome.reply.handles.emplace_back(r.domain, r.outcome.value());
    }
    return finish(std::move(outcome));
  }

  // Roll back any granted parts, then report the first denial.
  for (const auto& r : results) {
    if (r.outcome.ok()) {
      const auto it = nodes_.find(r.domain);
      if (it != nodes_.end()) {
        (void)it->second.broker->release(r.outcome.value());
      }
    }
  }
  for (const auto& r : results) {
    if (!r.outcome.ok()) {
      outcome.reply = RarReply::deny(r.outcome.error());
      return finish(std::move(outcome));
    }
  }
  outcome.reply = RarReply::deny(
      make_error(ErrorCode::kInternal, "incomplete reservation results"));
  return finish(std::move(outcome));
}

Status SourceDomainEngine::release_end_to_end(const RarReply& reply) {
  if (!reply.granted) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot release a denied reservation");
  }
  for (const auto& [domain, handle] : reply.handles) {
    const auto it = nodes_.find(domain);
    if (it == nodes_.end()) continue;
    auto status = it->second.broker->release(handle);
    if (!status.ok()) return status;
  }
  return Status::ok_status();
}

}  // namespace e2e::sig
