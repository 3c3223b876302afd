#include "sig/source_signalling.hpp"

#include <algorithm>

#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "sig/context_builder.hpp"
#include "sig/exchange.hpp"
#include "sig/hop_span.hpp"
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
    return {RarReply::deny(make_error(ErrorCode::kNoRoute,
                                      "no broker for domain " + domain)),
            fabric_->rtt(agent_domain, domain) + fabric_->processing_delay()};
  }
  Node& node = it->second;

  // The agent signs a request addressed directly to this broker and
  // retransmits on silence. One delivered request stands for the whole
  // exchange (the broker's answer rides the same abstraction), so faults
  // are applied to the request leg: a drop/partition/crash or a corrupted
  // request the broker discards all leave the agent waiting for the armed
  // timeout, then retrying.
  const RarMessage msg = RarMessage::create_user_request(
      spec, node.broker->dn().to_string(), {}, user_key);
  const Bytes wire = msg.encode();
  // Each per-domain request carries the reservation's trace context in the
  // unsigned transport envelope; hop_count is this domain's path index.
  obs::TraceContext ctx_to_send = trace.wire;
  ctx_to_send.hop_count = static_cast<std::uint32_t>(hop_index);
  ExchangeResult done = exchange(
      *fabric_, retry_policy_,
      Exchange{"source", agent_domain, domain, wire, &ctx_to_send, nullptr,
               nullptr, ReplyLeg::kNone},
      [&](const Arrival& arrival) {
        HopSpan hop(tracer_, node.recorder, trace.trace_id, trace.root, 0,
                    arrival.trace_context.value_or(obs::TraceContext{}),
                    domain, at + arrival.waited + arrival.latency);
        return step(node, msg, spec, user_cert, at, hop);
      });
  if (!done.completed) {
    return {RarReply::deny(no_answer(domain, done.attempts, domain)),
            done.latency};
  }
  return {std::move(*done.reply),
          done.latency + fabric_->one_way(agent_domain, domain) +
              fabric_->processing_delay()};
}

RarReply SourceDomainEngine::step(Node& node, const RarMessage& msg,
                                  const bb::ResSpec& spec,
                                  const crypto::Certificate& user_cert,
                                  SimTime at, HopSpan& hop) {
  bb::BandwidthBroker& broker = *node.broker;
  const std::string& domain = broker.domain();
  // Broker-side processing walks the hop cursor over the processing-delay
  // budget: verify 2/5, policy 1/4, admission the rest.
  const SimDuration processing = fabric_->processing_delay();
  const SimDuration verify_cost = processing * 2 / 5;
  const SimDuration policy_cost = processing / 4;
  const SimDuration admission_cost = processing - verify_cost - policy_cost;

  obs::SpanScope verify_scope = hop.stage("verify");
  // Direct trust has no verification cache: every request re-checks the
  // user's signature, so (unlike the hop-by-hop path) no cache field.
  auto audit_verify = [&](const char* result, const std::string& subject) {
    obs::CurrentSpan audit_scope(hop.ref(verify_scope));
    obs::AuditLog::global().append(
        domain, obs::audit_kind::kVerify,
        {{"result", result}, {"subject", subject}});
  };
  auto deny_verify = [&](Error e) {
    const std::string text = e.to_text();
    audit_verify("fail", spec.user);
    hop.cursor += verify_cost;
    verify_scope.fail(text);
    verify_scope.finish();
    hop.span.annotate("stage", "verify");
    hop.span.fail(text);
    return RarReply::deny(std::move(e));
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
  hop.cursor += verify_cost;
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
  obs::SpanScope policy_scope = hop.stage("policy");
  const policy::PolicyReply reply = [&] {
    obs::CurrentSpan audit_scope(hop.ref(policy_scope));
    return broker.policy_server().decide(ctx);
  }();
  hop.cursor += policy_cost;
  if (reply.decision != policy::Decision::kGrant) {
    policy_scope.fail(reply.reason);
    policy_scope.finish();
    hop.span.annotate("stage", "policy");
    hop.span.fail(reply.reason);
    return RarReply::deny(
        make_error(ErrorCode::kPolicyDenied, reply.reason, domain));
  }
  policy_scope.finish();

  // Approach 1 has no upstream-SLA context: each reservation is a direct
  // request against the domain's own capacity.
  obs::SpanScope admission_scope = hop.stage("admission");
  auto committed = [&] {
    obs::CurrentSpan audit_scope(hop.ref(admission_scope));
    return broker.commit(spec, /*from_domain=*/"");
  }();
  hop.cursor += admission_cost;
  if (!committed.ok()) {
    const std::string text = committed.error().to_text();
    admission_scope.fail(text);
    hop.span.annotate("stage", "admission");
    hop.span.fail(text);
    return RarReply::deny(committed.error());
  }
  RarReply granted = RarReply::approve();
  granted.handles.emplace_back(domain, *committed);
  return granted;
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

  // Root reservation span in the agent domain's own recorder (and in the
  // reference recorder, when a test attached one). Every per-domain
  // request parents under it: via the wire context in the per-domain
  // recorders, locally in the reference one.
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
      if (!last.reply.granted) break;
    }
  }

  RarReply granted = RarReply::approve();
  for (const auto& r : results) {
    if (r.reply.granted) {
      granted.handles.push_back(r.reply.handles.front());
    }
  }
  if (granted.handles.size() == contacted.size()) {
    outcome.reply = std::move(granted);
    return finish(std::move(outcome));
  }

  // Roll back any granted parts, then report the first denial.
  for (const auto& [domain, handle] : granted.handles) {
    (void)nodes_.at(domain).broker->release(handle);
  }
  for (const auto& r : results) {
    if (!r.reply.granted) {
      outcome.reply = r.reply;
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
