#include "policy/policy_server.hpp"

#include "common/logging.hpp"
#include "obs/audit.hpp"
#include "obs/instruments.hpp"

namespace e2e::policy {

PolicyReply PolicyServer::decide(const EvalContext& ctx) const {
  auto& registry = obs::MetricsRegistry::global();
  auto count_decision = [&](const char* decision) {
    registry
        .counter(obs::kPolicyDecisionsTotal,
                 {{"decision", decision}, {"domain", domain_}})
        .increment();
  };
  // Every evaluation is audited: the decision, the policy line that
  // produced it (0 = no rule fired), and a denial reason when there is one.
  auto audit_policy = [&](const char* decision, int rule_line,
                          const std::string& reason) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("decision", decision);
    fields.emplace_back("rule_line", std::to_string(rule_line));
    if (!reason.empty()) fields.emplace_back("reason", reason);
    obs::AuditLog::global().append(domain_, obs::audit_kind::kPolicy,
                                   std::move(fields));
  };
  PolicyReply reply;
  auto ev = policy_.evaluate(ctx);
  if (!ev.ok()) {
    reply.decision = Decision::kDeny;
    reply.reason = "policy evaluation failed: " + ev.error().to_text();
    log::warn("policy[" + domain_ + "]") << reply.reason;
    registry
        .counter(obs::kPolicyEvalFailuresTotal, {{"domain", domain_}})
        .increment();
    count_decision("deny");
    audit_policy("deny", 0, reply.reason);
    return reply;
  }
  reply.decision = ev->decision == Decision::kNoDecision ? Decision::kDeny
                                                         : ev->decision;
  if (ev->decision == Decision::kNoDecision) {
    reply.reason = "no policy rule matched (closed-world default deny)";
  } else if (reply.decision == Decision::kDeny) {
    reply.reason =
        "denied by policy rule at line " + std::to_string(ev->decided_at_line);
  }
  if (reply.decision == Decision::kGrant) {
    reply.augmentations = static_augmentations_;
    for (const auto& rule : rules_) {
      rule(ctx, reply.augmentations);
    }
  }
  count_decision(reply.decision == Decision::kGrant ? "grant" : "deny");
  audit_policy(reply.decision == Decision::kGrant ? "grant" : "deny",
               ev->decided_at_line, reply.reason);
  return reply;
}

}  // namespace e2e::policy
