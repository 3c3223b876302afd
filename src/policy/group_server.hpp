// Group server — validates assertions about group membership.
//
// Paper §5: "the policy might say 'approved if group server P validates the
// user as a physicist'; if the user's request includes the assertion 'I am
// a physicist', then the policy server verifies that assertion by
// contacting that group server, passing the user's supplied identity
// certificate."
#pragma once

#include <atomic>
#include <map>
#include <set>
#include <string>

#include "crypto/dn.hpp"

namespace e2e::policy {

class GroupServer {
 public:
  explicit GroupServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add_member(const std::string& group, const crypto::DistinguishedName& member) {
    groups_[group].insert(member.to_string());
  }
  void remove_member(const std::string& group,
                     const crypto::DistinguishedName& member) {
    const auto it = groups_.find(group);
    if (it != groups_.end()) it->second.erase(member.to_string());
  }

  /// Validate the assertion "`member` belongs to `group`". `lookups()`
  /// counts server contacts for the benchmarks. Safe to call from
  /// concurrent readers (membership mutation is setup-time only).
  bool validate(const std::string& group,
                const crypto::DistinguishedName& member) const {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const auto it = groups_.find(group);
    return it != groups_.end() && it->second.contains(member.to_string());
  }

  std::size_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::map<std::string, std::set<std::string>> groups_;
  mutable std::atomic<std::size_t> lookups_{0};
};

}  // namespace e2e::policy
