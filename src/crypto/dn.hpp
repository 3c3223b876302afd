// X.500-style Distinguished Names.
//
// The signalling protocol identifies every principal — users, bandwidth
// brokers, CAs, the CAS — by DN (paper notation DN_A, DN_BB_A, ...). The
// LDAP-style certificate repository (src/repo) is likewise indexed by DN.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace e2e::crypto {

class DistinguishedName {
 public:
  DistinguishedName() = default;

  /// Parse "CN=Alice, O=Argonne, C=US". Attribute order is significant
  /// (canonical form preserves it). Whitespace around separators is trimmed.
  static Result<DistinguishedName> parse(std::string_view text);

  /// Convenience builder for the common shape used throughout the library.
  static DistinguishedName make(std::string_view common_name,
                                std::string_view organization,
                                std::string_view country = "US");

  /// Canonical text form: "CN=Alice,O=Argonne,C=US" (no spaces).
  std::string to_string() const;

  /// First value of the given attribute type ("" if absent).
  std::string get(std::string_view type) const;
  std::string common_name() const { return get("CN"); }
  std::string organization() const { return get("O"); }

  void add(std::string type, std::string value);

  bool empty() const { return rdns_.empty(); }

  bool operator==(const DistinguishedName& o) const = default;
  /// Lexicographic on canonical form; lets DNs key std::map.
  bool operator<(const DistinguishedName& o) const {
    return to_string() < o.to_string();
  }

 private:
  std::vector<std::pair<std::string, std::string>> rdns_;
};

}  // namespace e2e::crypto
