// Minimal logger for warnings.
//
// Components report anomalies (a rejected capability chain, a failed
// policy evaluation or tunnel channel) on stderr, one line each. The
// normal protocol path logs nothing, so tests and benchmarks stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace e2e::log {

/// Emit one warning line on stderr (thread-safe).
void write(const std::string& component, const std::string& message);

namespace detail {
class LineBuilder {
 public:
  explicit LineBuilder(std::string component)
      : component_(std::move(component)) {}
  ~LineBuilder() { write(component_, stream_.str()); }
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LineBuilder warn(std::string component) {
  return detail::LineBuilder(std::move(component));
}

}  // namespace e2e::log
