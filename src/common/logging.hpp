// Minimal logger for warnings and errors.
//
// Components report anomalies (a rejected capability chain, a failed
// policy evaluation or tunnel channel, a worker task that threw) on
// stderr, one line each. The normal protocol path logs nothing, so tests
// and benchmarks stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace e2e::log {

enum class Level { kWarn, kError };

/// Emit one line on stderr (thread-safe).
void write(Level level, const std::string& component,
           const std::string& message);

namespace detail {
class LineBuilder {
 public:
  LineBuilder(Level level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LineBuilder() { write(level_, component_, stream_.str()); }
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  Level level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LineBuilder warn(std::string component) {
  return {Level::kWarn, std::move(component)};
}
inline detail::LineBuilder error(std::string component) {
  return {Level::kError, std::move(component)};
}

}  // namespace e2e::log
