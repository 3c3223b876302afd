// Minimal leveled logger.
//
// Components log protocol events (request received, policy decision,
// admission result) at kInfo; the threshold is kWarn so tests and
// benchmarks stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace e2e::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Emit one line (thread-safe); lines below kWarn are dropped.
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

inline detail::LineBuilder debug(std::string component) {
  return {Level::kDebug, std::move(component)};
}
inline detail::LineBuilder info(std::string component) {
  return {Level::kInfo, std::move(component)};
}
inline detail::LineBuilder warn(std::string component) {
  return {Level::kWarn, std::move(component)};
}
inline detail::LineBuilder error(std::string component) {
  return {Level::kError, std::move(component)};
}

}  // namespace e2e::log
