#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace e2e::log {

namespace {
constexpr Level kThreshold = Level::kWarn;
std::mutex g_mutex;

const char* level_name(Level l) {
  switch (l) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO ";
    case Level::kWarn: return "WARN ";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void write(Level lvl, const std::string& component,
           const std::string& message) {
  if (lvl < kThreshold) return;
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "[%s] %-12s %s\n", level_name(lvl), component.c_str(),
               message.c_str());
}

}  // namespace e2e::log
