#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace e2e::log {

namespace {
std::mutex g_mutex;
}  // namespace

void write(Level level, const std::string& component,
           const std::string& message) {
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "[%s] %-12s %s\n",
               level == Level::kWarn ? "WARN " : "ERROR", component.c_str(),
               message.c_str());
}

}  // namespace e2e::log
