#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace e2e::log {

namespace {
std::mutex g_mutex;
}  // namespace

void write(const std::string& component, const std::string& message) {
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "[WARN ] %-12s %s\n", component.c_str(),
               message.c_str());
}

}  // namespace e2e::log
