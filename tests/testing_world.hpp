// Test alias for the deployment kit's chain world (src/kit/chain_world.hpp):
// a ready-made multi-domain deployment matching the paper's scenario.
#pragma once

#include "kit/chain_world.hpp"
#include "obs/trace.hpp"

namespace e2e::testing {
using e2e::kit::ChainWorld;
using e2e::kit::ChainWorldConfig;
using e2e::kit::WorldUser;
using e2e::kit::kWorldValidity;

/// Record every span of `world`'s two engines once more into `reference`,
/// one engine-wide recorder that a test reads as the oracle for the
/// per-domain exports. The world attaches none itself.
inline void attach_reference(ChainWorld& world, obs::TraceRecorder& reference) {
  world.engine().set_trace_recorder(&reference);
  world.source_engine().set_trace_recorder(&reference);
}
}  // namespace e2e::testing
