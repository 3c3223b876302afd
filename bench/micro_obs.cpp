// Microbenchmarks of the observability layer's cost on the signalling hot
// paths.
//
// BM_Fig3HotPath is the fig3 scenario (end-to-end hop-by-hop reservation;
// the release is untimed): /0 runs with every recorder detached, /1 as in
// production (one recorder per domain, TraceContext envelope propagation,
// audit appends, metric counters). The acceptance bar — enforced by
// scripts/tier1.sh --obs — is that the instrumented mean stays within 5%
// of the detached mean: span bookkeeping is small next to the RSA layer
// signatures the same path performs.
//
// BM_TunnelFlowHotPath prices the same two settings on a per-flow
// sub-reservation in an established tunnel (reserve_in_tunnel +
// release_in_tunnel, both timed, paper §6.4): no signature is made, so
// span bookkeeping is a large share of each flow. It is reported, not
// gated.
//
// The remaining benchmarks price the individual primitives (span open and
// close, audit append incl. SHA-256 chaining, collector stitching, SLO
// evaluation) so regressions are attributable.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "kit/chain_world.hpp"
#include "obs/audit.hpp"
#include "obs/collector.hpp"
#include "obs/slo.hpp"

namespace {

using namespace e2e;
using namespace e2e::kit;

constexpr std::size_t kDomains = 4;

/// Detach every domain's recorder from both engines of `world`.
void detach_recorders(ChainWorld& world) {
  for (const auto& name : world.names()) {
    world.engine().set_domain_trace_recorder(name, nullptr);
    world.source_engine().set_domain_trace_recorder(name, nullptr);
  }
}

/// range(0): 0 = recorders detached, 1 = fully instrumented.
void BM_Fig3HotPath(benchmark::State& state) {
  ChainWorldConfig config;
  config.domains = kDomains;
  ChainWorld world(config);
  if (state.range(0) == 0) detach_recorders(world);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine()
                       .build_user_request(alice.credentials(),
                                           world.spec(alice, 1e6), 0)
                       .value();
  for (auto _ : state) {
    auto outcome = world.engine().reserve(msg, seconds(1));
    if (!outcome.ok() || !outcome->reply.granted) {
      state.SkipWithError("deny");
      break;
    }
    benchmark::DoNotOptimize(outcome);
    state.PauseTiming();
    (void)world.engine().release_end_to_end(outcome->reply);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Fig3HotPath)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// range(0): 0 = recorders detached, 1 = fully instrumented.
void BM_TunnelFlowHotPath(benchmark::State& state) {
  ChainWorldConfig config;
  config.domains = kDomains;
  ChainWorld world(config);
  if (state.range(0) == 0) detach_recorders(world);
  const WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec spec = world.spec(alice, 50e6, {0, hours(24)});
  spec.is_tunnel = true;
  const auto msg =
      world.engine().build_user_request(alice.credentials(), spec, 0);
  const auto tunnel = world.engine().reserve(msg.value(), seconds(1));
  if (!tunnel.ok() || !tunnel->reply.granted) {
    state.SkipWithError("tunnel denied");
    return;
  }
  const std::string& tunnel_id = tunnel->reply.tunnel_id;
  const std::string user = alice.dn.to_string();
  for (auto _ : state) {
    auto flow = world.engine().reserve_in_tunnel(tunnel_id, user, 1e6,
                                                 {0, seconds(60)}, seconds(2));
    if (!flow.ok() || !flow->reply.granted) {
      state.SkipWithError("flow denied");
      break;
    }
    benchmark::DoNotOptimize(world.engine().release_in_tunnel(
        tunnel_id, flow->reply.handles[0].second));
  }
}
BENCHMARK(BM_TunnelFlowHotPath)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_SpanOpenClose(benchmark::State& state) {
  obs::TraceRecorder recorder;
  SimTime cursor = 0;
  for (auto _ : state) {
    obs::SpanScope span(&recorder, nullptr, "rar-1", "hop", 0, 0, &cursor);
    span.annotate("domain", "DomainA");
    cursor += 10;
    span.finish();
  }
}
BENCHMARK(BM_SpanOpenClose);

void BM_AuditAppend(benchmark::State& state) {
  obs::AuditLog log;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.append(
        "DomainA", obs::audit_kind::kAdmission,
        {{"result", "ok"}, {"user", "Alice"}, {"rate_bits_per_s", "1e6"}}));
  }
}
BENCHMARK(BM_AuditAppend)->Unit(benchmark::kMicrosecond);

void BM_CollectorStitch(benchmark::State& state) {
  // One reservation's worth of per-domain exports, stitched per iteration.
  ChainWorldConfig config;
  config.domains = kDomains;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine()
                       .build_user_request(alice.credentials(),
                                           world.spec(alice, 1e6), 0)
                       .value();
  const auto outcome = world.engine().reserve(msg, seconds(1));
  if (!outcome.ok() || !outcome->reply.granted) {
    state.SkipWithError("deny");
    return;
  }
  for (auto _ : state) {
    obs::SpanCollector collector;
    world.collect(collector);
    benchmark::DoNotOptimize(collector.flatten(outcome->trace_id));
  }
}
BENCHMARK(BM_CollectorStitch)->Unit(benchmark::kMicrosecond);

void BM_SloEvaluate(benchmark::State& state) {
  ChainWorldConfig config;
  config.domains = kDomains;
  ChainWorld world(config);
  const WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine()
                       .build_user_request(alice.credentials(),
                                           world.spec(alice, 1e6), 0)
                       .value();
  const auto outcome = world.engine().reserve(msg, seconds(1));
  if (!outcome.ok()) {
    state.SkipWithError("deny");
    return;
  }
  obs::SloTracker slos =
      obs::SloTracker::with_default_objectives(world.names());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        slos.evaluate(obs::MetricsRegistry::global()));
  }
}
BENCHMARK(BM_SloEvaluate)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
