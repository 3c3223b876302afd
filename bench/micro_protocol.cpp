// Microbenchmarks of the protocol building blocks: RAR encode/decode,
// per-hop layer signing, transitive-trust verification as a function of
// path depth, channel handshake and record protection, policy evaluation
// and admission control.
#include <benchmark/benchmark.h>

#include "kit/chain_world.hpp"
#include "sig/trust.hpp"

namespace {

using namespace e2e;
using namespace e2e::kit;

/// Shared world + a pre-built deep RAR per depth (construction is
/// expensive; benchmarks only measure the operation under test).
struct ProtocolFixture {
  ChainWorld world;
  WorldUser alice;
  sig::RarMessage user_msg;

  ProtocolFixture()
      : world([] {
          ChainWorldConfig config;
          config.domains = 8;
          return config;
        }()),
        alice(world.make_user("Alice", 0)),
        user_msg(world.engine()
                     .build_user_request(alice.credentials(),
                                         world.spec(alice, 1e6), 0)
                     .value()) {}
};

ProtocolFixture& fixture() {
  static ProtocolFixture f;
  return f;
}

void BM_RarEncode(benchmark::State& state) {
  const sig::RarMessage& msg = fixture().user_msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode());
  }
}
BENCHMARK(BM_RarEncode);

void BM_RarDecode(benchmark::State& state) {
  const Bytes wire = fixture().user_msg.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::RarMessage::decode(wire));
  }
}
BENCHMARK(BM_RarDecode);

void BM_UserRequestBuild(benchmark::State& state) {
  ProtocolFixture& f = fixture();
  const bb::ResSpec spec = f.world.spec(f.alice, 1e6);
  const auto creds = f.alice.credentials();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.world.engine().build_user_request(creds, spec, 0));
  }
}
BENCHMARK(BM_UserRequestBuild)->Unit(benchmark::kMicrosecond);

void BM_BrokerLayerAppend(benchmark::State& state) {
  ProtocolFixture& f = fixture();
  for (auto _ : state) {
    sig::RarMessage msg = f.user_msg;
    sig::BrokerLayer layer;
    layer.upstream_certificate = f.alice.identity_cert.encode();
    layer.downstream_dn = f.world.broker(1).dn().to_string();
    layer.signer_dn = f.world.broker(0).dn().to_string();
    msg.append_broker_layer(std::move(layer), [&f](BytesView tbs) {
      return f.world.broker(0).sign(tbs);
    });
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_BrokerLayerAppend)->Unit(benchmark::kMicrosecond);

/// End-to-end reservation cost (all hops, crypto included) as a function of
/// path length. This is the wall-clock analogue of bench/fig3's modeled
/// latency.
void BM_EndToEndReserve(benchmark::State& state) {
  ChainWorldConfig config;
  config.domains = static_cast<std::size_t>(state.range(0));
  ChainWorld world(config);
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
BENCHMARK(BM_EndToEndReserve)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_TunnelFlowReserve(benchmark::State& state) {
  ChainWorld world;
  const WorldUser alice = world.make_user("Alice", 0);
  bb::ResSpec agg = world.spec(alice, 100e6, {0, hours(10)});
  agg.is_tunnel = true;
  const auto msg = world.engine()
                       .build_user_request(alice.credentials(), agg, 0)
                       .value();
  const auto established = world.engine().reserve(msg, seconds(1));
  if (!established.ok() || !established->reply.granted) {
    state.SkipWithError("tunnel establishment denied");
    return;
  }
  const std::string tunnel_id = established->reply.tunnel_id;
  for (auto _ : state) {
    auto flow = world.engine().reserve_in_tunnel(
        tunnel_id, alice.dn.to_string(), 1e3, {0, seconds(60)}, seconds(2));
    if (!flow.ok() || !flow->reply.granted) {
      state.SkipWithError("deny");
      break;
    }
    benchmark::DoNotOptimize(flow);
    state.PauseTiming();
    (void)world.engine().release_in_tunnel(
        tunnel_id, flow->reply.handles.front().second);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_TunnelFlowReserve)->Unit(benchmark::kMicrosecond);

void BM_ChannelHandshake(benchmark::State& state) {
  ChainWorld& world = fixture().world;
  Rng rng(5);
  for (auto _ : state) {
    // Reconnect two already-trusting peers.
    benchmark::DoNotOptimize(
        world.engine().connect_peers("DomainA", "DomainB", 0));
  }
  (void)rng;
}
BENCHMARK(BM_ChannelHandshake)->Unit(benchmark::kMicrosecond);

/// Two halves of one channel direction: `sender` seals what `receiver`
/// opens.
struct RecordChannel {
  sig::Session sender{crypto::Certificate{}, to_bytes("bench-send-key"),
                      to_bytes("bench-recv-key")};
  sig::Session receiver{crypto::Certificate{}, to_bytes("bench-recv-key"),
                        to_bytes("bench-send-key")};
};

/// One sealed reply as the daemon writes it: the frame (u32 length and
/// record TLV) appended to a reused output buffer.
void BM_RecordSealFrame(benchmark::State& state) {
  RecordChannel channel;
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  Bytes out;
  for (auto _ : state) {
    out.clear();
    channel.sender.seal_frame(payload, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordSealFrame)->Arg(160)->Arg(2048);

/// One request opened as the daemon opens it: the record TLV parsed in
/// place over the frame, MAC and sequence checked, the payload viewed.
/// Records are sealed ahead in batches (sequence numbers only rise).
void BM_RecordOpenFrame(benchmark::State& state) {
  RecordChannel channel;
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  constexpr std::size_t kBatch = 1024;
  std::vector<Bytes> frames(kBatch);
  std::size_t next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      for (Bytes& frame : frames) {
        frame.clear();
        channel.sender.seal_frame(payload, frame);
      }
      next = 0;
      state.ResumeTiming();
    }
    const Bytes& frame = frames[next++];
    auto opened =
        channel.receiver.open_record(BytesView(frame).subspan(4));
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordOpenFrame)->Arg(160)->Arg(2048);

void BM_PolicyEvaluation(benchmark::State& state) {
  const policy::Policy policy = policy::Policy::compile(R"(
    If User = Alice {
      If Time > 8am and Time < 5pm {
        If BW <= 10Mb/s { Return GRANT }
        Else { Return DENY }
      }
      Else if BW <= Avail_BW { Return GRANT }
      Else { Return DENY }
    }
    Return DENY
  )").value();
  policy::EvalContext ctx;
  ctx.set_user("Alice");
  ctx.set_bandwidth(5e6);
  ctx.set_time(hours(12));
  ctx.set_available_bandwidth(100e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.decide(ctx));
  }
}
BENCHMARK(BM_PolicyEvaluation);

void BM_PolicyCompile(benchmark::State& state) {
  const std::string src = R"(
    If Group = Atlas { If BW <= 10Mb/s Return GRANT }
    Else if Issued_by(Capability) = ESnet { If BW <= 10Mb/s Return GRANT }
    Return DENY
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::Policy::compile(src));
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_AdmissionCheck(benchmark::State& state) {
  bb::CapacityPool pool(1e9);
  Rng rng(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const SimTime start = static_cast<SimTime>(rng.next_below(3600)) *
                          seconds(1);
    (void)pool.commit("r" + std::to_string(i), {start, start + seconds(300)},
                      1e5);
  }
  const TimeInterval probe{seconds(1000), seconds(1600)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.can_admit(probe, 1e6));
  }
}
BENCHMARK(BM_AdmissionCheck)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
