#include "sig/transport.hpp"

#include <algorithm>

#include "obs/instruments.hpp"

namespace e2e::sig {

Bytes encode_trace_context(const obs::TraceContext& context) {
  tlv::Writer writer;
  writer.open(envelope_tag::kTraceContext);
  writer.put_string(envelope_tag::kTraceId, context.trace_id);
  writer.put_string(envelope_tag::kOrigin, context.origin);
  writer.put_u64(envelope_tag::kSpanId, context.span_id);
  writer.put_u32(envelope_tag::kHopCount, context.hop_count);
  writer.put_bool(envelope_tag::kSampled, context.sampled);
  writer.close();
  return writer.take();
}

Result<obs::TraceContext> decode_trace_context(BytesView bytes) {
  tlv::Reader outer(bytes);
  auto nested = outer.read_nested(envelope_tag::kTraceContext);
  if (!nested.ok()) return nested.error();
  tlv::Reader& reader = nested.value();
  obs::TraceContext context;
  auto trace_id = reader.read_string(envelope_tag::kTraceId);
  if (!trace_id.ok()) return trace_id.error();
  context.trace_id = std::move(trace_id.value());
  auto origin = reader.read_string(envelope_tag::kOrigin);
  if (!origin.ok()) return origin.error();
  context.origin = std::move(origin.value());
  auto span_id = reader.read_u64(envelope_tag::kSpanId);
  if (!span_id.ok()) return span_id.error();
  context.span_id = span_id.value();
  auto hop_count = reader.read_u32(envelope_tag::kHopCount);
  if (!hop_count.ok()) return hop_count.error();
  context.hop_count = hop_count.value();
  auto sampled = reader.read_bool(envelope_tag::kSampled);
  if (!sampled.ok()) return sampled.error();
  context.sampled = sampled.value();
  if (!outer.at_end()) {
    return make_error(ErrorCode::kBadMessage,
                      "trailing bytes after trace-context envelope", "");
  }
  return context;
}

void Fabric::set_latency(const std::string& a, const std::string& b,
                         SimDuration one_way) {
  latencies_[key(a, b)] = one_way;
}

SimDuration Fabric::one_way(const std::string& a, const std::string& b) const {
  if (a == b) return 0;
  const auto it = latencies_.find(key(a, b));
  return it == latencies_.end() ? default_latency_ : it->second;
}

void Fabric::count(const std::string& from, const std::string& to,
                   std::size_t bytes) {
  Stats& pair_stats = per_pair_[key(from, to)];
  pair_stats.messages++;
  pair_stats.bytes += bytes;
  total_.messages++;
  total_.bytes += bytes;
}

void Fabric::record_message(const std::string& from, const std::string& to,
                            std::size_t bytes) {
  static obs::Counter& messages =
      obs::MetricsRegistry::global().counter(obs::kSigFabricMessagesTotal);
  static obs::Counter& byte_total =
      obs::MetricsRegistry::global().counter(obs::kSigFabricBytesTotal);
  messages.increment();
  byte_total.increment(bytes);
  count(from, to, bytes);
}

Fabric::Stats Fabric::between(const std::string& a,
                              const std::string& b) const {
  const auto it = per_pair_.find(key(a, b));
  return it == per_pair_.end() ? Stats{} : it->second;
}

void Fabric::reset_counters() {
  per_pair_.clear();
  total_ = Stats{};
}

void Fabric::set_fault_profile(const std::string& from, const std::string& to,
                               const FaultProfile& profile) {
  profiles_[{from, to}] = profile;
}

const FaultProfile& Fabric::fault_profile(const std::string& from,
                                          const std::string& to) const {
  const auto it = profiles_.find({from, to});
  return it == profiles_.end() ? default_profile_ : it->second;
}

void Fabric::partition(const std::string& a, const std::string& b) {
  partitions_.insert(key(a, b));
}

void Fabric::heal(const std::string& a, const std::string& b) {
  partitions_.erase(key(a, b));
}

bool Fabric::partitioned(const std::string& a, const std::string& b) const {
  return partitions_.contains(key(a, b));
}

void Fabric::set_down(const std::string& name, bool down) {
  if (down) {
    down_.insert(name);
  } else {
    down_.erase(name);
  }
}

void Fabric::clear_faults() {
  default_profile_ = FaultProfile{};
  profiles_.clear();
  partitions_.clear();
  down_.clear();
}

Delivery Fabric::transmit(const std::string& from, const std::string& to,
                          BytesView payload,
                          const obs::TraceContext* trace_context) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& messages =
      registry.counter(obs::kSigFabricMessagesTotal);
  static obs::Counter& byte_total = registry.counter(obs::kSigFabricBytesTotal);
  messages.increment();
  byte_total.increment(payload.size());

  // The unsigned envelope travels next to the payload: encode through the
  // wire format (so the overhead is real and accounted), decode on the
  // receiving side below. It must not consume fault RNG draws or touch
  // the fabric byte counters the protocol benches pin.
  Bytes envelope;
  if (trace_context != nullptr && trace_context->valid()) {
    envelope = encode_trace_context(*trace_context);
    static obs::Counter& propagated =
        registry.counter(obs::kObsTraceCtxPropagatedTotal);
    static obs::Counter& envelope_bytes =
        registry.counter(obs::kObsTraceCtxBytesTotal);
    propagated.increment();
    envelope_bytes.increment(envelope.size());
  }

  Delivery d;
  const char* loss_kind = nullptr;
  bool delayed = false;
  count(from, to, payload.size());
  if (down_.contains(to) || down_.contains(from)) {
    d.outcome = Delivery::Outcome::kPeerDown;
    loss_kind = "down";
  } else if (partitions_.contains(key(from, to))) {
    d.outcome = Delivery::Outcome::kPartitioned;
    loss_kind = "partition";
  } else {
    const FaultProfile& profile = fault_profile(from, to);
    if (profile.drop > 0 && fault_rng_.next_bool(profile.drop)) {
      d.outcome = Delivery::Outcome::kDropped;
      loss_kind = "drop";
    } else {
      d.payload.assign(payload.begin(), payload.end());
      d.latency = one_way(from, to);
      if (profile.jitter > 0 && fault_rng_.next_bool(profile.jitter)) {
        delayed = true;
        d.latency += static_cast<SimDuration>(fault_rng_.next_below(
            static_cast<std::uint64_t>(
                std::max<SimDuration>(profile.max_jitter, 1))));
      }
      if (profile.corrupt > 0 && !d.payload.empty() &&
          fault_rng_.next_bool(profile.corrupt)) {
        d.corrupted = true;
        const std::size_t flips = 1 + fault_rng_.next_below(3);
        for (std::size_t i = 0; i < flips; ++i) {
          const std::size_t pos = fault_rng_.next_below(d.payload.size());
          const std::uint8_t bit =
              static_cast<std::uint8_t>(1u << fault_rng_.next_below(8));
          d.payload[pos] ^= bit;
        }
      }
      if (profile.duplicate > 0 && fault_rng_.next_bool(profile.duplicate)) {
        d.duplicated = true;
      }
    }
  }
  auto count_fault = [&registry](const char* kind) {
    registry.counter(obs::kSigFaultsInjectedTotal, {{"kind", kind}})
        .increment();
  };
  if (loss_kind != nullptr) count_fault(loss_kind);
  if (delayed) count_fault("delay");
  if (d.corrupted) count_fault("corrupt");
  if (d.duplicated) count_fault("duplicate");
  if (!envelope.empty() && d.delivered()) {
    auto decoded = decode_trace_context(envelope);
    if (decoded.ok()) d.trace_context = std::move(decoded.value());
  }
  return d;
}

}  // namespace e2e::sig
