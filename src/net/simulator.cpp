#include "net/simulator.hpp"

#include <algorithm>
#include <deque>

#include "common/logging.hpp"
#include "obs/instruments.hpp"

namespace e2e::net {

Simulator::Simulator(Topology topology, std::uint64_t seed)
    : topo_(std::move(topology)), rng_(seed) {
  links_.resize(topo_.link_count());
  auto& registry = obs::MetricsRegistry::global();
  packets_emitted_ = &registry.counter(obs::kNetPacketsEmittedTotal);
  packets_delivered_ = &registry.counter(obs::kNetPacketsDeliveredTotal);
  packets_dropped_policer_ =
      &registry.counter(obs::kNetPacketsDroppedTotal, {{"reason", "policer"}});
  packets_dropped_queue_ =
      &registry.counter(obs::kNetPacketsDroppedTotal, {{"reason", "queue"}});
  packets_downgraded_ = &registry.counter(obs::kNetPacketsDowngradedTotal);
  packet_delay_us_ = &registry.histogram(obs::kNetPacketDelayUs);
}

Result<FlowId> Simulator::add_flow(const FlowDescription& desc) {
  auto path = topo_.shortest_path(desc.source, desc.destination);
  if (!path) return path.error();
  if (path->empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flow source equals destination");
  }
  if (desc.pattern.rate_bits_per_s <= 0 || desc.pattern.packet_bits == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flow needs positive rate and packet size");
  }
  const FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(FlowState{desc, std::move(*path), FlowStats{}, true});
  events_.schedule_at(desc.start, [this, id] { emit_packet(id); });
  return id;
}

void Simulator::set_flow_policer(LinkId link, FlowId flow,
                                 const TokenBucket& bucket,
                                 sla::ExcessTreatment treatment) {
  links_.at(link).flow_policers[flow] = PolicerEntry{bucket, treatment};
}

void Simulator::clear_flow_policer(LinkId link, FlowId flow) {
  links_.at(link).flow_policers.erase(flow);
}

void Simulator::set_aggregate_policer(LinkId link, const TokenBucket& bucket,
                                      sla::ExcessTreatment treatment) {
  links_.at(link).aggregate_policer = PolicerEntry{bucket, treatment};
}

SimDuration Simulator::emission_gap(const TrafficPattern& p) {
  const double gap_us =
      static_cast<double>(p.packet_bits) / p.rate_bits_per_s * 1e6;
  switch (p.kind) {
    case TrafficPattern::Kind::kCbr:
      return static_cast<SimDuration>(gap_us);
    case TrafficPattern::Kind::kPoisson:
      return static_cast<SimDuration>(rng_.next_exponential(gap_us));
    case TrafficPattern::Kind::kOnOff: {
      // CBR while on; with probability gap/mean_on the burst ends and an
      // exponentially distributed idle period follows (burst lengths are
      // then approximately exponential with mean `mean_on`).
      double total = gap_us;
      const double p_end =
          p.mean_on > 0 ? gap_us / static_cast<double>(p.mean_on) : 0.0;
      if (rng_.next_bool(std::min(1.0, p_end))) {
        total += rng_.next_exponential(static_cast<double>(p.mean_off));
      }
      return static_cast<SimDuration>(total);
    }
  }
  return static_cast<SimDuration>(gap_us);
}

void Simulator::emit_packet(FlowId id) {
  FlowState& flow = flows_[id];
  const SimTime now = events_.now();
  if (flow.desc.stop != 0 && now >= flow.desc.stop) return;

  Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.flow = id;
  pkt.size_bits = flow.desc.pattern.packet_bits;
  pkt.cls = TrafficClass::kBestEffort;  // edge policing may promote to EF
  pkt.created = now;
  flow.stats.emitted_packets++;
  flow.stats.emitted_bits += pkt.size_bits;
  packets_emitted_->increment();

  enter_link(pkt, id, 0);
  events_.schedule_in(emission_gap(flow.desc.pattern),
                      [this, id] { emit_packet(id); });
}

void Simulator::enter_link(Packet pkt, FlowId flow, std::size_t hop) {
  FlowState& fs = flows_[flow];
  const LinkId link = fs.path[hop];
  LinkState& ls = links_[link];
  const SimTime now = events_.now();

  // Per-flow edge policing: mark conforming reserved traffic EF.
  if (fs.desc.wants_premium) {
    const auto it = ls.flow_policers.find(flow);
    if (it != ls.flow_policers.end()) {
      if (it->second.bucket.conforms(pkt.size_bits, now)) {
        pkt.cls = TrafficClass::kExpedited;
      } else if (it->second.treatment == sla::ExcessTreatment::kDrop) {
        fs.stats.dropped_policer_packets++;
        packets_dropped_policer_->increment();
        return;
      } else {
        pkt.cls = TrafficClass::kBestEffort;
        pkt.downgraded = true;
        fs.stats.downgraded_packets++;
        packets_downgraded_->increment();
      }
    }
  }

  // Aggregate policing of the EF class (SLA boundary enforcement) — blind
  // to individual flows.
  if (pkt.cls == TrafficClass::kExpedited && ls.aggregate_policer) {
    if (!ls.aggregate_policer->bucket.conforms(pkt.size_bits, now)) {
      if (ls.aggregate_policer->treatment == sla::ExcessTreatment::kDrop) {
        fs.stats.dropped_policer_packets++;
        packets_dropped_policer_->increment();
        return;
      }
      pkt.cls = TrafficClass::kBestEffort;
      pkt.downgraded = true;
      fs.stats.downgraded_packets++;
      packets_downgraded_->increment();
    }
  }

  auto& queue = pkt.cls == TrafficClass::kExpedited ? ls.ef_queue
                                                    : ls.be_queue;
  if (queue.size() >= topo_.link(link).queue_limit_packets) {
    fs.stats.dropped_queue_packets++;
    packets_dropped_queue_->increment();
    return;
  }
  queue.push_back(QueuedPacket{pkt, hop});
  if (!ls.busy) serve_link(link);
}

void Simulator::serve_link(LinkId link) {
  LinkState& ls = links_[link];
  std::deque<QueuedPacket>* queue = nullptr;
  if (!ls.ef_queue.empty()) {
    queue = &ls.ef_queue;
  } else if (!ls.be_queue.empty()) {
    queue = &ls.be_queue;
  } else {
    ls.busy = false;
    return;
  }
  ls.busy = true;
  const Packet pkt = queue->front().pkt;
  const std::size_t hop = queue->front().hop;
  queue->pop_front();

  const LinkInfo& info = topo_.link(link);
  const SimDuration tx = static_cast<SimDuration>(
      static_cast<double>(pkt.size_bits) / info.capacity_bits_per_s * 1e6);
  ls.stats.tx_packets++;
  ls.stats.tx_bits += pkt.size_bits;
  ls.stats.busy_time += tx;

  // Departure: the link becomes free and serves the next packet.
  events_.schedule_in(tx, [this, link] { serve_link(link); });
  // Arrival at the far end after propagation.
  events_.schedule_in(tx + info.latency, [this, pkt, hop] {
    FlowState& fs = flows_[pkt.flow];
    if (hop + 1 < fs.path.size()) {
      enter_link(pkt, pkt.flow, hop + 1);
    } else {
      deliver(pkt, pkt.flow);
    }
  });
}

void Simulator::deliver(const Packet& pkt, FlowId flow) {
  FlowStats& st = flows_[flow].stats;
  st.delivered_packets++;
  st.delivered_bits += pkt.size_bits;
  if (pkt.cls == TrafficClass::kExpedited) {
    st.delivered_premium_bits += pkt.size_bits;
  }
  const SimDuration delay = events_.now() - pkt.created;
  st.total_delay += delay;
  packets_delivered_->increment();
  packet_delay_us_->observe(static_cast<double>(delay));
}

void Simulator::run_until(SimTime t) { events_.run_until(t); }

}  // namespace e2e::net
