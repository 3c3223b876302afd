// Packet-level DiffServ simulator.
//
// Implements exactly the DiffServ semantics the paper's Fig. 4 argument
// rests on:
//  - the first (edge) router recognizes packets per flow and marks
//    conforming reserved traffic EF (per-flow token-bucket policers,
//    configured by the bandwidth broker from reservations);
//  - every other policing point sees only *aggregates*: boundary links
//    police the whole EF aggregate against the SLA profile, blind to which
//    flow the excess belongs to ("Domain C polices traffic based on traffic
//    aggregates, not on individual users");
//  - links serve EF with strict priority over best-effort, drop-tail queues
//    per class.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/des.hpp"
#include "net/packet.hpp"
#include "net/token_bucket.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sla/sls.hpp"

namespace e2e::net {

/// How a traffic source emits packets.
struct TrafficPattern {
  enum class Kind { kCbr, kPoisson, kOnOff };
  Kind kind = Kind::kCbr;
  double rate_bits_per_s = 0;     // mean rate (on-rate for on-off)
  std::uint32_t packet_bits = 12000;  // 1500 bytes
  // kOnOff only: mean burst/idle durations.
  SimDuration mean_on = milliseconds(100);
  SimDuration mean_off = milliseconds(100);

  static TrafficPattern cbr(double rate_bits_per_s,
                            std::uint32_t packet_bits = 12000) {
    return {Kind::kCbr, rate_bits_per_s, packet_bits, 0, 0};
  }
  static TrafficPattern poisson(double rate_bits_per_s,
                                std::uint32_t packet_bits = 12000) {
    return {Kind::kPoisson, rate_bits_per_s, packet_bits, 0, 0};
  }
  static TrafficPattern on_off(double on_rate_bits_per_s, SimDuration mean_on,
                               SimDuration mean_off,
                               std::uint32_t packet_bits = 12000) {
    return {Kind::kOnOff, on_rate_bits_per_s, packet_bits, mean_on, mean_off};
  }
};

struct FlowDescription {
  std::string name;
  RouterId source = 0;
  RouterId destination = 0;
  /// True if the flow requests premium (EF) treatment at the edge.
  bool wants_premium = false;
  TrafficPattern pattern;
  SimTime start = 0;
  SimTime stop = 0;  // 0 = run until simulation end
};

struct FlowStats {
  std::uint64_t emitted_packets = 0;
  std::uint64_t emitted_bits = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bits = 0;
  /// Bits delivered still carrying the EF mark end-to-end.
  std::uint64_t delivered_premium_bits = 0;
  std::uint64_t dropped_policer_packets = 0;
  std::uint64_t dropped_queue_packets = 0;
  std::uint64_t downgraded_packets = 0;
  SimDuration total_delay = 0;  // sum over delivered packets

  double goodput_bits_per_s(SimDuration window) const {
    return window > 0 ? static_cast<double>(delivered_bits) /
                            to_seconds(window)
                      : 0.0;
  }
  double premium_goodput_bits_per_s(SimDuration window) const {
    return window > 0 ? static_cast<double>(delivered_premium_bits) /
                            to_seconds(window)
                      : 0.0;
  }
  double mean_delay_us() const {
    return delivered_packets > 0
               ? static_cast<double>(total_delay) /
                     static_cast<double>(delivered_packets)
               : 0.0;
  }
};

class Simulator {
 public:
  explicit Simulator(Topology topology, std::uint64_t seed = 1);

  const Topology& topology() const { return topo_; }
  EventQueue& events() { return events_; }
  SimTime now() const { return events_.now(); }

  /// Register a flow; routing uses the fewest-hops path. Returns the id
  /// used for stats and policer configuration.
  Result<FlowId> add_flow(const FlowDescription& desc);

  /// --- Policer configuration (written by the bandwidth brokers) ---

  /// Per-flow edge policer on `link` (normally the flow's first link):
  /// conforming packets are marked EF, excess gets `treatment`.
  void set_flow_policer(LinkId link, FlowId flow, const TokenBucket& bucket,
                        sla::ExcessTreatment treatment);
  void clear_flow_policer(LinkId link, FlowId flow);

  /// Aggregate EF policer on `link` (normally boundary links): the whole EF
  /// aggregate shares one bucket, blind to flows.
  void set_aggregate_policer(LinkId link, const TokenBucket& bucket,
                             sla::ExcessTreatment treatment);

  /// Advance virtual time, executing all traffic events.
  void run_until(SimTime t);

  const FlowStats& stats(FlowId flow) const { return flows_.at(flow).stats; }

  /// Per-link transmission accounting.
  struct LinkStats {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bits = 0;
    SimDuration busy_time = 0;

    double utilization(SimDuration window) const {
      return window > 0 ? static_cast<double>(busy_time) /
                              static_cast<double>(window)
                        : 0.0;
    }
  };
  const LinkStats& link_stats(LinkId link) const {
    return links_.at(link).stats;
  }

 private:
  struct PolicerEntry {
    TokenBucket bucket;
    sla::ExcessTreatment treatment = sla::ExcessTreatment::kDrop;
  };

  /// A packet in flight, together with its position on the flow's path.
  struct QueuedPacket {
    Packet pkt;
    std::size_t hop = 0;
  };

  struct LinkState {
    std::deque<QueuedPacket> ef_queue;
    std::deque<QueuedPacket> be_queue;
    bool busy = false;
    std::map<FlowId, PolicerEntry> flow_policers;
    std::optional<PolicerEntry> aggregate_policer;
    LinkStats stats;
  };

  struct FlowState {
    FlowDescription desc;
    std::vector<LinkId> path;
    FlowStats stats;
    bool on = true;  // for on-off sources
  };

  void emit_packet(FlowId id);
  /// Packet arrives at the entry of path[hop]; polices, enqueues, kicks the
  /// link if idle.
  void enter_link(Packet pkt, FlowId flow, std::size_t hop);
  void serve_link(LinkId link);
  void deliver(const Packet& pkt, FlowId flow);

  SimDuration emission_gap(const TrafficPattern& p);

  Topology topo_;
  EventQueue events_;
  Rng rng_;
  std::vector<FlowState> flows_;
  std::vector<LinkState> links_;
  std::uint64_t next_packet_id_ = 1;

  // Global-registry instruments, resolved once in the constructor; the
  // per-packet hot path increments through these cached references
  // (guaranteed stable for the registry's lifetime).
  obs::Counter* packets_emitted_;
  obs::Counter* packets_delivered_;
  obs::Counter* packets_dropped_policer_;
  obs::Counter* packets_dropped_queue_;
  obs::Counter* packets_downgraded_;
  obs::Histogram* packet_delay_us_;
};

}  // namespace e2e::net
