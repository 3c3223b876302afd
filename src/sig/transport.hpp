// Signalling-plane transport fabric.
//
// All signalling in this library runs in-process; the fabric supplies the
// *model* of the wide-area control plane: one-way latencies between named
// parties, message/byte accounting, and — when armed — a deterministic
// per-link fault model (drop/duplicate/corrupt/delay-jitter probabilities,
// explicit link partitions and broker crash toggles). The engines consult
// it to compute the modeled end-to-end signalling latency of each strategy
// (bench/fig3), to count the messages each strategy generates
// (bench/tunnel_scaling), and — through transmit() — to find out what a
// lossy control plane did to each message they sent.
//
// With no fault state armed (the default), transmit() degenerates to the
// clean model: every message is delivered once, unmodified, after exactly
// one_way(from, to). Fault decisions come from a private RNG seeded via
// seed_faults(), so a run is replayable from its seed.
//
// Thread safety: none of its own. A Fabric belongs to one world and is
// driven by the thread that owns that world (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/tlv.hpp"
#include "obs/trace.hpp"

namespace e2e::sig {

// TLV tags of the *unsigned* trace-context envelope that may accompany a
// transmission (docs/OBSERVABILITY.md, "TraceContext wire format"). The
// envelope is carried out of band next to the sealed record: it is never
// part of the signed RAR bytes or the channel MAC input, so arming
// tracing changes no signature, digest or grant byte.
namespace envelope_tag {
inline constexpr tlv::Tag kTraceContext = 0xE270;  // container
inline constexpr tlv::Tag kTraceId = 0xE271;       // string
inline constexpr tlv::Tag kOrigin = 0xE272;        // string
inline constexpr tlv::Tag kSpanId = 0xE273;        // u64
inline constexpr tlv::Tag kHopCount = 0xE274;      // u32
inline constexpr tlv::Tag kSampled = 0xE275;       // bool
}  // namespace envelope_tag

/// Canonical TLV encoding of a trace context (the envelope payload).
Bytes encode_trace_context(const obs::TraceContext& context);
Result<obs::TraceContext> decode_trace_context(BytesView bytes);

/// Per-link, per-direction fault probabilities. All-zero (the default)
/// means the link behaves exactly like the pre-fault-model fabric.
struct FaultProfile {
  double drop = 0;       // message vanishes in transit
  double duplicate = 0;  // message arrives twice
  double corrupt = 0;    // payload arrives with flipped bytes
  double jitter = 0;     // delivery is late by up to max_jitter
  SimDuration max_jitter = milliseconds(50);

  bool any() const {
    return drop > 0 || duplicate > 0 || corrupt > 0 || jitter > 0;
  }
};

/// What the fabric did to one transmitted message.
struct Delivery {
  enum class Outcome {
    kDelivered,    // payload arrived (possibly corrupted/duplicated/late)
    kDropped,      // lost in transit
    kPartitioned,  // link explicitly partitioned
    kPeerDown,     // either end's broker is crashed
  };
  Outcome outcome = Outcome::kDelivered;
  /// Payload as received (differs from the sent bytes when corrupted).
  Bytes payload;
  /// One-way delivery latency including any jitter penalty.
  SimDuration latency = 0;
  bool corrupted = false;
  /// A second copy arrived right behind the first one.
  bool duplicated = false;
  /// Trace context from the unsigned envelope, when the sender attached
  /// one and the message was delivered. Envelope corruption is not
  /// modeled: telemetry is best-effort metadata, and the fault RNG must
  /// not consume extra draws (clean-path byte-identity).
  std::optional<obs::TraceContext> trace_context;

  bool delivered() const { return outcome == Outcome::kDelivered; }
};

/// The transport seam between the signalling engines and whatever carries
/// their bytes: exactly what exchange() and the engines call. sig::Fabric
/// (below) is the one production implementation, the in-memory model of
/// the wide-area control plane (modeled latencies, deterministic fault
/// injection, virtual time); tests substitute scripted fakes.
class Transport {
 public:
  virtual ~Transport() = default;

  /// One-way delivery latency between two parties as modeled by this
  /// transport.
  virtual SimDuration one_way(const std::string& a,
                              const std::string& b) const = 0;
  SimDuration rtt(const std::string& a, const std::string& b) const {
    return 2 * one_way(a, b);
  }

  /// Per-hop processing budget a broker spends on verification, policy and
  /// admission before forwarding (modeled; the real CPU cost is measured
  /// separately by the microbenchmarks).
  virtual SimDuration processing_delay() const = 0;

  /// Account one message without transmitting (modeled side channels).
  virtual void record_message(const std::string& from, const std::string& to,
                              std::size_t bytes) = 0;

  /// Send one message and learn its fate synchronously. The engines'
  /// request/reply exchanges are built on this call.
  virtual Delivery transmit(const std::string& from, const std::string& to,
                            BytesView payload,
                            const obs::TraceContext* trace_context = nullptr) = 0;
};

class Fabric : public Transport {
 public:
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Symmetric one-way latency between two parties.
  void set_latency(const std::string& a, const std::string& b,
                   SimDuration one_way);
  void set_default_latency(SimDuration one_way) { default_latency_ = one_way; }

  SimDuration one_way(const std::string& a,
                      const std::string& b) const override;

  /// Per-hop processing budget a broker spends on verification, policy and
  /// admission before forwarding (modeled; the real CPU cost is measured
  /// separately by the microbenchmarks).
  void set_processing_delay(SimDuration d) { processing_delay_ = d; }
  SimDuration processing_delay() const override { return processing_delay_; }

  void record_message(const std::string& from, const std::string& to,
                      std::size_t bytes) override;
  /// Message/byte accounting since the last reset.
  Stats total() const { return total_; }
  Stats between(const std::string& a, const std::string& b) const;
  void reset_counters();

  // --- Fault model -----------------------------------------------------------

  /// Seed the private fault RNG; fault decisions never consume any other
  /// RNG, so clean-path runs are unaffected by the seed.
  void seed_faults(std::uint64_t seed) { fault_rng_ = Rng(seed); }

  /// Profile applied to every link without a per-link override.
  void set_default_fault_profile(const FaultProfile& profile) {
    default_profile_ = profile;
  }

  /// Directional override for messages from `from` to `to`.
  void set_fault_profile(const std::string& from, const std::string& to,
                         const FaultProfile& profile);
  const FaultProfile& fault_profile(const std::string& from,
                                    const std::string& to) const;

  /// Explicit link partition (symmetric): transmissions between the two
  /// parties fail with Delivery::Outcome::kPartitioned until healed.
  void partition(const std::string& a, const std::string& b);
  void heal(const std::string& a, const std::string& b);
  bool partitioned(const std::string& a, const std::string& b) const;

  /// Broker crash toggle: while down, nothing is delivered to — or sent
  /// by — `name`.
  void set_down(const std::string& name, bool down);
  bool is_down(const std::string& name) const { return down_.contains(name); }

  /// Drop all fault state (profiles, partitions, crashes). The fault RNG
  /// keeps its position; re-seed for a fresh replayable sequence.
  void clear_faults();

  /// Send one message and learn its fate. Always counts the transmission
  /// in the message/byte statistics (the sender spent the bytes even when
  /// the fabric lost them). With no fault state armed this is exactly
  /// record_message() plus a clean Delivery carrying one_way(from, to).
  ///
  /// `trace_context`, when non-null, rides the unsigned envelope: it is
  /// encoded/decoded through the TLV wire format, shares the payload's
  /// delivery fate, and is accounted only in the e2e_obs_trace_ctx_*
  /// counters — never in the fabric message/byte statistics the protocol
  /// benches assert on.
  Delivery transmit(const std::string& from, const std::string& to,
                    BytesView payload,
                    const obs::TraceContext* trace_context = nullptr) override;

 private:
  static std::pair<std::string, std::string> key(const std::string& a,
                                                 const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  void count(const std::string& from, const std::string& to,
             std::size_t bytes);

  std::map<std::pair<std::string, std::string>, SimDuration> latencies_;
  std::map<std::pair<std::string, std::string>, Stats> per_pair_;
  Stats total_;
  SimDuration default_latency_ = milliseconds(20);
  SimDuration processing_delay_ = milliseconds(1);

  FaultProfile default_profile_;
  std::map<std::pair<std::string, std::string>, FaultProfile> profiles_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> down_;
  Rng fault_rng_{0x6661756c74ull};  // "fault"
};

}  // namespace e2e::sig
