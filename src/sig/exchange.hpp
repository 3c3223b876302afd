// One request/reply exchange between two brokers, under the retry policy.
//
// Every inter-BB exchange in the library runs through exchange(): the
// hop-by-hop forward, the tunnel per-flow request over the direct
// channel, and the source-domain agent's per-domain requests. It
// owns everything about one exchange:
//
//  - the jitter seed, taken from the SHA-256 of the request bytes;
//  - the attempt loop: arm the policy's timeout for each attempt,
//    retransmit on silence (a lost or corrupted request, or a lost reply),
//    give up once the budget is spent;
//  - the request leg: seal on the sender's channel half, Transport::
//    transmit, open on the receiver's half. A trailing duplicate copy is
//    refused by the record layer's sequence check (`via=channel`). Without
//    a channel a corrupted delivery counts as lost, and the far end answers
//    a duplicate copy from its saved reply (`via=cache`);
//  - at-most-once evaluation at the far end: the far-end handler runs on
//    the first delivered attempt only. Its reply, grant or denial, is saved
//    for the rest of this exchange, and a retransmission after a lost
//    reply is answered from it (`via=cache`). Nothing outlives the
//    exchange, so nothing needs expiring;
//  - the optional reply leg and the latency charged per timeout.
//
// Fault-RNG draws happen in a fixed order per attempt: request leg, then
// the far end (which may run nested exchanges), then the reply leg.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "obs/trace.hpp"
#include "sig/channel.hpp"
#include "sig/message.hpp"
#include "sig/retry.hpp"
#include "sig/transport.hpp"

namespace e2e::sig {

/// How the far end's answer travels back to the sender.
enum class ReplyLeg {
  /// The answer rides the request's delivery; the exchange completes when
  /// the request arrives (the source-domain agent's model).
  kNone,
  /// A fixed-size plaintext acknowledgement; only its loss matters (the
  /// tunnel's direct channel).
  kAck,
  /// The encoded RarReply, sealed by the far end and opened by the sender;
  /// a corrupted or undecodable reply counts as lost (hop-by-hop).
  kSealed,
};

/// One exchange: who talks to whom, what is sent and over which channel.
struct Exchange {
  /// `engine` label of the retry counters.
  const char* engine = "";
  std::string from;
  std::string to;
  BytesView request;
  /// Unsigned envelope riding every request transmission (may be null).
  const obs::TraceContext* trace_context = nullptr;
  /// Channel halves: `near` seals requests and opens replies, `far` opens
  /// requests and seals replies. Both null: a plaintext request leg.
  Session* near = nullptr;
  Session* far = nullptr;
  ReplyLeg reply_leg = ReplyLeg::kSealed;
};

/// The first delivered request, as the far end sees it.
struct Arrival {
  /// Request bytes as opened at the far end.
  BytesView payload;
  /// Timeouts the sender already waited in this exchange.
  SimDuration waited = 0;
  /// This attempt's request-leg latency.
  SimDuration latency = 0;
  /// Trace context from the unsigned envelope, when one arrived.
  std::optional<obs::TraceContext> trace_context;
};

struct ExchangeResult {
  bool completed = false;
  std::size_t attempts = 0;
  /// Transmissions made, both legs.
  std::size_t messages = 0;
  /// Every timeout waited, plus both legs of the completed attempt.
  SimDuration latency = 0;
  /// The far end's reply: as received when the exchange completed, else
  /// the saved one (a grant the sender never confirmed must be released
  /// by the caller). Empty when the far end never ran.
  std::optional<RarReply> reply;
};

/// The far end's evaluation of the request. Called at most once per
/// exchange.
using FarEnd = std::function<RarReply(const Arrival&)>;

ExchangeResult exchange(Transport& transport, const RetryPolicy& policy,
                        const Exchange& request, const FarEnd& far_end);

/// The denial of an exchange that spent its budget without an answer from
/// `peer`: kTimeout, attributed to `origin`.
Error no_answer(const std::string& peer, std::size_t attempts,
                const std::string& origin);

}  // namespace e2e::sig
