#include "sig/exchange.hpp"

#include "crypto/sha256.hpp"
#include "obs/instruments.hpp"

namespace e2e::sig {

namespace {

/// Timeout jitter is seeded by the request itself: the first eight bytes of
/// its SHA-256, big-endian.
std::uint64_t jitter_seed(BytesView request) {
  const crypto::Digest digest = crypto::sha256(request);
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i < 8; ++i) seed = (seed << 8) | digest[i];
  return seed;
}

/// Open a delivered record at `receiver`. The duplicate copy trails the
/// original, so the record layer's strictly-increasing sequence check
/// refuses it.
Result<Bytes> open_delivered(Session& receiver, Record record,
                             const Delivery& delivery) {
  record.payload = delivery.payload;
  auto opened = receiver.open(record);
  if (delivery.duplicated) {
    (void)receiver.open(record);
    obs::MetricsRegistry::global()
        .counter(obs::kSigDuplicatesSuppressedTotal, {{"via", "channel"}})
        .increment();
  }
  return opened;
}

}  // namespace

Error no_answer(const std::string& peer, std::size_t attempts,
                const std::string& origin) {
  return make_error(ErrorCode::kTimeout,
                    "no answer from " + peer + " after " +
                        std::to_string(attempts) + " attempts",
                    origin);
}

ExchangeResult exchange(Transport& transport, const RetryPolicy& policy,
                        const Exchange& request, const FarEnd& far_end) {
  auto& registry = obs::MetricsRegistry::global();
  auto engine = [&] { return obs::Labels{{"engine", request.engine}}; };
  const std::uint64_t seed = jitter_seed(request.request);
  const bool channel = request.near != nullptr;
  ExchangeResult result;
  for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) {
      registry.counter(obs::kSigRetransmitsTotal, engine()).increment();
    }
    // The sender waits at most this long for the answer; every failure
    // below charges it.
    const SimDuration timeout = retry_timeout(policy, attempt, seed);
    auto timed_out = [&] {
      registry.counter(obs::kSigTimeoutsTotal, engine()).increment();
      result.latency += timeout;
    };

    Record record;
    if (channel) record = request.near->seal(request.request);
    Delivery sent = transport.transmit(request.from, request.to,
                                       request.request, request.trace_context);
    ++result.messages;
    if (!sent.delivered()) {
      timed_out();
      continue;
    }
    Bytes payload;
    if (channel) {
      auto opened = open_delivered(*request.far, std::move(record), sent);
      if (!opened.ok()) {
        timed_out();  // corrupted in transit; the receiver stays silent
        continue;
      }
      payload = std::move(*opened);
    } else if (sent.corrupted) {
      timed_out();  // no channel to authenticate it: discarded as lost
      continue;
    } else {
      payload = std::move(sent.payload);
    }

    if (result.reply.has_value()) {
      registry
          .counter(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}})
          .increment();
    } else {
      result.reply = far_end(Arrival{payload, result.latency, sent.latency,
                                     sent.trace_context});
    }
    // Without a channel, a trailing duplicate copy is recognized by the far
    // end and answered from the saved reply.
    if (!channel && sent.duplicated) {
      registry
          .counter(obs::kSigDuplicatesSuppressedTotal, {{"via", "cache"}})
          .increment();
    }

    SimDuration back_latency = 0;
    if (request.reply_leg != ReplyLeg::kNone) {
      const bool sealed = request.reply_leg == ReplyLeg::kSealed;
      const Bytes reply_wire = sealed ? result.reply->encode() : Bytes(64, 0);
      Record reply_record;
      if (sealed) reply_record = request.far->seal(reply_wire);
      Delivery back = transport.transmit(request.to, request.from, reply_wire);
      ++result.messages;
      if (!back.delivered()) {
        timed_out();
        continue;
      }
      if (sealed) {
        auto opened =
            open_delivered(*request.near, std::move(reply_record), back);
        auto decoded = opened.ok() ? RarReply::decode(*opened)
                                   : Result<RarReply>(opened.error());
        if (!decoded.ok()) {
          timed_out();
          continue;
        }
        result.reply = std::move(*decoded);
      }
      back_latency = back.latency;
    }
    result.latency += sent.latency + back_latency;
    result.completed = true;
    break;
  }
  if (result.attempts > 1) {
    registry.histogram(obs::kSigRetryAttempts, engine())
        .observe(static_cast<double>(result.attempts));
  }
  return result;
}

}  // namespace e2e::sig
