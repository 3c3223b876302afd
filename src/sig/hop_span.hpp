// The per-broker hop span shared by the signalling engines (private to
// src/sig).
#pragma once

#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace e2e::sig {

/// One broker's hop span for one request, plus the virtual-time cursor its
/// stage spans start and end on.
///
/// Every hop records into the engine-wide reference recorder when a test
/// attached one. The domain's own recorder records only when `arrived`,
/// the request's wire trace context, is valid and sampled: the transport envelope, not shared engine
/// state, links the per-domain recorders. The origin hop parents locally
/// under `local_parent`; a hop that received the request from another
/// domain (`local_parent` == 0) carries `remote.parent` and `hop.index`
/// instead, which obs::SpanCollector resolves across the exports.
struct HopSpan {
  HopSpan(obs::TraceRecorder* reference_recorder,
          obs::TraceRecorder* domain_recorder, std::string trace,
          obs::SpanId parent, obs::SpanId local_parent,
          const obs::TraceContext& arrived, const std::string& domain,
          SimTime arrival)
      : reference(reference_recorder),
        local(domain_recorder != nullptr && arrived.valid() && arrived.sampled
                  ? domain_recorder
                  : nullptr),
        trace_id(std::move(trace)),
        cursor(arrival),
        span(reference, local, trace_id, "hop", parent, local_parent,
             &cursor) {
    span.annotate("domain", domain);
    if (local != nullptr && local_parent == 0) {
      span.annotate_secondary("remote.parent", arrived.remote_parent_ref());
      span.annotate_secondary("hop.index", std::to_string(arrived.hop_count));
    }
  }
  HopSpan(const HopSpan&) = delete;
  HopSpan& operator=(const HopSpan&) = delete;

  /// A pipeline-stage span (verify, policy, admission, ...) under this hop,
  /// starting at the cursor.
  obs::SpanScope stage(const char* name) const {
    return obs::SpanScope(reference, local, trace_id, name, span.id(),
                          span.secondary_id(), &cursor);
  }

  /// Audit records written inside `stage` join its per-domain span when the
  /// domain records locally, else the reference one.
  obs::SpanRef ref(const obs::SpanScope& stage) const {
    const obs::SpanId id =
        stage.secondary_id() != 0 ? stage.secondary_id() : stage.id();
    return obs::SpanRef{id != 0 ? trace_id : std::string(), id, cursor};
  }

  obs::TraceRecorder* const reference;
  obs::TraceRecorder* const local;
  const std::string trace_id;
  SimTime cursor;
  obs::SpanScope span;
};

}  // namespace e2e::sig
