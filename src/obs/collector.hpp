// Cross-domain span collection: the destination side of distributed
// tracing.
//
// Each broker records its hops into a domain-local TraceRecorder; the
// propagated TraceContext makes every local root carry a `remote.parent`
// attribute ("Origin:span_id") naming the span — in the origin domain's
// recorder — it belongs under. A SpanCollector ingests the per-domain
// exports and stitches them back into one end-to-end tree that the
// destination (or a test harness) can flatten, render, and compare
// node-for-node against the source-side reference tree.
//
// Parent resolution is purely structural: (domain, local span id) keys the
// nodes, local parent ids resolve within the same export, and
// `remote.parent` references resolve across exports. Children are ordered
// by virtual start time (ties: ingest order), which matches the reference
// recorder's creation order because the virtual clock advances
// monotonically along the signalling path.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/trace.hpp"

namespace e2e::obs {

/// One node of a reconstructed end-to-end trace.
struct CollectedSpan {
  std::string domain;  // exporting domain
  Span span;           // as exported by that domain's recorder
  int depth = 0;       // depth in the merged tree (0 = root)
};

class SpanCollector {
 public:
  SpanCollector() = default;
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Merge one domain's recorder export (its retained spans).
  /// Re-ingesting the same domain replaces its previous export.
  void ingest(const std::string& domain, const TraceRecorder& recorder);
  /// ingest() restricted to the spans of the traces in `trace_ids`.
  void ingest(const std::string& domain, const TraceRecorder& recorder,
              const std::unordered_set<std::string>& trace_ids);

  std::vector<std::string> trace_ids() const;
  std::size_t span_count() const;
  void clear();

  /// Merged tree of one trace, pre-order (parents before children,
  /// children by ascending start). Spans whose remote parent was never
  /// ingested surface as extra roots rather than disappearing.
  std::vector<CollectedSpan> flatten(const std::string& trace_id) const;

  /// Same pre-order flattening applied to a single recorder (no remote
  /// links) — produces the source-side reference shape collector trees
  /// are compared against in tests.
  static std::vector<CollectedSpan> flatten_recorder(
      const TraceRecorder& recorder, const std::string& trace_id);

  /// Human-readable merged tree, one line per span with the exporting
  /// domain in front:
  ///   [DomainA] reservation  [+0us .. +47000us]  user=Alice
  ///   `- [DomainB] hop  [+1000us .. +2000us]  domain=DomainB
  std::string render_tree(const std::string& trace_id) const;

 private:
  struct Export {
    std::string domain;
    std::vector<Span> spans;
  };

  void ingest_spans(const std::string& domain, std::vector<Span> spans);

  std::vector<Export> exports_;  // ingest order
};

/// The last `n` ids SpanCollector::trace_ids() would list after ingesting
/// `recorders` in this order, found without copying a span: ingesting
/// only these traces renders their trees exactly as a full ingest does.
/// Each recorder is walked from its newest trace; a trace already held by
/// an earlier recorder costs one lookup there and is passed over.
std::unordered_set<std::string> newest_trace_ids(
    const std::vector<const TraceRecorder*>& recorders, std::size_t n);

}  // namespace e2e::obs
