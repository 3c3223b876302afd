// Per-request trace trees for the signalling plane.
//
// A TraceRecorder collects spans keyed by a request id (the trace id): one
// root "reservation" span per end-to-end RAR, one "hop" child per broker
// that processed it, and step children under each hop for the §6.1/§6.2
// pipeline stages (verify, policy, admission, sign_and_forward,
// channel_handshake). Timestamps are virtual-clock microseconds
// (common/clock.hpp), so traces are deterministic and assertable in tests.
//
// The span schema — names, attribute keys, failure tagging — is the
// contract documented in docs/OBSERVABILITY.md; obs_contract_test diffs
// emitted attribute keys against that document.
//
// Retention is bounded: a recorder holds at most kMaxSpans span slots.
// When they are all taken, the next begin_span evicts the oldest whole
// trace (first-seen order) and reuses its slots in place, so a
// long-running daemon keeps its most recent traces without growing or
// allocating, and no single span pays for a pass over the store.
//
// A recorder belongs to its world, and one thread owns a world
// (docs/ARCHITECTURE.md): the recorder carries no lock. bbd renders
// /tracez on the same loop that runs requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace e2e::obs {

/// Recorder-local span handle; 0 is "no span" (safe to pass as a parent).
using SpanId = std::uint64_t;

/// Wire trace context, W3C-traceparent style, carried hop to hop in the
/// *unsigned* transport envelope (sig/transport.hpp) so the signed RAR
/// bytes — and therefore signatures, digests and grants — are untouched.
/// Each receiving broker parents its local hop span under
/// `origin`:`span_id` via the `remote.parent` span attribute, and
/// obs/collector.hpp stitches the per-domain exports back into one tree.
struct TraceContext {
  std::string trace_id;       // end-to-end request id, e.g. "rar-7"
  std::string origin;         // domain whose recorder owns `span_id`
  std::uint64_t span_id = 0;  // remote parent span (root of the trace)
  std::uint32_t hop_count = 0;  // hops traversed before this transmission
  bool sampled = true;        // false = downstream hops skip recording

  bool valid() const { return !trace_id.empty() && span_id != 0; }
  /// "Origin:span_id" — the value local spans store under `remote.parent`.
  std::string remote_parent_ref() const;
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root of its trace
  std::string trace_id;
  std::string name;
  SimTime start = 0;
  SimTime end = 0;
  /// Attribute key/value pairs, in insertion order.
  std::vector<std::pair<std::string, std::string>> attributes;
  bool failed = false;

  SimDuration duration() const { return end - start; }
  /// First value recorded under `key`, or nullptr.
  const std::string* attribute(std::string_view key) const;
};

class TraceRecorder {
 public:
  /// Span slots a recorder fills before it evicts its oldest traces. A
  /// single trace larger than this is never split: the store grows
  /// instead until that trace is the oldest one left to evict.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 16;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Open a span at virtual time `start`. `parent` = 0 starts a new root.
  SpanId begin_span(const std::string& trace_id, const std::string& name,
                    SpanId parent, SimTime start);
  /// Close a span. A span never closed keeps end == start.
  void end_span(SpanId id, SimTime end);
  void annotate(SpanId id, const std::string& key, const std::string& value);
  /// Mark a span failed and record the reason under the "error" attribute.
  void fail_span(SpanId id, const std::string& reason);

  /// All spans of one trace, in creation order (parents before children).
  std::vector<Span> trace(const std::string& trace_id) const;
  /// Every retained span, in creation order.
  std::vector<Span> spans() const;
  /// Retained spans of the traces in `trace_ids`, in creation order.
  std::vector<Span> spans(
      const std::unordered_set<std::string>& trace_ids) const;
  /// Distinct retained trace ids, in first-seen order.
  std::vector<std::string> trace_ids() const;
  /// trace_ids() newest first, passed to `visit` until it returns false;
  /// walks back from the newest span and stops with the visitor.
  void visit_trace_ids_newest_first(
      const std::function<bool(const std::string&)>& visit) const;
  /// Whether any span of `trace_id` is retained.
  bool has_trace(const std::string& trace_id) const;
  /// Live (retained) spans.
  std::size_t span_count() const;
  void clear();

  /// Human-readable tree of one trace, children indented under parents,
  /// with virtual-time offsets and durations:
  ///   reservation  [+0us .. +47000us]  (47000 us)  user=Alice
  ///   `- hop  [+1000us .. +2000us]  (1000 us)  domain=DomainA
  ///      `- verify  [+1000us .. +1400us]  (400 us)
  std::string render_tree(const std::string& trace_id) const;

  /// JSON export: {"trace_id":...,"spans":[{...}]}.
  std::string to_json(const std::string& trace_id) const;

 private:
  static constexpr std::uint32_t kNoAttr = ~std::uint32_t{0};
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;

  /// One span's storage. Slots are reused in place once their span is
  /// evicted, keeping the capacity of their strings.
  struct Slot {
    SpanId id = 0;  // 0 = evicted
    SpanId parent = 0;
    /// The spans of one trace form a chain in id order: every span names
    /// its trace's first span and the next one; the first span also names
    /// the last.
    SpanId trace_first = 0;
    SpanId trace_last = 0;
    SpanId next_in_trace = 0;  // 0 = none
    std::size_t trace_hash = 0;
    std::string trace_id;
    std::string name;
    SimTime start = 0;
    SimTime end = 0;
    std::uint32_t first_attr = kNoAttr;  // chain through attrs_
    std::uint32_t last_attr = kNoAttr;
    bool failed = false;
  };
  /// One attribute; an evicted span's attributes go to a free list and
  /// are reused, strings and all, by later annotate() calls.
  struct Attr {
    std::string key;
    std::string value;
    std::uint32_t next = kNoAttr;
  };
  /// A retained trace in the open-addressing trace index (linear probing,
  /// load at most one half): its id's hash and its first span, whose slot
  /// holds the id itself. first == 0 marks an empty entry.
  struct TraceEntry {
    std::size_t hash = 0;
    SpanId first = 0;
  };

  /// Slots in id order, kChunkSlots to a chunk: the span with id `i` sits
  /// at offset i - chunk_base_. Chunks are allocated as ids advance, and a
  /// chunk whose spans have all been evicted moves to the back for reuse.
  /// An evicted span behind a live one stays as a tombstone (id 0) until
  /// first_id_ passes it.
  std::deque<std::unique_ptr<Slot[]>> chunks_;
  SpanId chunk_base_ = 1;
  SpanId first_id_ = 1;  // oldest retained span
  SpanId next_id_ = 1;
  std::size_t live_ = 0;
  std::deque<Attr> attrs_;
  std::uint32_t free_attr_ = kNoAttr;
  std::vector<TraceEntry> index_;  // size 0 or a power of two
  std::size_t traces_ = 0;

  Slot& slot(SpanId id);
  const Slot& slot(SpanId id) const;
  Slot* find(SpanId id);
  /// The slot for the next id, taking a new or recycled chunk if needed.
  Slot& claim(SpanId id);
  /// Append the new span `s` to its trace's chain, indexing a new trace.
  void link(Slot& s);
  /// Evict every span of the oldest retained trace.
  void evict_oldest_trace();
  /// First span of the retained trace `trace_id` (with hash `hash`), or 0.
  SpanId find_trace(const std::string& trace_id, std::size_t hash) const;
  void index_trace(std::size_t hash, SpanId first);
  void unindex_trace(std::size_t hash, SpanId first);
  std::uint32_t new_attr();
  Span export_span(const Slot& s) const;
};

/// RAII span guard that mirrors one logical span into up to two recorders:
/// the engine-wide "reference" recorder (primary; a test oracle, not
/// attached in a deployment) and the processing domain's local recorder
/// (secondary) whose export the collector merges.
/// The constructor opens the span(s) at `*cursor`; the destructor closes
/// them at the *current* `*cursor` value, so early returns no longer leak
/// spans with end == start. Either recorder may be null.
class SpanScope {
 public:
  SpanScope() = default;  // inactive
  SpanScope(TraceRecorder* primary, TraceRecorder* secondary,
            const std::string& trace_id, const std::string& name,
            SpanId primary_parent, SpanId secondary_parent,
            const SimTime* cursor);
  ~SpanScope();
  SpanScope(SpanScope&& other) noexcept;
  SpanScope& operator=(SpanScope&& other) noexcept;
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Record the attribute on both mirrors.
  void annotate(const std::string& key, const std::string& value);
  /// Record the attribute on the local (secondary) mirror only — used for
  /// collector-linking attributes (`remote.parent`, `hop.index`) that must
  /// not perturb the reference recorder's export.
  void annotate_secondary(const std::string& key, const std::string& value);
  /// Mark both mirrors failed with `reason`.
  void fail(const std::string& reason);
  /// Close now, at `*cursor`. Idempotent; the destructor then does nothing.
  void finish();
  /// Close at an explicit virtual time (e.g. a reply arrival).
  void finish_at(SimTime end);

  SpanId id() const { return primary_id_; }
  SpanId secondary_id() const { return secondary_id_; }
  bool active() const { return !finished_ && (primary_ || secondary_); }

 private:
  TraceRecorder* primary_ = nullptr;
  TraceRecorder* secondary_ = nullptr;
  SpanId primary_id_ = 0;
  SpanId secondary_id_ = 0;
  const SimTime* cursor_ = nullptr;
  bool finished_ = true;
};

/// The trace/span the current thread is processing, so deep call sites
/// (policy server, bandwidth broker) can join their audit records to the
/// active span without threading ids through every signature.
struct SpanRef {
  std::string trace_id;
  std::uint64_t span_id = 0;
  SimTime at = 0;  // virtual time of the enclosing processing step

  bool valid() const { return !trace_id.empty() && span_id != 0; }
};

/// Thread-local active span; a default-constructed (invalid) ref when no
/// CurrentSpan scope is open on this thread.
const SpanRef& current_span_ref();

/// RAII push/pop of the thread-local SpanRef (nests; restores the previous
/// ref on destruction).
class CurrentSpan {
 public:
  explicit CurrentSpan(SpanRef ref);
  ~CurrentSpan();
  CurrentSpan(const CurrentSpan&) = delete;
  CurrentSpan& operator=(const CurrentSpan&) = delete;

 private:
  SpanRef saved_;
};

}  // namespace e2e::obs
