#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

namespace e2e::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string TraceContext::remote_parent_ref() const {
  return origin + ":" + std::to_string(span_id);
}

const std::string* Span::attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

TraceRecorder::Slot& TraceRecorder::slot(SpanId id) {
  const std::size_t index = id - chunk_base_;
  return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
}

const TraceRecorder::Slot& TraceRecorder::slot(SpanId id) const {
  const std::size_t index = id - chunk_base_;
  return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
}

TraceRecorder::Slot* TraceRecorder::find(SpanId id) {
  // Ids are dense and ascending from first_id_; index directly.
  if (id < first_id_ || id >= next_id_) return nullptr;
  Slot& s = slot(id);
  return s.id == 0 ? nullptr : &s;
}

TraceRecorder::Slot& TraceRecorder::claim(SpanId id) {
  if (((id - chunk_base_) >> kChunkBits) == chunks_.size()) {
    if (!chunks_.empty() && chunk_base_ + kChunkSlots <= first_id_) {
      chunks_.push_back(std::move(chunks_.front()));
      chunks_.pop_front();
      chunk_base_ += kChunkSlots;
    } else {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
  }
  return slot(id);
}

SpanId TraceRecorder::begin_span(const std::string& trace_id,
                                 const std::string& name, SpanId parent,
                                 SimTime start) {
  // A full store gives up its oldest trace, unless that is the trace
  // being written. first_id_ is live whenever the store is not empty.
  if (next_id_ - first_id_ >= kMaxSpans &&
      slot(first_id_).trace_id != trace_id) {
    evict_oldest_trace();
  }
  const SpanId id = next_id_++;
  Slot& s = claim(id);
  s.id = id;
  s.parent = parent;
  s.next_in_trace = 0;
  s.trace_id = trace_id;
  s.name = name;
  s.start = start;
  s.end = start;
  s.first_attr = kNoAttr;
  s.last_attr = kNoAttr;
  s.failed = false;
  link(s);
  ++live_;
  return id;
}

void TraceRecorder::link(Slot& s) {
  // Consecutive spans of one trace link to the newest span without a
  // lookup; only a span that changes trace consults the index.
  SpanId first = 0;
  if (s.id > first_id_) {
    const Slot& newest = slot(s.id - 1);
    if (newest.id != 0 && newest.trace_id == s.trace_id) {
      first = newest.trace_first;
      s.trace_hash = newest.trace_hash;
    }
  }
  if (first == 0) {
    s.trace_hash = std::hash<std::string>{}(s.trace_id);
    first = find_trace(s.trace_id, s.trace_hash);
  }
  if (first == 0) {  // a new trace
    s.trace_first = s.id;
    s.trace_last = s.id;
    index_trace(s.trace_hash, s.id);
    return;
  }
  s.trace_first = first;
  Slot& head = slot(first);
  slot(head.trace_last).next_in_trace = s.id;
  head.trace_last = s.id;
}

void TraceRecorder::evict_oldest_trace() {
  // The front span is the first span of the oldest trace; its chain
  // reaches every span of that trace, wherever later traces interleaved
  // with it.
  const Slot& front = slot(first_id_);
  unindex_trace(front.trace_hash, first_id_);
  for (SpanId id = first_id_; id != 0;) {
    Slot& s = slot(id);
    if (s.first_attr != kNoAttr) {
      attrs_[s.last_attr].next = free_attr_;
      free_attr_ = s.first_attr;
    }
    s.id = 0;
    --live_;
    id = s.next_in_trace;
  }
  while (first_id_ < next_id_ && slot(first_id_).id == 0) ++first_id_;
}

SpanId TraceRecorder::find_trace(const std::string& trace_id,
                                 std::size_t hash) const {
  if (index_.empty()) return 0;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask; index_[i].first != 0; i = (i + 1) & mask) {
    if (index_[i].hash == hash && slot(index_[i].first).trace_id == trace_id) {
      return index_[i].first;
    }
  }
  return 0;
}

void TraceRecorder::index_trace(std::size_t hash, SpanId first) {
  if (2 * (traces_ + 1) > index_.size()) {
    std::vector<TraceEntry> old(std::max<std::size_t>(16, 2 * index_.size()));
    old.swap(index_);
    traces_ = 0;
    for (const TraceEntry& entry : old) {
      if (entry.first != 0) index_trace(entry.hash, entry.first);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].first != 0) i = (i + 1) & mask;
  index_[i] = TraceEntry{hash, first};
  ++traces_;
}

void TraceRecorder::unindex_trace(std::size_t hash, SpanId first) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].first != first) i = (i + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole.
  for (std::size_t j = (i + 1) & mask; index_[j].first != 0;
       j = (j + 1) & mask) {
    const std::size_t home = index_[j].hash & mask;
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (!stays) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = TraceEntry{};
  --traces_;
}

std::uint32_t TraceRecorder::new_attr() {
  if (free_attr_ != kNoAttr) {
    const std::uint32_t a = free_attr_;
    free_attr_ = attrs_[a].next;
    return a;
  }
  attrs_.emplace_back();
  return static_cast<std::uint32_t>(attrs_.size() - 1);
}

void TraceRecorder::end_span(SpanId id, SimTime end) {
  if (Slot* s = find(id)) s->end = end;
}

void TraceRecorder::annotate(SpanId id, const std::string& key,
                             const std::string& value) {
  Slot* s = find(id);
  if (s == nullptr) return;
  const std::uint32_t a = new_attr();
  Attr& attr = attrs_[a];
  attr.key = key;
  attr.value = value;
  attr.next = kNoAttr;
  if (s->last_attr == kNoAttr) {
    s->first_attr = a;
  } else {
    attrs_[s->last_attr].next = a;
  }
  s->last_attr = a;
}

void TraceRecorder::fail_span(SpanId id, const std::string& reason) {
  if (Slot* s = find(id)) {
    s->failed = true;
    annotate(id, "error", reason);
  }
}

Span TraceRecorder::export_span(const Slot& s) const {
  Span span;
  span.id = s.id;
  span.parent = s.parent;
  span.trace_id = s.trace_id;
  span.name = s.name;
  span.start = s.start;
  span.end = s.end;
  span.failed = s.failed;
  for (std::uint32_t a = s.first_attr; a != kNoAttr; a = attrs_[a].next) {
    span.attributes.emplace_back(attrs_[a].key, attrs_[a].value);
  }
  return span;
}

std::vector<Span> TraceRecorder::trace(const std::string& trace_id) const {
  std::vector<Span> out;
  const SpanId first =
      find_trace(trace_id, std::hash<std::string>{}(trace_id));
  for (SpanId id = first; id != 0; id = slot(id).next_in_trace) {
    out.push_back(export_span(slot(id)));
  }
  return out;
}

std::vector<Span> TraceRecorder::spans() const {
  std::vector<Span> out;
  out.reserve(live_);
  for (SpanId id = first_id_; id < next_id_; ++id) {
    if (slot(id).id != 0) out.push_back(export_span(slot(id)));
  }
  return out;
}

std::vector<Span> TraceRecorder::spans(
    const std::unordered_set<std::string>& trace_ids) const {
  // Walk only the chains of the requested traces, then restore creation
  // order across them.
  std::vector<SpanId> ids;
  for (const std::string& trace_id : trace_ids) {
    const SpanId first =
        find_trace(trace_id, std::hash<std::string>{}(trace_id));
    for (SpanId id = first; id != 0; id = slot(id).next_in_trace) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  std::vector<Span> out;
  out.reserve(ids.size());
  for (const SpanId id : ids) out.push_back(export_span(slot(id)));
  return out;
}

std::vector<std::string> TraceRecorder::trace_ids() const {
  std::vector<std::string> ids;
  for (SpanId id = first_id_; id < next_id_; ++id) {
    const Slot& s = slot(id);
    if (s.id != 0 && s.trace_first == id) ids.push_back(s.trace_id);
  }
  return ids;
}

void TraceRecorder::visit_trace_ids_newest_first(
    const std::function<bool(const std::string&)>& visit) const {
  for (SpanId id = next_id_; id-- > first_id_;) {
    const Slot& s = slot(id);
    if (s.id != 0 && s.trace_first == id && !visit(s.trace_id)) return;
  }
}

bool TraceRecorder::has_trace(const std::string& trace_id) const {
  return find_trace(trace_id, std::hash<std::string>{}(trace_id)) != 0;
}

std::size_t TraceRecorder::span_count() const {
  return live_;
}

void TraceRecorder::clear() {
  chunks_.clear();
  chunk_base_ = 1;
  first_id_ = 1;
  next_id_ = 1;
  live_ = 0;
  attrs_.clear();
  free_attr_ = kNoAttr;
  index_.clear();
  traces_ = 0;
}

std::string TraceRecorder::render_tree(const std::string& trace_id) const {
  const std::vector<Span> spans = trace(trace_id);
  if (spans.empty()) return "(no spans for trace " + trace_id + ")\n";
  // Offsets are relative to the trace's earliest start so trees read the
  // same regardless of the absolute virtual time of submission.
  SimTime origin = spans.front().start;
  for (const Span& span : spans) origin = std::min(origin, span.start);

  std::ostringstream out;
  out << "trace " << trace_id << "\n";
  // Creation order already places parents before children; emit each root
  // and recurse.
  auto emit = [&](auto&& self, const Span& span, int depth) -> void {
    for (int i = 0; i < depth; ++i) out << "   ";
    if (depth > 0) out << "`- ";
    out << span.name << "  [+" << (span.start - origin) << "us .. +"
        << (span.end - origin) << "us]  (" << span.duration() << " us)";
    for (const auto& [key, value] : span.attributes) {
      out << "  " << key << "=" << value;
    }
    if (span.failed) out << "  [FAILED]";
    out << "\n";
    for (const Span& child : spans) {
      if (child.parent == span.id) self(self, child, depth + 1);
    }
  };
  for (const Span& span : spans) {
    if (span.parent == 0) emit(emit, span, 0);
  }
  return out.str();
}

std::string TraceRecorder::to_json(const std::string& trace_id) const {
  const std::vector<Span> spans = trace(trace_id);
  std::ostringstream out;
  out << "{\"trace_id\":\"" << json_escape(trace_id) << "\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i > 0) out << ",";
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << json_escape(span.name) << "\",\"start_us\":"
        << span.start << ",\"end_us\":" << span.end << ",\"failed\":"
        << (span.failed ? "true" : "false") << ",\"attributes\":{";
    for (std::size_t a = 0; a < span.attributes.size(); ++a) {
      if (a > 0) out << ",";
      out << "\"" << json_escape(span.attributes[a].first) << "\":\""
          << json_escape(span.attributes[a].second) << "\"";
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

SpanScope::SpanScope(TraceRecorder* primary, TraceRecorder* secondary,
                     const std::string& trace_id, const std::string& name,
                     SpanId primary_parent, SpanId secondary_parent,
                     const SimTime* cursor)
    : primary_(primary), secondary_(secondary), cursor_(cursor),
      finished_(false) {
  const SimTime start = cursor_ ? *cursor_ : 0;
  if (primary_) {
    primary_id_ = primary_->begin_span(trace_id, name, primary_parent, start);
  }
  if (secondary_) {
    secondary_id_ =
        secondary_->begin_span(trace_id, name, secondary_parent, start);
  }
}

SpanScope::~SpanScope() { finish(); }

SpanScope::SpanScope(SpanScope&& other) noexcept
    : primary_(other.primary_),
      secondary_(other.secondary_),
      primary_id_(other.primary_id_),
      secondary_id_(other.secondary_id_),
      cursor_(other.cursor_),
      finished_(other.finished_) {
  other.finished_ = true;
}

SpanScope& SpanScope::operator=(SpanScope&& other) noexcept {
  if (this != &other) {
    finish();
    primary_ = other.primary_;
    secondary_ = other.secondary_;
    primary_id_ = other.primary_id_;
    secondary_id_ = other.secondary_id_;
    cursor_ = other.cursor_;
    finished_ = other.finished_;
    other.finished_ = true;
  }
  return *this;
}

void SpanScope::annotate(const std::string& key, const std::string& value) {
  if (primary_ && primary_id_ != 0) primary_->annotate(primary_id_, key, value);
  if (secondary_ && secondary_id_ != 0) {
    secondary_->annotate(secondary_id_, key, value);
  }
}

void SpanScope::annotate_secondary(const std::string& key,
                                   const std::string& value) {
  if (secondary_ && secondary_id_ != 0) {
    secondary_->annotate(secondary_id_, key, value);
  }
}

void SpanScope::fail(const std::string& reason) {
  if (primary_ && primary_id_ != 0) primary_->fail_span(primary_id_, reason);
  if (secondary_ && secondary_id_ != 0) {
    secondary_->fail_span(secondary_id_, reason);
  }
}

void SpanScope::finish() {
  if (finished_) return;
  finish_at(cursor_ ? *cursor_ : 0);
}

void SpanScope::finish_at(SimTime end) {
  if (finished_) return;
  finished_ = true;
  if (primary_ && primary_id_ != 0) primary_->end_span(primary_id_, end);
  if (secondary_ && secondary_id_ != 0) {
    secondary_->end_span(secondary_id_, end);
  }
}

namespace {

SpanRef& thread_span_ref() {
  thread_local SpanRef ref;
  return ref;
}

}  // namespace

const SpanRef& current_span_ref() { return thread_span_ref(); }

CurrentSpan::CurrentSpan(SpanRef ref) : saved_(thread_span_ref()) {
  thread_span_ref() = std::move(ref);
}

CurrentSpan::~CurrentSpan() { thread_span_ref() = std::move(saved_); }

}  // namespace e2e::obs
