#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_set>
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

Span* TraceRecorder::find(SpanId id) {
  // Ids are dense and ascending from first_id_; index directly.
  if (id < first_id_ || id - first_id_ >= spans_.size()) return nullptr;
  Span& span = spans_[id - first_id_];
  return span.id == 0 ? nullptr : &span;
}

SpanId TraceRecorder::begin_span(const std::string& trace_id,
                                 const std::string& name, SpanId parent,
                                 SimTime start) {
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.trace_id = trace_id;
  span.name = name;
  span.start = start;
  span.end = start;
  const SpanId id = span.id;
  spans_.push_back(std::move(span));
  if (++live_ > evict_at_) evict(trace_id);
  return id;
}

void TraceRecorder::evict(const std::string& keep) {
  // One pass frees about half the bound, so eviction costs amortised O(1)
  // per span. A trace's spans mostly sit next to each other, so both
  // loops touch the set only where the trace id changes. The trace being
  // written is never split.
  std::unordered_set<std::string> oldest;
  std::size_t seen = 0;
  const std::string* run = nullptr;
  for (const Span& span : spans_) {
    if (seen == live_ / 2) break;
    if (span.id == 0) continue;
    ++seen;
    if (run != nullptr && span.trace_id == *run) continue;
    run = &span.trace_id;
    if (span.trace_id != keep) oldest.insert(span.trace_id);
  }
  if (!oldest.empty()) {
    std::string run_id;
    bool in_run = false;
    bool evict = false;
    for (Span& span : spans_) {
      if (span.id == 0) continue;
      if (!in_run || span.trace_id != run_id) {
        run_id = span.trace_id;
        in_run = true;
        evict = oldest.contains(run_id);
      }
      if (evict) {
        span = Span{};
        --live_;
      }
    }
  }
  while (!spans_.empty() && spans_.front().id == 0) {
    spans_.pop_front();
    ++first_id_;
  }
  // When one trace alone outgrows the bound, wait for another quarter of
  // growth before the next pass instead of rescanning on every span.
  evict_at_ = std::max(kMaxSpans, live_ + live_ / 4);
}

void TraceRecorder::end_span(SpanId id, SimTime end) {
  if (Span* span = find(id)) span->end = end;
}

void TraceRecorder::annotate(SpanId id, const std::string& key,
                             const std::string& value) {
  if (Span* span = find(id)) span->attributes.emplace_back(key, value);
}

void TraceRecorder::fail_span(SpanId id, const std::string& reason) {
  if (Span* span = find(id)) {
    span->failed = true;
    span->attributes.emplace_back("error", reason);
  }
}

std::vector<Span> TraceRecorder::trace(const std::string& trace_id) const {
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.id != 0 && span.trace_id == trace_id) out.push_back(span);
  }
  return out;
}

std::vector<Span> TraceRecorder::spans() const {
  std::vector<Span> out;
  out.reserve(live_);
  for (const Span& span : spans_) {
    if (span.id != 0) out.push_back(span);
  }
  return out;
}

std::vector<Span> TraceRecorder::spans(
    const std::unordered_set<std::string>& trace_ids) const {
  // A trace's spans mostly sit next to each other, so the set is consulted
  // only where the trace id changes (as in evict()).
  std::vector<Span> out;
  const std::string* run = nullptr;
  bool keep = false;
  for (const Span& span : spans_) {
    if (span.id == 0) continue;
    if (run == nullptr || span.trace_id != *run) {
      run = &span.trace_id;
      keep = trace_ids.contains(span.trace_id);
    }
    if (keep) out.push_back(span);
  }
  return out;
}

std::vector<std::string> TraceRecorder::trace_ids() const {
  std::vector<std::string> ids;
  std::unordered_set<std::string_view> seen;
  const std::string* run = nullptr;
  for (const Span& span : spans_) {
    if (span.id == 0 || (run != nullptr && span.trace_id == *run)) continue;
    run = &span.trace_id;
    if (seen.insert(span.trace_id).second) ids.push_back(span.trace_id);
  }
  return ids;
}

std::size_t TraceRecorder::span_count() const {
  return live_;
}

void TraceRecorder::clear() {
  spans_.clear();
  live_ = 0;
  evict_at_ = kMaxSpans;
  first_id_ = 1;
  next_id_ = 1;
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
