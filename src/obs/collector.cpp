#include "obs/collector.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace e2e::obs {

namespace {

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// Parse a `remote.parent` value ("Origin:span_id"); returns false on
/// malformed input.
bool parse_remote_parent(const std::string& value, std::string& origin,
                         SpanId& id) {
  const auto colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= value.size()) {
    return false;
  }
  origin = value.substr(0, colon);
  id = 0;
  for (std::size_t i = colon + 1; i < value.size(); ++i) {
    const char c = value[i];
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<SpanId>(c - '0');
  }
  return id != 0;
}

/// Stitch (domain, span) entries into a forest and emit it pre-order.
std::vector<CollectedSpan> stitch(std::vector<CollectedSpan> entries) {
  // (domain, local id) -> entry index.
  std::map<std::pair<std::string, SpanId>, std::size_t> index;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    index.emplace(std::make_pair(entries[i].domain, entries[i].span.id), i);
  }
  std::vector<std::size_t> parent(entries.size(), kNoParent);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CollectedSpan& entry = entries[i];
    std::pair<std::string, SpanId> key;
    if (entry.span.parent != 0) {
      key = {entry.domain, entry.span.parent};
    } else if (const std::string* ref =
                   entry.span.attribute("remote.parent")) {
      std::string origin;
      SpanId id = 0;
      if (!parse_remote_parent(*ref, origin, id)) continue;
      key = {std::move(origin), id};
    } else {
      continue;  // root
    }
    const auto it = index.find(key);
    if (it != index.end() && it->second != i) parent[i] = it->second;
  }
  std::vector<std::vector<std::size_t>> children(entries.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (parent[i] == kNoParent) {
      roots.push_back(i);
    } else {
      children[parent[i]].push_back(i);
    }
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    return entries[a].span.start < entries[b].span.start;
  };
  std::stable_sort(roots.begin(), roots.end(), by_start);
  for (auto& list : children) {
    std::stable_sort(list.begin(), list.end(), by_start);
  }
  std::vector<CollectedSpan> out;
  out.reserve(entries.size());
  // Each entry has at most one parent, so it is emitted at most once and
  // can be moved out.
  auto emit = [&](auto&& self, std::size_t i, int depth) -> void {
    entries[i].depth = depth;
    out.push_back(std::move(entries[i]));
    for (const std::size_t child : children[i]) {
      self(self, child, depth + 1);
    }
  };
  for (const std::size_t root : roots) emit(emit, root, 0);
  return out;
}

}  // namespace

void SpanCollector::ingest(const std::string& domain,
                           const TraceRecorder& recorder) {
  ingest_spans(domain, recorder.spans());
}

void SpanCollector::ingest(const std::string& domain,
                           const TraceRecorder& recorder,
                           const std::unordered_set<std::string>& trace_ids) {
  ingest_spans(domain, recorder.spans(trace_ids));
}

void SpanCollector::ingest_spans(const std::string& domain,
                                 std::vector<Span> spans) {
  for (Export& exp : exports_) {
    if (exp.domain == domain) {
      exp.spans = std::move(spans);
      return;
    }
  }
  exports_.push_back(Export{domain, std::move(spans)});
}

std::unordered_set<std::string> newest_trace_ids(
    const std::vector<const TraceRecorder*>& recorders, std::size_t n) {
  // The collector lists a trace under the first recorder that holds it,
  // so its order ends with the last recorder's own traces. Walk the
  // recorders from the last one back, each from its newest trace, and
  // stop at `n`.
  std::unordered_set<std::string> newest;
  for (std::size_t k = recorders.size(); k-- > 0 && newest.size() < n;) {
    recorders[k]->visit_trace_ids_newest_first([&](const std::string& id) {
      for (std::size_t j = 0; j < k; ++j) {
        if (recorders[j]->has_trace(id)) return true;
      }
      newest.insert(id);
      return newest.size() < n;
    });
  }
  return newest;
}

std::vector<std::string> SpanCollector::trace_ids() const {
  std::vector<std::string> ids;
  std::unordered_set<std::string_view> seen;
  for (const Export& exp : exports_) {
    for (const Span& span : exp.spans) {
      if (seen.insert(span.trace_id).second) ids.push_back(span.trace_id);
    }
  }
  return ids;
}

std::size_t SpanCollector::span_count() const {
  std::size_t n = 0;
  for (const Export& exp : exports_) n += exp.spans.size();
  return n;
}

void SpanCollector::clear() {
  exports_.clear();
}

std::vector<CollectedSpan> SpanCollector::flatten(
    const std::string& trace_id) const {
  std::vector<CollectedSpan> entries;
  for (const Export& exp : exports_) {
    for (const Span& span : exp.spans) {
      if (span.trace_id != trace_id) continue;
      entries.push_back(CollectedSpan{exp.domain, span, 0});
    }
  }
  return stitch(std::move(entries));
}

std::vector<CollectedSpan> SpanCollector::flatten_recorder(
    const TraceRecorder& recorder, const std::string& trace_id) {
  // A single recorder needs no remote links; ids are already unique.
  std::vector<CollectedSpan> entries;
  for (Span& span : recorder.trace(trace_id)) {
    entries.push_back(CollectedSpan{"", std::move(span), 0});
  }
  return stitch(std::move(entries));
}

std::string SpanCollector::render_tree(const std::string& trace_id) const {
  const std::vector<CollectedSpan> tree = flatten(trace_id);
  if (tree.empty()) return "(no spans for trace " + trace_id + ")\n";
  SimTime origin = tree.front().span.start;
  for (const CollectedSpan& node : tree) {
    origin = std::min(origin, node.span.start);
  }
  std::ostringstream out;
  out << "trace " << trace_id << " (collected from "
      << exports_.size() << " domains)\n";
  for (const CollectedSpan& node : tree) {
    for (int i = 0; i < node.depth; ++i) out << "   ";
    if (node.depth > 0) out << "`- ";
    out << "[" << (node.domain.empty() ? "?" : node.domain) << "] "
        << node.span.name << "  [+" << (node.span.start - origin)
        << "us .. +" << (node.span.end - origin) << "us]  ("
        << node.span.duration() << " us)";
    for (const auto& [key, value] : node.span.attributes) {
      out << "  " << key << "=" << value;
    }
    if (node.span.failed) out << "  [FAILED]";
    out << "\n";
  }
  return out.str();
}

}  // namespace e2e::obs
