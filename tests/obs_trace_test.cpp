// Trace-recorder tests: span mechanics plus the per-RAR trace trees the
// hop-by-hop engine emits (one hop span per domain, step spans for the
// §6.1/§6.2 pipeline, failure tagging on denials).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "testing_world.hpp"

namespace e2e::obs {
namespace {

using e2e::testing::attach_reference;
using e2e::testing::ChainWorld;
using e2e::testing::ChainWorldConfig;
using e2e::testing::WorldUser;

TEST(TraceRecorder, SpanLifecycleAndAttributes) {
  TraceRecorder rec;
  const SpanId root = rec.begin_span("t1", "reservation", 0, 100);
  const SpanId child = rec.begin_span("t1", "hop", root, 150);
  rec.annotate(child, "domain", "DomainA");
  rec.end_span(child, 350);
  rec.end_span(root, 500);

  const auto spans = rec.trace("t1");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "reservation");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].duration(), 400);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].duration(), 200);
  ASSERT_NE(spans[1].attribute("domain"), nullptr);
  EXPECT_EQ(*spans[1].attribute("domain"), "DomainA");
  EXPECT_EQ(spans[1].attribute("missing"), nullptr);
}

TEST(TraceRecorder, FailSpanRecordsErrorAttribute) {
  TraceRecorder rec;
  const SpanId s = rec.begin_span("t1", "verify", 0, 0);
  rec.fail_span(s, "bad signature");
  rec.end_span(s, 10);
  const auto spans = rec.trace("t1");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].failed);
  ASSERT_NE(spans[0].attribute("error"), nullptr);
  EXPECT_EQ(*spans[0].attribute("error"), "bad signature");
}

TEST(TraceRecorder, TracesAreIsolatedByTraceId) {
  TraceRecorder rec;
  rec.begin_span("rar-1", "reservation", 0, 0);
  rec.begin_span("rar-2", "reservation", 0, 0);
  EXPECT_EQ(rec.trace("rar-1").size(), 1u);
  EXPECT_EQ(rec.trace("rar-2").size(), 1u);
  const auto ids = rec.trace_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "rar-1");
  EXPECT_EQ(ids[1], "rar-2");
}

TEST(TraceRecorder, RetentionEvictsOldestWholeTraces) {
  // Three times the bound in five-span flows: the recorder must keep only
  // the newest whole traces.
  TraceRecorder rec;
  constexpr std::size_t kSpansPerFlow = 5;
  const std::size_t flows = 3 * TraceRecorder::kMaxSpans / kSpansPerFlow;
  std::string newest;
  for (std::size_t f = 0; f < flows; ++f) {
    newest = "flow-" + std::to_string(f);
    const SimTime t = static_cast<SimTime>(f);
    const SpanId root = rec.begin_span(newest, "tunnel_flow", 0, t);
    for (std::size_t k = 1; k < kSpansPerFlow; ++k) {
      const SpanId step = rec.begin_span(newest, "admission", root, t);
      rec.end_span(step, t + 1);
    }
    rec.end_span(root, t + 2);
  }
  EXPECT_LE(rec.span_count(), TraceRecorder::kMaxSpans);
  EXPECT_GT(rec.span_count(), TraceRecorder::kMaxSpans / 4);
  const auto ids = rec.trace_ids();
  EXPECT_EQ(ids.size() * kSpansPerFlow, rec.span_count());  // whole traces
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.back(), newest);
  EXPECT_TRUE(rec.trace("flow-0").empty());
  const auto spans = rec.trace(newest);
  ASSERT_EQ(spans.size(), kSpansPerFlow);
  EXPECT_EQ(spans.front().parent, 0u);
  EXPECT_EQ(spans.front().duration(), 2);
  const std::string tree = rec.render_tree(newest);
  EXPECT_NE(tree.find("tunnel_flow"), std::string::npos) << tree;
  EXPECT_NE(tree.find("`- admission"), std::string::npos) << tree;
}

TEST(TraceRecorder, EvictedSpansIgnoreLateUpdates) {
  // A long-lived trace whose spans interleave with short ones is evicted
  // whole once it is the oldest; later updates to its spans are no-ops.
  TraceRecorder rec;
  const SpanId open = rec.begin_span("long", "reservation", 0, 0);
  for (std::size_t f = 0; f <= TraceRecorder::kMaxSpans; ++f) {
    const std::string id = "short-" + std::to_string(f);
    rec.end_span(rec.begin_span(id, "hop", 0, 1), 2);
    if (f == 10) rec.begin_span("long", "hop", open, 1);
  }
  EXPECT_TRUE(rec.trace("long").empty());
  rec.annotate(open, "late", "yes");
  rec.end_span(open, 99);
  rec.fail_span(open, "late");
  EXPECT_TRUE(rec.trace("long").empty());
  EXPECT_LE(rec.span_count(), TraceRecorder::kMaxSpans);
  // A new span under the evicted id starts a fresh trace.
  rec.begin_span("long", "hop", open, 100);
  EXPECT_EQ(rec.trace("long").size(), 1u);
  EXPECT_EQ(rec.trace_ids().back(), "long");
}

/// Drives a recorder with up to four traces open at once, each span
/// annotated, and checks the retention contract at checkpoints.
class RetentionDriver {
 public:
  explicit RetentionDriver(TraceRecorder& rec) : rec_(rec) {}

  /// Open `count` spans round-robin over the open traces; a trace closes
  /// after 1 + (its number % 7) spans and a new one takes its place.
  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (open_.size() < 4) open_.push_back(start_trace());
      const std::size_t pick = i % open_.size();
      Trace& trace = traces_[open_[pick]];
      const SpanId parent = trace.spans.empty() ? 0 : trace.spans.front();
      const SpanId id = rec_.begin_span(trace.id, "step", parent,
                                        static_cast<SimTime>(i));
      rec_.annotate(id, "n", std::to_string(trace.spans.size()));
      rec_.end_span(id, static_cast<SimTime>(i + 1));
      if (trace.spans.empty()) seen_.push_back(open_[pick]);
      trace.spans.push_back(id);
      if (trace.spans.size() == trace.length) {
        open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  }

  /// The retention contract over everything driven so far.
  void check() const {
    EXPECT_LE(rec_.span_count(), TraceRecorder::kMaxSpans);
    const auto ids = rec_.trace_ids();
    ASSERT_FALSE(ids.empty());
    // Traces leave oldest first: the retained ids are the newest traces,
    // in first-seen order, and the traces still being written are among
    // them.
    const std::size_t first = seen_.size() - ids.size();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(ids[k], traces_[seen_[first + k]].id) << "retained #" << k;
    }
    for (const std::size_t open : open_) {
      if (!traces_[open].spans.empty()) {
        EXPECT_TRUE(rec_.has_trace(traces_[open].id));
      }
    }
    // Whole traces only; every span id resolves to its own span.
    std::size_t retained = 0;
    for (std::size_t k = first; k < seen_.size(); ++k) {
      const Trace& trace = traces_[seen_[k]];
      const auto spans = rec_.trace(trace.id);
      ASSERT_EQ(spans.size(), trace.spans.size()) << trace.id;
      for (std::size_t n = 0; n < spans.size(); ++n) {
        EXPECT_EQ(spans[n].id, trace.spans[n]);
        ASSERT_EQ(spans[n].attributes.size(), 1u);  // no stale attributes
        EXPECT_EQ(*spans[n].attribute("n"), std::to_string(n));
      }
      retained += spans.size();
    }
    EXPECT_EQ(retained, rec_.span_count());
    // spans() lists the same spans in creation (id) order.
    const auto all = rec_.spans();
    ASSERT_EQ(all.size(), retained);
    for (std::size_t k = 1; k < all.size(); ++k) {
      EXPECT_LT(all[k - 1].id, all[k].id);
    }
    // trace_ids() newest first, as the collector's /tracez walk sees them.
    std::vector<std::string> newest_first;
    rec_.visit_trace_ids_newest_first([&](const std::string& id) {
      newest_first.push_back(id);
      return true;
    });
    EXPECT_TRUE(std::equal(ids.rbegin(), ids.rend(), newest_first.begin(),
                           newest_first.end()));
  }

 private:
  struct Trace {
    std::string id;
    std::size_t length = 0;
    std::vector<SpanId> spans;
  };

  std::size_t start_trace() {
    const std::size_t n = traces_.size();
    traces_.push_back(Trace{"t-" + std::to_string(n), 1 + n % 7, {}});
    return n;
  }

  TraceRecorder& rec_;
  std::vector<Trace> traces_;
  std::vector<std::size_t> open_;  // indices into traces_
  std::vector<std::size_t> seen_;  // traces_ indices in first-span order
};

TEST(TraceRecorder, RetentionKeepsNewestWholeTracesPastSeveralBounds) {
  TraceRecorder rec;
  RetentionDriver driver(rec);
  driver.run(TraceRecorder::kMaxSpans / 2);
  driver.check();
  for (int round = 0; round < 4; ++round) {
    driver.run(TraceRecorder::kMaxSpans + 12345);
    driver.check();
    // A full store stays full: eviction frees one trace at a time.
    EXPECT_GT(rec.span_count(), TraceRecorder::kMaxSpans - 16);
  }
}

TEST(TraceRecorder, RetainedSpansAreFilteredConsistently) {
  TraceRecorder rec;
  RetentionDriver driver(rec);
  driver.run(2 * TraceRecorder::kMaxSpans + 777);
  const auto ids = rec.trace_ids();
  ASSERT_GT(ids.size(), 3u);
  const std::unordered_set<std::string> picked = {ids[0], ids[ids.size() / 2],
                                                  ids.back(), "gone"};
  std::vector<Span> expected;
  for (const Span& span : rec.spans()) {
    if (picked.contains(span.trace_id)) expected.push_back(span);
  }
  const auto filtered = rec.spans(picked);
  ASSERT_EQ(filtered.size(), expected.size());
  for (std::size_t k = 0; k < filtered.size(); ++k) {
    EXPECT_EQ(filtered[k].id, expected[k].id);
    EXPECT_EQ(filtered[k].trace_id, expected[k].trace_id);
    EXPECT_EQ(filtered[k].attributes, expected[k].attributes);
  }
  EXPECT_TRUE(rec.has_trace(ids.back()));
  EXPECT_FALSE(rec.has_trace("t-0"));
  EXPECT_TRUE(rec.trace("t-0").empty());
}

TEST(TraceRecorder, TraceBeingWrittenIsNeverSplit) {
  // One trace outgrows the bound while it is written: it keeps every
  // span, and leaves whole once another trace needs the room.
  TraceRecorder rec;
  rec.begin_span("small", "reservation", 0, 0);
  const std::size_t big = TraceRecorder::kMaxSpans + 100;
  const SpanId root = rec.begin_span("big", "reservation", 0, 0);
  for (std::size_t k = 1; k < big; ++k) rec.begin_span("big", "hop", root, 1);
  EXPECT_EQ(rec.trace("big").size(), big);
  EXPECT_TRUE(rec.trace("small").empty());
  EXPECT_EQ(rec.span_count(), big);
  const SpanId next = rec.begin_span("next", "reservation", 0, 2);
  EXPECT_TRUE(rec.trace("big").empty());
  EXPECT_EQ(rec.span_count(), 1u);
  EXPECT_EQ(rec.trace_ids(), std::vector<std::string>{"next"});
  rec.annotate(next, "domain", "DomainA");
  ASSERT_EQ(rec.trace("next").size(), 1u);
  EXPECT_EQ(*rec.trace("next").front().attribute("domain"), "DomainA");
}

/// Helper: run one hop-by-hop reservation through `world` and return its
/// trace spans, as an engine-wide reference recorder saw them.
std::vector<Span> reserve_and_trace(ChainWorld& world, bool expect_grant) {
  TraceRecorder reference;
  attach_reference(world, reference);
  WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  EXPECT_TRUE(msg.ok());
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->reply.granted, expect_grant);
  EXPECT_FALSE(outcome->trace_id.empty());
  return reference.trace(outcome->trace_id);
}

TEST(HopByHopTrace, FourDomainPathYieldsOneHopSpanPerDomain) {
  ChainWorldConfig config;
  config.domains = 4;
  ChainWorld world(config);
  const auto spans = reserve_and_trace(world, /*expect_grant=*/true);

  ASSERT_FALSE(spans.empty());
  const Span& root = spans.front();
  EXPECT_EQ(root.name, "reservation");
  EXPECT_FALSE(root.failed);

  // Exactly one hop span per domain on the path, parented under the root,
  // in path order.
  std::vector<const Span*> hops;
  for (const auto& s : spans) {
    if (s.name == "hop") {
      EXPECT_EQ(s.parent, root.id);
      hops.push_back(&s);
    }
  }
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_EQ(*hops[0]->attribute("domain"), "DomainA");
  EXPECT_EQ(*hops[1]->attribute("domain"), "DomainB");
  EXPECT_EQ(*hops[2]->attribute("domain"), "DomainC");
  EXPECT_EQ(*hops[3]->attribute("domain"), "DomainD");

  // Every hop ran verify -> policy -> admission; non-destination hops also
  // signed-and-forwarded. All step durations are non-zero virtual time.
  std::map<SpanId, std::vector<const Span*>> children;
  for (const auto& s : spans) children[s.parent].push_back(&s);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const auto& steps = children[hops[i]->id];
    const bool is_destination = i + 1 == hops.size();
    ASSERT_EQ(steps.size(), is_destination ? 3u : 4u)
        << "hop " << i << " has the wrong number of step spans";
    EXPECT_EQ(steps[0]->name, "verify");
    EXPECT_EQ(steps[1]->name, "policy");
    EXPECT_EQ(steps[2]->name, "admission");
    if (!is_destination) {
      EXPECT_EQ(steps[3]->name, "sign_and_forward");
    }
    for (const Span* step : steps) {
      EXPECT_GT(step->duration(), 0)
          << step->name << " span must carry virtual-clock duration";
      EXPECT_FALSE(step->failed);
    }
  }

  // Hops nest inside the root's time interval and advance monotonically.
  for (const Span* hop : hops) {
    EXPECT_GE(hop->start, root.start);
    EXPECT_LE(hop->end, root.end);
  }
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_GT(hops[i]->start, hops[i - 1]->start)
        << "downstream hops start later (inter-domain latency)";
  }
}

TEST(HopByHopTrace, RejectedRarTagsTheFailingHop) {
  ChainWorldConfig config;
  config.domains = 4;
  // DomainB denies everything; A, C, D grant.
  config.policies = {"Return GRANT", "Return DENY", "Return GRANT",
                     "Return GRANT"};
  ChainWorld world(config);
  const auto spans = reserve_and_trace(world, /*expect_grant=*/false);

  ASSERT_FALSE(spans.empty());
  const Span& root = spans.front();
  EXPECT_TRUE(root.failed);
  ASSERT_NE(root.attribute("failure.domain"), nullptr);
  EXPECT_EQ(*root.attribute("failure.domain"), "DomainB");
  ASSERT_NE(root.attribute("failure.code"), nullptr);

  // The request died at DomainB: two hop spans, the second failed at the
  // policy stage, and no downstream hop was ever contacted.
  std::vector<const Span*> hops;
  for (const auto& s : spans) {
    if (s.name == "hop") hops.push_back(&s);
  }
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_FALSE(hops[0]->failed);
  EXPECT_TRUE(hops[1]->failed);
  EXPECT_EQ(*hops[1]->attribute("domain"), "DomainB");
  ASSERT_NE(hops[1]->attribute("stage"), nullptr);
  EXPECT_EQ(*hops[1]->attribute("stage"), "policy");
  ASSERT_NE(hops[1]->attribute("error"), nullptr);

  // The failing step span itself is marked.
  const Span* failed_policy = nullptr;
  for (const auto& s : spans) {
    if (s.name == "policy" && s.parent == hops[1]->id) failed_policy = &s;
  }
  ASSERT_NE(failed_policy, nullptr);
  EXPECT_TRUE(failed_policy->failed);
}

TEST(HopByHopTrace, RenderTreeShowsHierarchyAndTimings) {
  ChainWorld world;  // default 3 domains
  TraceRecorder reference;
  attach_reference(world, reference);
  WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  const auto outcome = world.engine().reserve(*msg, seconds(1));
  ASSERT_TRUE(outcome.ok());
  const std::string tree = reference.render_tree(outcome->trace_id);
  EXPECT_NE(tree.find("reservation"), std::string::npos);
  EXPECT_NE(tree.find("hop"), std::string::npos);
  EXPECT_NE(tree.find("verify"), std::string::npos);
  EXPECT_NE(tree.find("domain=DomainA"), std::string::npos);
  EXPECT_NE(tree.find("us)"), std::string::npos);  // durations rendered

  const std::string json = reference.to_json(outcome->trace_id);
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST(HopByHopTrace, EachReservationGetsItsOwnTrace) {
  ChainWorld world;
  TraceRecorder reference;
  attach_reference(world, reference);
  WorldUser alice = world.make_user("Alice", 0);
  const auto msg = world.engine().build_user_request(
      alice.credentials(), world.spec(alice, 10e6), 0);
  const auto first = world.engine().reserve(*msg, seconds(1));
  const auto second = world.engine().reserve(*msg, seconds(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->trace_id, second->trace_id);
  EXPECT_FALSE(reference.trace(first->trace_id).empty());
  EXPECT_FALSE(reference.trace(second->trace_id).empty());
}

}  // namespace
}  // namespace e2e::obs
