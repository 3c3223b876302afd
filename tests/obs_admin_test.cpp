// Unit tests for the transport-agnostic admin plane (obs/admin.hpp):
// HTTP parsing/rendering, route dispatch, the TTL'd snapshot cache under
// an injected clock, the /tracez serialization consumed by
// tools/tracedump --from-json, and the newest-traces ingest bbd renders
// /tracez from.
#include "obs/admin.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <unordered_set>

#include "common/json_reader.hpp"
#include "kit/chain_world.hpp"
#include "obs/collector.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e::obs {
namespace {

using std::chrono::milliseconds;

TEST(AdminHttp, HeadCompleteness) {
  EXPECT_FALSE(http_head_complete(""));
  EXPECT_FALSE(http_head_complete("GET /metrics HTTP/1.0\r\n"));
  EXPECT_TRUE(http_head_complete("GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(http_head_complete("GET /metrics HTTP/1.0\n\n"));
}

TEST(AdminHttp, ParsesRequestLineAndStripsQuery) {
  const AdminRequest plain =
      parse_http_request("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_EQ(plain.method, "GET");
  EXPECT_EQ(plain.path, "/metrics");

  const AdminRequest query =
      parse_http_request("GET /statz?verbose=1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(query.path, "/statz");

  // curl-style bare request line (no version) still parses.
  const AdminRequest bare = parse_http_request("GET /healthz\r\n\r\n");
  EXPECT_EQ(bare.method, "GET");
  EXPECT_EQ(bare.path, "/healthz");
}

TEST(AdminHttp, MalformedHeadsYieldEmptyRequest) {
  for (const char* head :
       {"", "\r\n\r\n", "GET\r\n\r\n", "GET metrics HTTP/1.0\r\n\r\n",
        " /metrics HTTP/1.0\r\n\r\n"}) {
    const AdminRequest request = parse_http_request(head);
    EXPECT_TRUE(request.method.empty()) << "head: " << head;
    EXPECT_TRUE(request.path.empty()) << "head: " << head;
  }
}

TEST(AdminHttp, RendersMinimalHttp10Response) {
  AdminResponse response;
  response.status = 200;
  response.content_type = "text/plain; charset=utf-8";
  response.body = "ok\n";
  const std::string wire = render_http_response(response);
  EXPECT_EQ(wire.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(wire.find("Content-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nok\n"));
}

// ---------------------------------------------------------------------
// Routing. The plane owns a registry reference and an injected clock, so
// every behavior is observable without sockets.

struct PlaneFixture {
  MetricsRegistry registry;
  std::uint64_t now_ms = 0;
  bool ready = true;
  int refreshes = 0;

  AdminPlane make(milliseconds ttl = milliseconds(250)) {
    AdminPlane::Providers providers;
    providers.health = [this] {
      AdminPlane::Health health;
      health.live = true;
      health.ready = ready;
      health.detail = ready ? "" : "no world configured";
      return health;
    };
    providers.statz_json = [] { return std::string("{\"connections\":[]}"); };
    providers.tracez_json = [] { return std::string("{\"traces\":[]}"); };
    providers.refresh = [this](std::uint64_t) { ++refreshes; };
    return AdminPlane(registry, std::move(providers), ttl,
                      [this] { return now_ms; });
  }
};

TEST(AdminPlane, RoutesEveryDocumentedPath) {
  PlaneFixture fx;
  AdminPlane plane = fx.make();

  const AdminResponse metrics = plane.handle({"GET", "/metrics"});
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");

  const AdminResponse metrics_json = plane.handle({"GET", "/metrics.json"});
  EXPECT_EQ(metrics_json.status, 200);
  EXPECT_EQ(metrics_json.content_type, "application/json");
  EXPECT_TRUE(json::parse(metrics_json.body).ok());

  EXPECT_EQ(plane.handle({"GET", "/healthz"}).body, "ok\n");
  EXPECT_EQ(plane.handle({"GET", "/readyz"}).body, "ready\n");
  EXPECT_EQ(plane.handle({"GET", "/statz"}).body, "{\"connections\":[]}");
  EXPECT_EQ(plane.handle({"GET", "/tracez"}).body, "{\"traces\":[]}");
}

TEST(AdminPlane, NotReadyReports503WithDetail) {
  PlaneFixture fx;
  fx.ready = false;
  AdminPlane plane = fx.make();
  EXPECT_EQ(plane.handle({"GET", "/healthz"}).status, 200);  // still live
  const AdminResponse readyz = plane.handle({"GET", "/readyz"});
  EXPECT_EQ(readyz.status, 503);
  EXPECT_EQ(readyz.body, "no world configured\n");
}

TEST(AdminPlane, RejectsUnknownPathMethodAndMalformed) {
  PlaneFixture fx;
  AdminPlane plane = fx.make();
  EXPECT_EQ(plane.handle({"GET", "/nope"}).status, 404);
  EXPECT_EQ(plane.handle({"POST", "/metrics"}).status, 405);
  EXPECT_EQ(plane.handle({"", ""}).status, 400);
  // Request accounting uses the closed route set plus "other", so an
  // adversarial scraper cannot mint label values.
  EXPECT_EQ(
      fx.registry.counter(kObsAdminRequestsTotal, {{"path", "other"}}).value(),
      2u);
  EXPECT_EQ(fx.registry
                .counter(kObsAdminRequestsTotal, {{"path", "/metrics"}})
                .value(),
            1u);
}

TEST(AdminPlane, SnapshotCacheHitsWithinTtlRefreshesAfter) {
  PlaneFixture fx;
  AdminPlane plane = fx.make(milliseconds(250));
  auto hits = [&] {
    return fx.registry
        .counter(kObsSnapshotCacheTotal, {{"result", "hit"}})
        .value();
  };
  auto refreshes = [&] {
    return fx.registry
        .counter(kObsSnapshotCacheTotal, {{"result", "refresh"}})
        .value();
  };

  plane.handle({"GET", "/metrics"});
  EXPECT_EQ(refreshes(), 1u);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(fx.refreshes, 1);

  // Within the TTL both formats are cache hits (rendered per refresh),
  // and the daemon's refresh provider is NOT invoked.
  fx.now_ms = 100;
  plane.handle({"GET", "/metrics"});
  plane.handle({"GET", "/metrics.json"});
  EXPECT_EQ(refreshes(), 1u);
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(fx.refreshes, 1);

  // Past the TTL: one more walk, one more provider refresh.
  fx.now_ms = 300;
  plane.handle({"GET", "/metrics"});
  EXPECT_EQ(refreshes(), 2u);
  EXPECT_EQ(fx.refreshes, 2);
}

// ---------------------------------------------------------------------
// /tracez serialization: collector-compatible JSON, newest-N truncation.

TEST(TracezJson, SerializesCollectedSpansWithDomainAndDepth) {
  TraceRecorder recorder;
  const SpanId root = recorder.begin_span("rar-1", "reservation", 0, 0);
  recorder.annotate(root, "user", "Alice");
  const SpanId hop = recorder.begin_span("rar-1", "hop", root, 100);
  recorder.end_span(hop, 400);
  recorder.end_span(root, 1000);
  SpanCollector collector;
  collector.ingest("DomainA", recorder);

  const std::string text = tracez_json(collector, 16);
  auto parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
  const json::Value* traces = parsed.value().find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), 1u);
  const json::Value& trace = traces->array[0];
  EXPECT_EQ(trace.find("trace_id")->string, "rar-1");
  const json::Value* spans = trace.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 2u);
  const json::Value& first = spans->array[0];
  EXPECT_EQ(first.find("name")->string, "reservation");
  EXPECT_EQ(first.find("domain")->string, "DomainA");
  EXPECT_DOUBLE_EQ(first.find("depth")->number, 0.0);
  EXPECT_DOUBLE_EQ(first.find("end_us")->number, 1000.0);
  EXPECT_EQ(first.find("attributes")->find("user")->string, "Alice");
  const json::Value& second = spans->array[1];
  EXPECT_EQ(second.find("name")->string, "hop");
  EXPECT_DOUBLE_EQ(second.find("depth")->number, 1.0);
}

TEST(TracezJson, KeepsOnlyTheMostRecentTraces) {
  TraceRecorder recorder;
  for (int i = 0; i < 5; ++i) {
    const std::string id = "rar-" + std::to_string(i);
    const SpanId span = recorder.begin_span(id, "reservation", 0, i * 10);
    recorder.end_span(span, i * 10 + 5);
  }
  SpanCollector collector;
  collector.ingest("DomainA", recorder);

  auto parsed = json::parse(tracez_json(collector, 2));
  ASSERT_TRUE(parsed.ok());
  const json::Value* traces = parsed.value().find("traces");
  ASSERT_EQ(traces->array.size(), 2u);
  EXPECT_EQ(traces->array[0].find("trace_id")->string, "rar-3");
  EXPECT_EQ(traces->array[1].find("trace_id")->string, "rar-4");
}

TEST(TracezJson, EmptyCollectorIsAnEmptyTracesArray) {
  SpanCollector collector;
  EXPECT_EQ(tracez_json(collector, 16), "{\"traces\":[]}");
}

// The collector lists trace ids recorder by recorder, so a trace first
// seen in the second recorder sorts after every trace of the first, and
// newest_trace_ids must pick the same tail.
TEST(TracezJson, NewestTraceIdsFollowTheCollectorsOrder) {
  TraceRecorder a;
  TraceRecorder b;
  for (int i = 0; i < 6; ++i) {
    const std::string id = "rar-" + std::to_string(i);
    a.end_span(a.begin_span(id, "reservation", 0, i), i + 1);
    b.end_span(b.begin_span(id, "hop", 0, i), i + 1);
    const std::string only_b = "b-" + std::to_string(i);
    b.end_span(b.begin_span(only_b, "hop", 0, i), i + 1);
  }
  const auto newest = newest_trace_ids({&a, &b}, 4);
  EXPECT_EQ(newest, (std::unordered_set<std::string>{"b-2", "b-3", "b-4",
                                                     "b-5"}));
  SpanCollector full;
  full.ingest("A", a);
  full.ingest("B", b);
  SpanCollector kept;
  kept.ingest("A", a, newest);
  kept.ingest("B", b, newest);
  EXPECT_EQ(kept.span_count(), 4u);
  EXPECT_EQ(tracez_json(kept, 4), tracez_json(full, 4));
}

// bbd's /tracez ingests only the traces it renders. After 300 reserves
// across two source domains, with half the grants released, the document
// equals the one rendered from every retained span.
TEST(TracezJson, NewestTracesIngestMatchesFullIngest) {
  kit::ChainWorld world;
  const kit::WorldUser alice = world.make_user("Alice", 0);
  const kit::WorldUser bob = world.make_user("Bob", 1);
  for (int i = 0; i < 300; ++i) {
    const bool from_bob = i % 3 == 0;
    const kit::WorldUser& user = from_bob ? bob : alice;
    const auto msg = world.engine().build_user_request(
        user.credentials(),
        world.spec(user, 1e6, {0, seconds(600)}, from_bob ? 1 : 0),
        seconds(1));
    ASSERT_TRUE(msg.ok()) << msg.error().to_text();
    const auto outcome = world.engine().reserve(*msg, seconds(1));
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_text();
    if (i % 2 == 0 && outcome->reply.granted) {
      ASSERT_TRUE(world.engine().release_end_to_end(outcome->reply).ok());
    }
  }
  SpanCollector full;
  world.collect(full);
  SpanCollector newest;
  world.collect(newest, 16);
  EXPECT_LT(newest.span_count(), full.span_count());
  const std::string document = tracez_json(full, 16);
  auto parsed = json::parse(document);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
  EXPECT_EQ(parsed.value().find("traces")->array.size(), 16u);
  EXPECT_EQ(tracez_json(newest, 16), document);
}

}  // namespace
}  // namespace e2e::obs
