// Observability layer: JSON writer/parser, metrics registry (handles,
// histogram quantiles, export round-trips), tracer span trees, and the
// slow-query log.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/tracer.h"
#include "support/reference_tracer.h"

namespace stcn {
namespace {

// ------------------------------------------------------------------ JSON

TEST(Json, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("cluster \"a\"\n");
  w.key("count");
  w.value(std::uint64_t{42});
  w.key("ratio");
  w.value(0.5);
  w.key("ok");
  w.value(true);
  w.key("items");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.key("nested");
  w.raw_value("{\"x\":7}");
  w.end_object();

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(w.str(), v, &error)) << error;
  EXPECT_EQ(v.at("name").string(), "cluster \"a\"\n");
  EXPECT_DOUBLE_EQ(v.at("count").number(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("ratio").number(), 0.5);
  EXPECT_TRUE(v.at("ok").boolean());
  ASSERT_EQ(v.at("items").array().size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("nested").at("x").number(), 7.0);
}

TEST(Json, EscapesControlCharsAndRoundTrips) {
  // Every ASCII control character must be escaped (a raw 0x01 in output
  // would break downstream parsers); UTF-8 passes through verbatim.
  std::string nasty;
  for (char c = 1; c < 0x20; ++c) nasty += c;
  nasty += '\0';
  nasty += "caf\xC3\xA9 \xE2\x82\xAC";  // café €

  obs::JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value(nasty);
  w.end_object();
  std::string text = w.take();
  for (char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte leaked into JSON output";
  }
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u0000"), std::string::npos);
  EXPECT_NE(text.find("caf\xC3\xA9"), std::string::npos);

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(text, v, &error)) << error;
  EXPECT_EQ(v.at("s").string(), nasty);
}

TEST(Json, NonAsciiMetricNamesSurviveRegistryRoundTrip) {
  MetricsRegistry registry;
  registry.counter("zone/\xC3\xBC" "ber\tcamera\x01").add(7);
  MetricsRegistry restored;
  ASSERT_TRUE(metrics_registry_from_json(registry.to_json(), restored));
  EXPECT_EQ(restored.counter("zone/\xC3\xBC" "ber\tcamera\x01").value(), 7u);
  EXPECT_EQ(registry.to_json(), restored.to_json());
}

TEST(Json, ControlCharTagsSurviveChromeTraceExport) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("q\x02uery", 0, t0);
  tracer.tag(root, "label", std::string("a\x1f") + "b");
  tracer.end_span(root, t0 + Duration::millis(1));

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(
      obs::JsonValue::parse(tracer.to_chrome_json(root.trace_id), v, &error))
      << error;
  const auto& events = v.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").string(), "q\x02uery");
  EXPECT_EQ(events[0].at("args").at("label").string(),
            std::string("a\x1f") + "b");
}

TEST(Json, ParserRejectsMalformed) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::JsonValue::parse("{\"a\":}", v));
  EXPECT_FALSE(obs::JsonValue::parse("[1,2", v));
  EXPECT_FALSE(obs::JsonValue::parse("", v));
  EXPECT_FALSE(obs::JsonValue::parse("{} trailing", v));
}

// --------------------------------------------------------------- metrics

TEST(LatencyHistogram, BucketsAndQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(0.5), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1.0), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2.0), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e30), LatencyHistogram::kBuckets - 1);

  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log-bucket interpolation is coarse; quantiles must land in the right
  // bucket neighbourhood and be monotone.
  double p50 = h.p50();
  double p95 = h.p95();
  double p99 = h.p99();
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1000.0);  // clamped to observed max
}

TEST(LatencyHistogram, MergeAccumulates) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.observe(10.0);
  b.observe(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 10.0);
  EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(MetricsRegistry, HandlesAreStable) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events");
  c.inc();
  c.add(4);
  EXPECT_EQ(registry.counter("events").value(), 5u);  // same handle

  registry.gauge("depth").set(3.5);
  registry.histogram("lat_us").observe(12.0);

  // counter_value reads without registering: unknown names read 0.
  EXPECT_EQ(registry.counter_value("events"), 5u);
  EXPECT_EQ(registry.counter_value("missing"), 0u);
  EXPECT_FALSE(registry.counters().contains("missing"));
}

TEST(MetricsRegistry, JsonRoundTripIsExact) {
  MetricsRegistry registry;
  registry.counter("messages_sent").add(12345);
  registry.counter("bytes_sent").add(987654321);
  registry.gauge("queue_depth").set(17.25);
  LatencyHistogram& h = registry.histogram("query_latency_us");
  h.observe(3.0);
  h.observe(250.0);
  h.observe(90000.0);

  MetricsRegistry restored;
  ASSERT_TRUE(metrics_registry_from_json(registry.to_json(), restored));

  EXPECT_EQ(restored.counter("messages_sent").value(), 12345u);
  EXPECT_EQ(restored.counter("bytes_sent").value(), 987654321u);
  EXPECT_DOUBLE_EQ(restored.gauge("queue_depth").value(), 17.25);
  const LatencyHistogram& rh = restored.histogram("query_latency_us");
  EXPECT_EQ(rh.count(), h.count());
  EXPECT_DOUBLE_EQ(rh.sum(), h.sum());
  EXPECT_DOUBLE_EQ(rh.min(), h.min());
  EXPECT_DOUBLE_EQ(rh.max(), h.max());
  EXPECT_DOUBLE_EQ(rh.p50(), h.p50());
  EXPECT_DOUBLE_EQ(rh.p95(), h.p95());
  EXPECT_DOUBLE_EQ(rh.p99(), h.p99());

  // Second generation must serialize identically (fixed point).
  EXPECT_EQ(registry.to_json(), restored.to_json());
}

TEST(MetricsRegistry, RejectsMalformedJson) {
  MetricsRegistry out;
  EXPECT_FALSE(metrics_registry_from_json("not json", out));
  EXPECT_FALSE(metrics_registry_from_json("[]", out));
}

TEST(MetricsRegistry, PrometheusExport) {
  MetricsRegistry registry;
  registry.counter("net.messages_sent").add(3);
  registry.histogram("query_latency_us").observe(100.0);
  std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("stcn_net_messages_sent 3"), std::string::npos);
  EXPECT_NE(text.find("stcn_query_latency_us"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
}

TEST(MetricsRegistry, LabelsRoundTripThroughJson) {
  MetricsRegistry registry;
  registry.gauge("partition.hottest_load").set(42.0);
  registry.set_labels("partition.hottest_load", {{"partition", "p12"}});
  // Label keys and values with every escaping hazard: control chars,
  // quotes, backslashes, separators the exposition format reserves.
  registry.counter("advisor.moves").add(3);
  registry.set_labels("advisor.moves",
                      {{"from-worker", "w\"1\\\n"},
                       {"0rank", std::string("a\x01") + "b"}});

  MetricsRegistry restored;
  ASSERT_TRUE(metrics_registry_from_json(registry.to_json(), restored));
  EXPECT_EQ(restored.labels("partition.hottest_load").at("partition"),
            "p12");
  EXPECT_EQ(restored.labels("advisor.moves").at("from-worker"), "w\"1\\\n");
  EXPECT_EQ(restored.labels("advisor.moves").at("0rank"),
            std::string("a\x01") + "b");
  // Byte-exact fixed point, with and without the labels section.
  EXPECT_EQ(registry.to_json(), restored.to_json());
  MetricsRegistry unlabeled;
  unlabeled.counter("plain").add(1);
  MetricsRegistry unlabeled_restored;
  ASSERT_TRUE(metrics_registry_from_json(unlabeled.to_json(),
                                         unlabeled_restored));
  EXPECT_EQ(unlabeled.to_json(), unlabeled_restored.to_json());
  EXPECT_EQ(unlabeled.to_json().find("labels"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesLabelKeysAndValues) {
  MetricsRegistry registry;
  registry.gauge("partition.hottest_load").set(9.0);
  // The key needs mangling (dash, leading digit); the value needs escaping
  // (quote, backslash, newline).
  registry.set_labels("partition.hottest_load",
                      {{"partition-id", "p\"1\\2\n"}, {"9rank", "top"}});
  registry.histogram("heat.scan_us", "Scan heat").observe(50.0);
  registry.set_labels("heat.scan_us", {{"partition", "p3"}});

  std::string text = registry.to_prometheus();
  // Gauge line: mangled keys, escaped value, sorted label order.
  EXPECT_NE(text.find("stcn_partition_hottest_load{_9rank=\"top\","
                      "partition_id=\"p\\\"1\\\\2\\n\"} 9"),
            std::string::npos);
  // Histogram lines splice labels beside `le` and suffix _sum/_count.
  EXPECT_NE(text.find("stcn_heat_scan_us_bucket{partition=\"p3\",le=\"64\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stcn_heat_scan_us_bucket{partition=\"p3\","
                      "le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stcn_heat_scan_us_count{partition=\"p3\"} 1"),
            std::string::npos);
  // No raw control bytes or unescaped quotes leak into label values.
  for (std::size_t i = 0; i < text.size(); ++i) {
    EXPECT_TRUE(text[i] == '\n' ||
                static_cast<unsigned char>(text[i]) >= 0x20u)
        << "raw control byte at offset " << i;
  }
  // Labels survive a snapshot merge under a prefix.
  MetricsRegistry snapshot;
  registry.merge_into(snapshot, "coordinator.");
  EXPECT_EQ(snapshot.labels("coordinator.heat.scan_us").at("partition"),
            "p3");
}

TEST(MetricsRegistry, MergeSumsSameNamesAcrossNodes) {
  MetricsRegistry worker;
  worker.counter("ingested").add(10);
  worker.histogram("scan_wall_us").observe(5.0);

  MetricsRegistry snapshot;
  worker.merge_into(snapshot, "worker.");
  worker.merge_into(snapshot, "worker.");  // second worker with same names
  EXPECT_EQ(snapshot.counter("worker.ingested").value(), 20u);
  EXPECT_EQ(snapshot.histogram("worker.scan_wall_us").count(), 2u);
}

// ------------------------------------------------------ quantile recorder

TEST(QuantileRecorder, BatchQuantilesMatchSingleCalls) {
  QuantileRecorder r;
  for (int i = 1000; i >= 1; --i) r.add(i);
  auto qs = r.quantiles({0.5, 0.95, 0.99});
  ASSERT_EQ(qs.size(), 3u);
  EXPECT_DOUBLE_EQ(qs[0], r.quantile(0.5));
  EXPECT_DOUBLE_EQ(qs[1], r.quantile(0.95));
  EXPECT_DOUBLE_EQ(qs[2], r.quantile(0.99));
  EXPECT_NEAR(qs[0], 500.0, 2.0);
  EXPECT_DOUBLE_EQ(r.mean(), 500.5);
}

TEST(QuantileRecorder, ReservoirCapsMemoryButCountsAll) {
  QuantileRecorder r(/*max_samples=*/128);
  for (int i = 0; i < 100000; ++i) r.add(static_cast<double>(i % 1000));
  EXPECT_EQ(r.count(), 100000u);
  EXPECT_EQ(r.retained(), 128u);
  // The reservoir is a uniform sample of [0, 1000); the median estimate
  // must land well inside the central band.
  double p50 = r.quantile(0.5);
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 750.0);
}

// ---------------------------------------------------------------- tracer

TEST(Tracer, SpanTreeStructureAndTags) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  ASSERT_TRUE(root.valid());
  TraceContext fanout = tracer.start_span("coordinator.fanout", root,
                                          1'000'000, t0);
  tracer.tag(fanout, "kind", "range");
  TraceContext frag =
      tracer.start_span("fragment", fanout, 1'000'000, t0);
  tracer.instant("net.retransmit", frag, 1'000'000,
                 t0 + Duration::millis(10));
  tracer.end_span(frag, t0 + Duration::millis(12));
  tracer.end_span(fanout, t0 + Duration::millis(12));
  tracer.end_span(root, t0 + Duration::millis(13));

  SpanTree tree(tracer.trace(root.trace_id));
  ASSERT_EQ(tree.roots().size(), 1u);
  const SpanRecord& root_span = tree.spans()[tree.roots()[0]];
  EXPECT_EQ(root_span.name, "gateway.execute");
  EXPECT_EQ(root_span.duration(), Duration::millis(13));

  auto fanouts = tree.named("coordinator.fanout");
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(fanouts[0]->has_tag("kind", "range"));
  EXPECT_EQ(fanouts[0]->parent_id, root_span.span_id);

  auto retransmits = tree.named("net.retransmit");
  ASSERT_EQ(retransmits.size(), 1u);
  EXPECT_EQ(retransmits[0]->duration(), Duration::zero());
  EXPECT_EQ(tracer.count_spans(root.trace_id, "net.retransmit"), 1u);
  EXPECT_EQ(tracer.count_spans(root.trace_id, "net"), 0u);

  EXPECT_FALSE(tree.render().empty());
}

TEST(Tracer, FifoEvictionBoundsRetention) {
  TracerConfig config;
  config.max_traces = 2;
  Tracer tracer(config);
  TimePoint t0 = TimePoint::origin();
  TraceContext a = tracer.start_trace("a", 0, t0);
  TraceContext b = tracer.start_trace("b", 0, t0);
  TraceContext c = tracer.start_trace("c", 0, t0);
  EXPECT_EQ(tracer.trace_count(), 2u);
  EXPECT_FALSE(tracer.has_trace(a.trace_id));
  EXPECT_TRUE(tracer.has_trace(b.trace_id));
  EXPECT_TRUE(tracer.has_trace(c.trace_id));
  EXPECT_EQ(tracer.count_spans(a.trace_id, "a"), 0u);
  EXPECT_EQ(tracer.count_spans(b.trace_id, "b"), 1u);
}

TEST(Tracer, DisabledTracerIsNoop) {
  TracerConfig config;
  config.max_traces = 0;
  Tracer tracer(config);
  TraceContext ctx =
      tracer.start_trace("x", 0, TimePoint::origin());
  EXPECT_FALSE(ctx.valid());
  EXPECT_EQ(tracer.trace_count(), 0u);
}

TEST(Tracer, ChromeJsonExportParses) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  TraceContext child = tracer.start_span("worker.query", root, 7, t0);
  tracer.tag(child, "sub_id", "3");
  tracer.end_span(child, t0 + Duration::millis(2));
  tracer.end_span(root, t0 + Duration::millis(3));

  std::string json = tracer.to_chrome_json(root.trace_id);
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(json, v, &error)) << error;
  const auto& events = v.at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  bool saw_worker = false;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").string(), "X");
    if (e.at("name").string() == "worker.query") {
      saw_worker = true;
      EXPECT_EQ(e.at("args").at("sub_id").string(), "3");
      EXPECT_DOUBLE_EQ(e.at("dur").number(), 2000.0);
    }
  }
  EXPECT_TRUE(saw_worker);
}

// ---------------------------------------------------- tracer differential

// Names, keys and values the differential draws from: empty, control
// characters, quotes, backslashes, non-ASCII, and a name longer than any
// small-string buffer.
const std::vector<std::string>& tracer_texts() {
  static const std::vector<std::string> texts = {
      "",          "worker.scan", "fragment",  "net.retransmit", "a\x01z",
      "\x1f\n\t",  "\"q\"",       "back\\sl",  "\xc3\xbc" "ber",
      std::string("nul\0mid", 7), "coordinator.fanout.with.a.long.name"};
  return texts;
}

void expect_same_trace(const Tracer& ring, const ReferenceTracer& ref,
                       std::uint64_t trace_id) {
  ASSERT_EQ(ring.has_trace(trace_id), ref.has_trace(trace_id)) << trace_id;
  std::vector<SpanRecord> got = ring.trace(trace_id);
  std::vector<SpanRecord> want = ref.trace(trace_id);
  ASSERT_EQ(got.size(), want.size()) << trace_id;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].trace_id, want[i].trace_id);
    EXPECT_EQ(got[i].span_id, want[i].span_id);
    EXPECT_EQ(got[i].parent_id, want[i].parent_id);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].end, want[i].end);
    EXPECT_EQ(got[i].finished, want[i].finished);
    EXPECT_EQ(got[i].tags, want[i].tags) << "span " << got[i].span_id;
  }
  EXPECT_EQ(ring.to_chrome_json(trace_id), ref.to_chrome_json(trace_id));
  for (const std::string& name : tracer_texts()) {
    EXPECT_EQ(ring.count_spans(trace_id, name), ref.count_spans(trace_id, name));
  }
}

// Drives the ring tracer and the reference with one seeded interleaving of
// traces, spans, instants, string and numeric tags, span ends and clears,
// against live, evicted, ended, never-started and mismatched contexts.
void run_tracer_differential(std::size_t max_traces, std::uint64_t seed,
                             int steps) {
  SCOPED_TRACE("max_traces=" + std::to_string(max_traces) +
               " seed=" + std::to_string(seed));
  TracerConfig config;
  config.max_traces = max_traces;
  Tracer ring(config);
  ReferenceTracer ref(config);
  Rng rng(seed);
  const std::vector<std::string>& texts = tracer_texts();
  auto text = [&] { return texts[rng.uniform_index(texts.size())]; };
  std::vector<TraceContext> contexts;  // every context either tracer returned
  std::uint64_t traces_started = 0;
  TimePoint now = TimePoint::origin();
  auto pick = [&]() -> TraceContext {
    switch (rng.uniform_index(8)) {
      case 0:
        return {};  // invalid: starts a trace, or a no-op
      case 1:  // a trace not started yet, or a root-less context
        return {traces_started + 1 + rng.uniform_index(3),
                rng.uniform_index(2)};
      case 2:  // a real span id under some other trace
        if (!contexts.empty()) {
          TraceContext a = contexts[rng.uniform_index(contexts.size())];
          TraceContext b = contexts[rng.uniform_index(contexts.size())];
          return {a.trace_id, b.span_id};
        }
        return {};
      default:  // recent contexts dominate, older ones are likely evicted
        if (contexts.empty()) return {};
        std::size_t back = std::min<std::size_t>(
            contexts.size(), 1 + rng.uniform_index(rng.uniform_index(4) == 0
                                                       ? contexts.size()
                                                       : 12));
        return contexts[contexts.size() - back];
    }
  };
  for (int step = 0; step < steps; ++step) {
    now = now + Duration::micros(static_cast<std::int64_t>(
                    rng.uniform_index(50)));
    std::uint64_t node = rng.uniform_index(4) == 0 ? ~std::uint64_t{0}
                                                   : rng.uniform_index(9);
    TraceContext touched;
    std::uint64_t op = rng.uniform_index(100);
    if (op < 10) {
      std::string name = text();
      TraceContext a = ring.start_trace(name, node, now);
      TraceContext b = ref.start_trace(name, node, now);
      ASSERT_EQ(a, b);
      if (a.valid()) ++traces_started;
      touched = a;
    } else if (op < 40) {
      std::string name = text();
      TraceContext parent = pick();
      TraceContext a = ring.start_span(name, parent, node, now);
      TraceContext b = ref.start_span(name, parent, node, now);
      ASSERT_EQ(a, b);
      if (a.valid() && !parent.valid()) ++traces_started;
      touched = a.valid() ? a : parent;
    } else if (op < 50) {
      std::string name = text();
      TraceContext parent = pick();
      TraceContext a = ring.instant(name, parent, node, now);
      TraceContext b = ref.instant(name, parent, node, now);
      ASSERT_EQ(a, b);
      if (a.valid() && !parent.valid()) ++traces_started;
      touched = a.valid() ? a : parent;
    } else if (op < 68) {
      touched = pick();
      std::string key = text();
      std::string value = text();
      ring.tag(touched, key, value);
      ref.tag(touched, key, value);
    } else if (op < 80) {
      touched = pick();
      std::uint64_t value = rng.uniform_index(3) == 0 ? ~std::uint64_t{0}
                                                      : rng.uniform_index(1000);
      std::string key = text();
      ring.tag(touched, key, value);
      ref.tag(touched, key, std::to_string(value));
    } else if (op < 99) {
      touched = pick();
      ring.end_span(touched, now);
      ref.end_span(touched, now);
    } else if (rng.uniform_index(1 + max_traces / 8) == 0) {
      // Rare enough for a large ring to wrap between clears.
      ring.clear();
      ref.clear();
    }
    if (touched.valid()) contexts.push_back(touched);

    ASSERT_EQ(ring.trace_count(), ref.trace_count());
    ASSERT_EQ(ring.spans_started(), ref.spans_started());
    expect_same_trace(ring, ref, touched.trace_id);
    expect_same_trace(ring, ref, 1 + rng.uniform_index(traces_started + 2));
    if (step % 64 == 0 || step == steps - 1) {
      for (std::uint64_t id = 0; id <= traces_started + 1; ++id) {
        expect_same_trace(ring, ref, id);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TracerDifferential, OversizedTracesReleaseAndRefillTheirSlot) {
  // Traces past what a slot keeps (spans, tags and text) alternate with
  // small ones through a two-slot ring, so slots are released and reused.
  TracerConfig config;
  config.max_traces = 2;
  Tracer ring(config);
  ReferenceTracer ref(config);
  TimePoint now = TimePoint::origin();
  const std::string long_value(100, 'v');
  for (int round = 0; round < 6; ++round) {
    int spans = round % 3 == 0 ? 400 : 3;
    std::string name = "trace" + std::to_string(round);
    TraceContext a = ring.start_trace(name, 1, now);
    TraceContext b = ref.start_trace(name, 1, now);
    ASSERT_EQ(a, b);
    for (int i = 0; i < spans; ++i) {
      TraceContext ca = ring.start_span("worker.scan", a, 2, now);
      TraceContext cb = ref.start_span("worker.scan", b, 2, now);
      ASSERT_EQ(ca, cb);
      ring.tag(ca, "partition", static_cast<std::uint64_t>(i));
      ref.tag(cb, "partition", std::to_string(i));
      ring.tag(ca, "note", long_value);
      ref.tag(cb, "note", long_value);
      ring.end_span(ca, now);
      ref.end_span(cb, now);
    }
    ring.end_span(a, now);
    ref.end_span(b, now);
    for (std::uint64_t id = 0; id <= a.trace_id + 1; ++id) {
      expect_same_trace(ring, ref, id);
    }
    ASSERT_EQ(ring.trace_count(), ref.trace_count());
    ASSERT_EQ(ring.spans_started(), ref.spans_started());
  }
}

TEST(TracerDifferential, DisabledRingMatchesReference) {
  run_tracer_differential(0, 1, 400);
}

TEST(TracerDifferential, OneSlotRingMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_tracer_differential(1, seed, 1500);
  }
}

TEST(TracerDifferential, TwoSlotRingMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_tracer_differential(2, seed, 1500);
  }
}

TEST(TracerDifferential, DefaultRingMatchesReferencePastWraparound) {
  // Enough traces to wrap the 512-slot ring more than twice.
  run_tracer_differential(512, 7, 12000);
}

// ---------------------------------------------------------- slow queries

TEST(SlowQueryLog, RecordsOnlyAboveThreshold) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  tracer.end_span(root, t0 + Duration::millis(40));

  SlowQueryLog log(Duration::millis(25), /*max_entries=*/2);
  EXPECT_FALSE(log.maybe_record(tracer, root.trace_id, 1, "range",
                                Duration::millis(10)));
  EXPECT_TRUE(log.maybe_record(tracer, root.trace_id, 2, "range",
                               Duration::millis(40)));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries().front().request_id, 2u);
  EXPECT_FALSE(log.entries().front().spans.empty());

  // Bounded retention.
  log.maybe_record(tracer, root.trace_id, 3, "range", Duration::millis(30));
  log.maybe_record(tracer, root.trace_id, 4, "range", Duration::millis(30));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.entries().front().request_id, 3u);

  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonValue::parse(log.to_json(), v));
  EXPECT_EQ(v.array().size(), 2u);
  EXPECT_FALSE(log.render().empty());
}

TEST(SlowQueryLog, ThresholdBoundaryIsInclusive) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  tracer.end_span(root, t0 + Duration::millis(25));

  SlowQueryLog log(Duration::millis(25));
  // Exactly at the threshold records; one microsecond under does not.
  EXPECT_FALSE(log.maybe_record(tracer, root.trace_id, 1, "range",
                                Duration::millis(25) - Duration::micros(1)));
  EXPECT_TRUE(log.maybe_record(tracer, root.trace_id, 2, "range",
                               Duration::millis(25)));
  EXPECT_EQ(log.size(), 1u);
}

TEST(SlowQueryLog, EvictsOldestFirst) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  tracer.end_span(root, t0 + Duration::millis(40));

  SlowQueryLog log(Duration::millis(1), /*max_entries=*/3);
  for (std::uint64_t request = 1; request <= 5; ++request) {
    log.maybe_record(tracer, root.trace_id, request, "range",
                     Duration::millis(30));
  }
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries().front().request_id, 3u);  // oldest surviving
  EXPECT_EQ(log.entries().back().request_id, 5u);   // newest
}

TEST(SlowQueryLog, SpanTreesSurviveTracerEviction) {
  TracerConfig config;
  config.max_traces = 1;
  Tracer tracer(config);
  TimePoint t0 = TimePoint::origin();
  TraceContext slow = tracer.start_trace("gateway.execute", 0, t0);
  TraceContext child = tracer.start_span("fragment", slow, 1, t0);
  tracer.end_span(child, t0 + Duration::millis(20));
  tracer.end_span(slow, t0 + Duration::millis(30));

  SlowQueryLog log(Duration::millis(1));
  ASSERT_TRUE(log.maybe_record(tracer, slow.trace_id, 1, "range",
                               Duration::millis(30)));

  // A new trace evicts the recorded one from the tracer's FIFO retention;
  // the log's snapshot must be unaffected.
  tracer.start_trace("gateway.execute", 0, t0 + Duration::millis(40));
  ASSERT_FALSE(tracer.has_trace(slow.trace_id));
  ASSERT_EQ(log.entries().front().spans.size(), 2u);
  std::string text = log.render();
  EXPECT_NE(text.find("fragment"), std::string::npos);
}

TEST(SlowQueryLog, AttachProfileMatchesNewestEntryByRequest) {
  Tracer tracer;
  TimePoint t0 = TimePoint::origin();
  TraceContext root = tracer.start_trace("gateway.execute", 0, t0);
  tracer.end_span(root, t0 + Duration::millis(40));

  SlowQueryLog log(Duration::millis(1));
  log.maybe_record(tracer, root.trace_id, 7, "range", Duration::millis(30));
  log.maybe_record(tracer, root.trace_id, 8, "knn", Duration::millis(35));

  QueryProfile profile;
  profile.request_id = 8;
  ExplainStage stage;
  stage.name = "partition_selection";
  stage.pruned = 6;
  profile.stages.push_back(stage);
  ASSERT_TRUE(log.attach_profile(profile));
  EXPECT_FALSE(log.entries().front().profile.has_value());
  ASSERT_TRUE(log.entries().back().profile.has_value());
  EXPECT_EQ(log.entries().back().profile->total_pruned(), 6u);

  // The profile embeds in both renderings.
  EXPECT_NE(log.render().find("partition_selection"), std::string::npos);
  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonValue::parse(log.to_json(), v));
  EXPECT_EQ(v.array()
                .back()
                .at("profile")
                .at("stages")
                .array()
                .size(),
            1u);

  // No matching request: nothing to attach.
  QueryProfile orphan;
  orphan.request_id = 99;
  EXPECT_FALSE(log.attach_profile(orphan));
}

}  // namespace
}  // namespace stcn
