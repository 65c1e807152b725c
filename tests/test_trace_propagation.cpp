// End-to-end distributed tracing: spans recorded on the coordinator and on
// workers must assemble into one causal tree per query, across the
// simulated fabric — including hedged fragments and transport retransmits.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/framework.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct Scenario {
  Trace trace;
  Rect world;

  Scenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 6;
          c.roads.grid_rows = 6;
          c.cameras.camera_count = 24;
          c.mobility.object_count = 20;
          c.duration = Duration::minutes(3);
          c.seed = 7321;
          return c;
        }())),
        world(trace.roads.bounds(120.0)) {}
};

Scenario& scenario() {
  static Scenario s;
  return s;
}

std::unique_ptr<PartitionStrategy> spatial(const Scenario& s) {
  return std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras);
}

TEST(TracePropagation, RangeQuerySpanTreeCoversEveryContactedPartition) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);

  auto fanout0 =
      cluster.coordinator().metrics().counter_value("query_fanout_total");
  auto partitions0 =
      cluster.coordinator().metrics().counter_value("query_partitions_total");
  Query q = Query::range(cluster.next_query_id(),
                         Rect::centered(s.world.center(), 800.0),
                         TimeInterval::all());
  (void)cluster.execute(q);
  auto fanout =
      cluster.coordinator().metrics().counter_value("query_fanout_total") -
      fanout0;
  auto partitions =
      cluster.coordinator().metrics().counter_value("query_partitions_total") -
      partitions0;
  ASSERT_GT(fanout, 0u);

  std::uint64_t trace_id = cluster.last_trace_id();
  ASSERT_NE(trace_id, 0u);
  SpanTree tree(cluster.tracer().trace(trace_id));

  // gateway.execute → coordinator.fanout at the root.
  ASSERT_EQ(tree.roots().size(), 1u);
  EXPECT_EQ(tree.spans()[tree.roots()[0]].name, "gateway.execute");
  auto fanout_spans = tree.named("coordinator.fanout");
  ASSERT_EQ(fanout_spans.size(), 1u);
  EXPECT_TRUE(fanout_spans[0]->has_tag("kind", "range"));
  EXPECT_TRUE(fanout_spans[0]->finished);

  // One fragment span per contacted worker, each carrying exactly one
  // worker-side query span that crossed the fabric via the Message header.
  auto fragments = tree.named("fragment");
  ASSERT_EQ(fragments.size(), fanout);
  auto worker_spans = tree.named("worker.query");
  ASSERT_EQ(worker_spans.size(), fanout);
  for (const SpanRecord* ws : worker_spans) {
    bool parent_is_fragment = false;
    for (const SpanRecord* frag : fragments) {
      if (frag->span_id == ws->parent_id) parent_is_fragment = true;
    }
    EXPECT_TRUE(parent_is_fragment);
    EXPECT_NE(ws->node, tree.spans()[tree.roots()[0]].node);
  }

  // Exactly one worker-side scan span per contacted partition, plus one
  // serialize span per worker reply.
  EXPECT_EQ(tree.named("worker.scan").size(), partitions);
  EXPECT_EQ(tree.named("worker.serialize").size(), fanout);
}

TEST(TracePropagation, HedgedFragmentAppearsAsTaggedChildSpan) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  config.network.seed = 6;
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);

  // Gray failure: worker 2 stays alive but 500x slower; its fragments
  // blow the hedge delay and are speculatively re-issued to backups.
  cluster.network().set_slow(NodeId(2), 500.0);
  (void)cluster.execute(Query::range(cluster.next_query_id(), s.world,
                                     TimeInterval::all()));
  ASSERT_GT(cluster.coordinator().metrics().counter_value("hedges_issued"), 0u);

  SpanTree tree(cluster.tracer().trace(cluster.last_trace_id()));
  auto fragments = tree.named("fragment");
  std::size_t hedged = 0;
  for (const SpanRecord* frag : fragments) {
    if (!frag->has_tag("hedge", "true")) continue;
    ++hedged;
    // The hedge hangs off the primary fragment it covers.
    bool parent_is_fragment = false;
    for (const SpanRecord* other : fragments) {
      if (other->span_id == frag->parent_id) parent_is_fragment = true;
    }
    EXPECT_TRUE(parent_is_fragment);
  }
  EXPECT_GT(hedged, 0u);
  // The slow primary was hedged over rather than answered.
  bool saw_hedged_over = false;
  for (const SpanRecord* frag : fragments) {
    if (frag->has_tag("hedged_over", "true")) saw_hedged_over = true;
  }
  EXPECT_TRUE(saw_hedged_over);
}

TEST(TracePropagation, RetransmitsRecordedAsInstantSpans) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  config.network.drop_probability = 0.3;
  config.network.seed = 11;
  // Keep drops inside the channel: no failover escalation.
  config.coordinator.query_timeout = Duration::millis(200);
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);

  std::size_t retransmit_spans = 0;
  for (int i = 0; i < 5; ++i) {
    (void)cluster.execute(Query::range(cluster.next_query_id(), s.world,
                                       TimeInterval::all()));
    SpanTree tree(cluster.tracer().trace(cluster.last_trace_id()));
    retransmit_spans += tree.named("net.retransmit").size();
  }
  // 30% loss over 5 full-world queries: some traced frame retransmitted.
  EXPECT_GT(retransmit_spans, 0u);
}

TEST(TracePropagation, ChromeExportAndSlowQueryLog) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  config.coordinator.slow_query_threshold = Duration::micros(1);
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);

  (void)cluster.execute(Query::range(cluster.next_query_id(), s.world,
                                     TimeInterval::all()));

  std::string json = cluster.tracer().to_chrome_json(cluster.last_trace_id());
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(json, v, &error)) << error;
  bool saw_fanout = false;
  bool saw_worker = false;
  for (const auto& e : v.at("traceEvents").array()) {
    if (e.at("name").string() == "coordinator.fanout") saw_fanout = true;
    if (e.at("name").string() == "worker.query") saw_worker = true;
  }
  EXPECT_TRUE(saw_fanout);
  EXPECT_TRUE(saw_worker);

  // Every query beats a 1us threshold, so the log captured the span tree.
  const SlowQueryLog& log = cluster.coordinator().slow_query_log();
  ASSERT_GT(log.size(), 0u);
  EXPECT_EQ(log.entries().back().trace_id, cluster.last_trace_id());
  EXPECT_FALSE(log.entries().back().spans.empty());
  EXPECT_NE(log.render().find("range"), std::string::npos);
}

TEST(TracePropagation, DisabledTracerCostsNothingAndChangesNothing) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  config.tracer.max_traces = 0;
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);
  (void)cluster.execute(Query::range(cluster.next_query_id(), s.world,
                                     TimeInterval::all()));
  EXPECT_EQ(cluster.last_trace_id(), 0u);
  EXPECT_EQ(cluster.tracer().trace_count(), 0u);
  EXPECT_EQ(cluster.tracer().spans_started(), 0u);
}

TEST(TracePropagation, ClusterMetricsSnapshotIsNamespacedAndExportable) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  Cluster cluster(s.world, spatial(s), config);
  cluster.ingest_all(s.trace.detections);
  (void)cluster.execute(Query::range(cluster.next_query_id(), s.world,
                                     TimeInterval::all()));

  MetricsRegistry snapshot = cluster.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("net.messages_sent").value(),
            cluster.network().metrics().counter_value("messages_sent"));
  EXPECT_GT(snapshot.counter("coordinator.queries_submitted").value(), 0u);
  EXPECT_GT(snapshot.counter("worker.queries_served").value(), 0u);
  EXPECT_GT(snapshot.histogram("coordinator.query_latency_us").count(), 0u);

  // The merged snapshot round-trips through the JSON exporter.
  MetricsRegistry restored;
  ASSERT_TRUE(metrics_registry_from_json(snapshot.to_json(), restored));
  EXPECT_EQ(snapshot.to_json(), restored.to_json());
}

}  // namespace
}  // namespace stcn
