#include "core/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t,
                         std::uint64_t camera = 1, std::uint64_t object = 1) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(camera);
  d.object = ObjectId(object);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

struct TestWorld {
  Trace trace = TraceGenerator::generate([] {
    TraceConfig c;
    c.roads.grid_cols = 6;
    c.roads.grid_rows = 6;
    c.cameras.camera_count = 20;
    c.mobility.object_count = 15;
    c.duration = Duration::minutes(3);
    return c;
  }());
  Rect world = trace.roads.bounds(100.0);
};

ClusterConfig cluster_config(std::size_t workers) {
  ClusterConfig c;
  c.worker_count = workers;
  c.network.latency_jitter = Duration::zero();
  return c;
}

TEST(Coordinator, IngestRoutesByStrategy) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 2, 2, tw.trace.cameras),
      cluster_config(4));
  // One detection in each quadrant.
  Point c = tw.world.center();
  std::vector<Detection> dets = {
      make_detection(1, {c.x - 100, c.y - 100}, 100),
      make_detection(2, {c.x + 100, c.y - 100}, 200),
      make_detection(3, {c.x - 100, c.y + 100}, 300),
      make_detection(4, {c.x + 100, c.y + 100}, 400),
  };
  cluster.ingest_all(dets);
  // With 4 partitions round-robined on 4 workers, each worker holds exactly
  // one primary partition (plus one backup).
  std::size_t total_primary = 0;
  for (WorkerId w : cluster.worker_ids()) {
    total_primary +=
        cluster.worker(w).metrics().counter_value("ingested_primary");
  }
  EXPECT_EQ(total_primary, 4u);
  std::size_t total_replica = 0;
  for (WorkerId w : cluster.worker_ids()) {
    total_replica +=
        cluster.worker(w).metrics().counter_value("ingested_replica");
  }
  EXPECT_EQ(total_replica, 4u);  // replication factor 2
}

TEST(Coordinator, RangeQueryFansOutOnlyToFootprint) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 4, 4, tw.trace.cameras),
      cluster_config(8));
  cluster.ingest_all(tw.trace.detections);

  // Tiny region → small fan-out.
  Rect tiny = Rect::centered(tw.world.center(), 5.0);
  (void)cluster.execute(
      Query::range(cluster.next_query_id(), tiny, TimeInterval::all()));
  EXPECT_LE(cluster.coordinator().mean_fanout(), 4.0);

  // Whole-world region → everyone.
  (void)cluster.execute(
      Query::range(cluster.next_query_id(), tw.world, TimeInterval::all()));
  EXPECT_GT(
      cluster.coordinator().metrics().counter_value("query_fanout_total"),
      8u);
}

TEST(Coordinator, KnnFootprintIsItsSearchCircle) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 4, 4, tw.trace.cameras),
      cluster_config(4));
  const Coordinator& coordinator = cluster.coordinator();
  Point c = tw.world.center();  // the corner of four tiles

  // Query::knn builds radius ∞: every partition.
  Query knn = Query::knn(QueryId(1), c, 5, TimeInterval::all());
  EXPECT_EQ(coordinator.footprint(knn).size(), 16u);

  // A bounded k-NN asks what a circle query of its circle asks.
  knn.circle.radius = 10.0;
  Query circle =
      Query::circle_query(QueryId(2), {c, 10.0}, TimeInterval::all());
  EXPECT_EQ(coordinator.footprint(knn), coordinator.footprint(circle));
  EXPECT_EQ(coordinator.footprint(knn).size(), 4u);

  // Off the corner, a small circle stays inside one tile.
  knn.circle.center = {c.x + 50.0, c.y + 50.0};
  EXPECT_EQ(coordinator.footprint(knn).size(), 1u);
}

TEST(Coordinator, QueryResultsMatchAcrossStrategies) {
  TestWorld tw;
  auto collect_ids = [&](Cluster& cluster, const Rect& region) {
    QueryResult r = cluster.execute(
        Query::range(cluster.next_query_id(), region, TimeInterval::all()));
    std::set<std::uint64_t> ids;
    for (const Detection& d : r.detections) ids.insert(d.id.value());
    return ids;
  };

  Cluster spatial(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 3, 3, tw.trace.cameras),
      cluster_config(4));
  spatial.ingest_all(tw.trace.detections);
  Cluster hash(tw.world, std::make_unique<HashStrategy>(9),
               cluster_config(4));
  hash.ingest_all(tw.trace.detections);

  Rect region = Rect::centered(tw.world.center(), 250.0);
  EXPECT_EQ(collect_ids(spatial, region), collect_ids(hash, region));
}

TEST(Coordinator, CountQueryAggregatesAcrossWorkers) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 3, 3, tw.trace.cameras),
      cluster_config(4));
  cluster.ingest_all(tw.trace.detections);
  QueryResult count = cluster.execute(Query::count(
      cluster.next_query_id(), tw.world, TimeInterval::all()));
  EXPECT_EQ(count.total_count(), tw.trace.detections.size());

  QueryResult grouped = cluster.execute(
      Query::count(cluster.next_query_id(), tw.world, TimeInterval::all(),
                   GroupBy::kCamera));
  EXPECT_EQ(grouped.total_count(), tw.trace.detections.size());
  std::uint64_t manual = 0;
  for (const Detection& d : tw.trace.detections) {
    manual += (d.camera == CameraId(1)) ? 1 : 0;
  }
  if (manual > 0) {
    EXPECT_EQ(grouped.counts.at(1), manual);
  }
}

TEST(Coordinator, ContinuousMonitorStreamsDeltas) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 2, 2, tw.trace.cameras),
      cluster_config(4));
  QueryId monitor_id = cluster.next_query_id();
  Rect region = Rect::centered(tw.world.center(), 300.0);
  cluster.install_monitor({monitor_id, region, Duration::minutes(5)});

  cluster.ingest_all(tw.trace.detections);
  cluster.advance_time(Duration::seconds(5));  // let delta flush timers run

  auto deltas = cluster.drain_deltas(monitor_id);
  std::size_t expected = 0;
  for (const Detection& d : tw.trace.detections) {
    if (region.contains(d.position)) ++expected;
  }
  std::size_t positives = 0;
  for (const DeltaUpdate& d : deltas) {
    if (d.positive) ++positives;
  }
  EXPECT_EQ(positives, expected);
}

TEST(Coordinator, LiveAnswerTracksWindowExpiry) {
  TestWorld tw;
  ClusterConfig config = cluster_config(2);
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 2, 2, tw.trace.cameras),
      config);
  QueryId monitor_id = cluster.next_query_id();
  Rect region = tw.world;
  cluster.install_monitor({monitor_id, region, Duration::seconds(30)});

  std::vector<Detection> dets = {
      make_detection(1, tw.world.center(), 1'000'000),
  };
  cluster.ingest_all(dets);
  cluster.advance_time(Duration::seconds(5));
  EXPECT_EQ(cluster.live_answer(monitor_id).size(), 1u);

  // One minute later, the 30 s window has expired the detection.
  cluster.advance_time(Duration::minutes(1));
  EXPECT_TRUE(cluster.live_answer(monitor_id).empty());
}

TEST(Coordinator, TrajectoryQuerySpansWorkers) {
  TestWorld tw;
  Cluster cluster(
      tw.world,
      std::make_unique<SpatialGridStrategy>(tw.world, 3, 3, tw.trace.cameras),
      cluster_config(4));
  cluster.ingest_all(tw.trace.detections);
  // Pick the object with the most detections.
  std::unordered_map<std::uint64_t, std::size_t> counts;
  for (const Detection& d : tw.trace.detections) ++counts[d.object.value()];
  std::uint64_t best_obj = 0;
  std::size_t best_n = 0;
  for (auto [obj, n] : counts) {
    if (n > best_n) {
      best_obj = obj;
      best_n = n;
    }
  }
  QueryResult r = cluster.execute(Query::trajectory(
      cluster.next_query_id(), ObjectId(best_obj), TimeInterval::all()));
  EXPECT_EQ(r.detections.size(), best_n);
  for (std::size_t i = 1; i < r.detections.size(); ++i) {
    EXPECT_LE(r.detections[i - 1].time, r.detections[i].time);
  }
}

}  // namespace
}  // namespace stcn
