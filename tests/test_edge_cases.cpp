// Degenerate configurations and boundary conditions across modules —
// the inputs a downstream user will eventually feed the library.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "query/colocation.h"
#include "trace/generator.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1);
  d.object = ObjectId(1);
  d.position = pos;
  d.time = TimePoint(t);
  return d;
}

TEST(EdgeCases, NegativeCoordinateWorld) {
  // Worlds are often centered on an origin; everything must work with
  // negative coordinates throughout.
  Rect world{{-1000, -1000}, {1000, 1000}};
  CentralizedIndex index(world);
  index.ingest(make_detection(1, {-500, -500}, 100));
  index.ingest(make_detection(2, {500, 500}, 200));
  index.ingest(make_detection(3, {-999, 999}, 300));

  QueryResult r = index.execute(Query::range(
      QueryId(1), {{-600, -600}, {-400, -400}}, TimeInterval::all()));
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, DetectionId(1));

  QueryResult knn =
      index.execute(Query::knn(QueryId(2), {-990, 990}, 1, TimeInterval::all()));
  ASSERT_EQ(knn.detections.size(), 1u);
  EXPECT_EQ(knn.detections[0].id, DetectionId(3));
}

TEST(EdgeCases, SinglePartitionSingleWorkerCluster) {
  Rect world{{0, 0}, {100, 100}};
  RoadNetworkConfig rc;
  rc.grid_cols = 2;
  rc.grid_rows = 2;
  RoadNetwork roads = RoadNetwork::build(rc);
  CameraNetworkConfig cc;
  cc.camera_count = 2;
  CameraNetwork cameras = CameraNetwork::place(roads, cc);

  ClusterConfig config;
  config.worker_count = 1;
  Cluster cluster(world,
                  std::make_unique<SpatialGridStrategy>(world, 1, 1, cameras),
                  config);
  std::vector<Detection> dets = {make_detection(1, {50, 50}, 100)};
  cluster.ingest_all(dets);
  QueryResult r = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  EXPECT_EQ(r.detections.size(), 1u);
}

TEST(EdgeCases, MoreWorkersThanPartitions) {
  Rect world{{0, 0}, {1000, 1000}};
  RoadNetworkConfig rc;
  rc.grid_cols = 3;
  rc.grid_rows = 3;
  rc.block_size_m = 400.0;
  RoadNetwork roads = RoadNetwork::build(rc);
  CameraNetworkConfig cc;
  cc.camera_count = 4;
  CameraNetwork cameras = CameraNetwork::place(roads, cc);

  ClusterConfig config;
  config.worker_count = 16;  // only 4 partitions exist
  Cluster cluster(world,
                  std::make_unique<SpatialGridStrategy>(world, 2, 2, cameras),
                  config);
  std::vector<Detection> dets;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    dets.push_back(make_detection(
        i, {static_cast<double>(i * 45 % 1000), 500.0},
        static_cast<std::int64_t>(i * 1000)));
  }
  cluster.ingest_all(dets);
  QueryResult r = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  EXPECT_EQ(r.detections.size(), 20u);
}

TEST(EdgeCases, EmptyClusterAnswersEverything) {
  Rect world{{0, 0}, {100, 100}};
  RoadNetworkConfig rc;
  rc.grid_cols = 2;
  rc.grid_rows = 2;
  RoadNetwork roads = RoadNetwork::build(rc);
  CameraNetworkConfig cc;
  cc.camera_count = 1;
  CameraNetwork cameras = CameraNetwork::place(roads, cc);

  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(world,
                  std::make_unique<SpatialGridStrategy>(world, 2, 2, cameras),
                  config);
  EXPECT_TRUE(cluster
                  .execute(Query::range(cluster.next_query_id(), world,
                                        TimeInterval::all()))
                  .detections.empty());
  EXPECT_TRUE(cluster
                  .execute(Query::knn(cluster.next_query_id(), {50, 50}, 5,
                                      TimeInterval::all()))
                  .detections.empty());
  EXPECT_EQ(cluster
                .execute(Query::count(cluster.next_query_id(), world,
                                      TimeInterval::all()))
                .total_count(),
            0u);
  EXPECT_TRUE(cluster
                  .execute(Query::trajectory(cluster.next_query_id(),
                                             ObjectId(1), TimeInterval::all()))
                  .detections.empty());
}

TEST(EdgeCases, DetectionExactlyOnWorldEdge) {
  Rect world{{0, 0}, {100, 100}};
  CentralizedIndex index(world);
  index.ingest(make_detection(1, {0, 0}, 100));       // min corner: inside
  index.ingest(make_detection(2, {100, 100}, 100));   // max corner: outside
                                                      // (half-open), clamped
  QueryResult r = index.execute(
      Query::range(QueryId(1), world, TimeInterval::all()));
  // The min-corner detection is in the region; the max-corner one is not
  // (regions are half-open) but it is still stored.
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, DetectionId(1));
  EXPECT_EQ(index.size(), 2u);
}

TEST(EdgeCases, ZeroDurationIntervalAlwaysEmpty) {
  Rect world{{0, 0}, {100, 100}};
  CentralizedIndex index(world);
  index.ingest(make_detection(1, {50, 50}, 100));
  TimeInterval empty{TimePoint(100), TimePoint(100)};
  EXPECT_TRUE(index.execute(Query::range(QueryId(1), world, empty))
                  .detections.empty());
  EXPECT_TRUE(
      index.execute(Query::knn(QueryId(2), {50, 50}, 3, empty))
          .detections.empty());
}

TEST(EdgeCases, NegativeTimestampsSupported) {
  // Replayed historical traces can sit before the scenario origin.
  Rect world{{0, 0}, {100, 100}};
  CentralizedIndex index(world);
  index.ingest(make_detection(1, {50, 50}, -5'000'000));
  QueryResult r = index.execute(Query::range(
      QueryId(1), world, {TimePoint(-10'000'000), TimePoint(0)}));
  ASSERT_EQ(r.detections.size(), 1u);
}

TEST(EdgeCases, TinyRoadNetwork) {
  RoadNetworkConfig rc;
  rc.grid_cols = 2;
  rc.grid_rows = 2;
  rc.removal_fraction = 0.9;  // tries to remove almost everything
  RoadNetwork roads = RoadNetwork::build(rc);
  // Spanning structure keeps it connected regardless.
  EXPECT_GE(roads.edge_count(), 3u);
  auto path = roads.shortest_path(0, 3);
  EXPECT_GE(path.size(), 2u);
}

TEST(EdgeCases, TraceWithOneObjectOneCamera) {
  TraceConfig tc;
  tc.roads.grid_cols = 2;
  tc.roads.grid_rows = 2;
  tc.cameras.camera_count = 1;
  tc.mobility.object_count = 1;
  tc.duration = Duration::minutes(1);
  Trace trace = TraceGenerator::generate(tc);
  // May legitimately be empty (the object may never pass the camera), but
  // every structure must be well-formed.
  EXPECT_EQ(trace.cameras.size(), 1u);
  EXPECT_EQ(trace.ground_truth.size(), 1u);
  for (const Detection& d : trace.detections) {
    EXPECT_EQ(d.camera, CameraId(1));
    EXPECT_EQ(d.object, ObjectId(1));
  }
}

TEST(EdgeCases, CoLocationWithIdenticalPositions) {
  // Perfectly stacked detections (same spot, same instant).
  std::vector<Detection> ds;
  for (std::uint64_t obj = 1; obj <= 4; ++obj) {
    Detection d = make_detection(obj, {50, 50}, 100);
    d.object = ObjectId(obj);
    ds.push_back(d);
  }
  CoLocationParams p;
  p.max_distance = 1.0;
  p.max_gap = Duration::seconds(1);
  p.min_events = 1;
  auto meetings = find_meetings(ds, p);
  EXPECT_EQ(meetings.size(), 6u);  // C(4,2) pairs
}

// Detections 9 (t=1000, at (10,10)) and 3 (t=2000, at (30,10)) tie at
// distance 10 from (20,10). k=1 must keep id 3: k-NN answers are ordered by
// (distance, detection id), whatever order the rows arrived in — the order
// ResultMerger finalizes by, through execute and explain alike.
std::vector<Detection> knn_tie_pair() {
  return {make_detection(9, {10, 10}, 1000), make_detection(3, {30, 10}, 2000)};
}

TEST(EdgeCases, KnnTieKeepsSmallerIdCentralized) {
  CentralizedIndex index({{0, 0}, {100, 100}});
  index.ingest_all(knn_tie_pair());
  QueryResult r = index.execute(
      Query::knn(QueryId(1), {20, 10}, 1, TimeInterval::all()));
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, DetectionId(3));
}

TEST(EdgeCases, KnnTieKeepsSmallerIdCluster) {
  Rect world{{0, 0}, {100, 100}};
  RoadNetworkConfig rc;
  rc.grid_cols = 2;
  rc.grid_rows = 2;
  RoadNetwork roads = RoadNetwork::build(rc);
  CameraNetworkConfig cc;
  cc.camera_count = 2;
  CameraNetwork cameras = CameraNetwork::place(roads, cc);

  ClusterConfig config;
  config.worker_count = 1;
  // One partition: both rows share a store, so the worker's own top-1 (not
  // the coordinator's merge) decides the tie.
  Cluster cluster(world,
                  std::make_unique<SpatialGridStrategy>(world, 1, 1, cameras),
                  config);
  cluster.ingest_all(knn_tie_pair());
  Query knn =
      Query::knn(cluster.next_query_id(), {20, 10}, 1, TimeInterval::all());
  QueryResult executed = cluster.execute(knn);
  ASSERT_EQ(executed.detections.size(), 1u);
  EXPECT_EQ(executed.detections[0].id, DetectionId(3));
  knn.id = cluster.next_query_id();
  QueryResult explained = cluster.explain(knn).result;
  ASSERT_EQ(explained.detections.size(), 1u);
  EXPECT_EQ(explained.detections[0].id, DetectionId(3));
}

}  // namespace
}  // namespace stcn
