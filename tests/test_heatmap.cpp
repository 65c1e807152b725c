#include <gtest/gtest.h>

#include <memory>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1);
  d.object = ObjectId(1);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

TEST(HeatmapQuery, GridShapeHelpers) {
  Query q = Query::heatmap(QueryId(1), {{0, 0}, {100, 50}}, 10.0,
                           TimeInterval::all());
  EXPECT_EQ(q.heatmap_cols(), 10u);
  EXPECT_EQ(q.heatmap_rows(), 5u);
  EXPECT_EQ(q.heatmap_cell({5, 5}), 0u);
  EXPECT_EQ(q.heatmap_cell({15, 5}), 1u);
  EXPECT_EQ(q.heatmap_cell({5, 15}), 10u);
  EXPECT_EQ(q.heatmap_cell({95, 45}), 49u);
}

TEST(HeatmapQuery, SerializationRoundTrip) {
  Query q = Query::heatmap(QueryId(7), {{0, 0}, {100, 100}}, 25.0,
                           {TimePoint(5), TimePoint(10)});
  BinaryWriter w;
  serialize(w, q);
  BinaryReader r(w.bytes());
  Query back = deserialize_query(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.kind, QueryKind::kHeatmap);
  EXPECT_DOUBLE_EQ(back.cell_size, 25.0);
  EXPECT_EQ(back.region, q.region);
}

TEST(HeatmapQuery, LocalExecutionCountsPerCell) {
  CentralizedIndex index({{0, 0}, {100, 100}});
  index.ingest(make_detection(1, {5, 5}, 100));    // cell 0
  index.ingest(make_detection(2, {7, 3}, 200));    // cell 0
  index.ingest(make_detection(3, {55, 5}, 300));   // cell 1 (50 m cells)
  index.ingest(make_detection(4, {5, 55}, 400));   // cell 2
  index.ingest(make_detection(5, {55, 55}, 500));  // cell 3

  Query q = Query::heatmap(QueryId(1), {{0, 0}, {100, 100}}, 50.0,
                           TimeInterval::all());
  QueryResult r = index.execute(q);
  EXPECT_EQ(r.counts.at(0), 2u);
  EXPECT_EQ(r.counts.at(1), 1u);
  EXPECT_EQ(r.counts.at(2), 1u);
  EXPECT_EQ(r.counts.at(3), 1u);
  EXPECT_EQ(r.total_count(), 5u);
}

TEST(HeatmapQuery, RespectsTimeInterval) {
  CentralizedIndex index({{0, 0}, {100, 100}});
  index.ingest(make_detection(1, {5, 5}, 100));
  index.ingest(make_detection(2, {5, 5}, 900));
  Query q = Query::heatmap(QueryId(1), {{0, 0}, {100, 100}}, 50.0,
                           {TimePoint(0), TimePoint(500)});
  EXPECT_EQ(index.execute(q).total_count(), 1u);
}

TEST(HeatmapQuery, ZeroCellSizeYieldsEmpty) {
  CentralizedIndex index({{0, 0}, {100, 100}});
  index.ingest(make_detection(1, {5, 5}, 100));
  Query q = Query::heatmap(QueryId(1), {{0, 0}, {100, 100}}, 0.0,
                           TimeInterval::all());
  EXPECT_EQ(index.execute(q).total_count(), 0u);
  EXPECT_EQ(q.heatmap_cols(), 0u);
}

TEST(HeatmapQuery, DistributedMatchesCentralizedAndCountGrid) {
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 20;
  tc.mobility.object_count = 15;
  tc.duration = Duration::minutes(3);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);

  CentralizedIndex central(world);
  central.ingest_all(trace.detections);

  ClusterConfig config;
  config.worker_count = 4;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  Query q = Query::heatmap(cluster.next_query_id(), world, 200.0,
                           TimeInterval::all());
  QueryResult distributed = cluster.execute(q);
  QueryResult centralized = central.execute(q);
  EXPECT_EQ(distributed.counts, centralized.counts);
  EXPECT_EQ(distributed.total_count(), trace.detections.size());

  // One heatmap must agree with a grid of individual count queries.
  for (std::size_t cy = 0; cy < q.heatmap_rows(); cy += 3) {
    for (std::size_t cx = 0; cx < q.heatmap_cols(); cx += 3) {
      Rect cell{{world.min.x + static_cast<double>(cx) * 200.0,
                 world.min.y + static_cast<double>(cy) * 200.0},
                {world.min.x + static_cast<double>(cx + 1) * 200.0,
                 world.min.y + static_cast<double>(cy + 1) * 200.0}};
      // Clip to world so positions on the far edge stay comparable.
      QueryResult count = cluster.execute(Query::count(
          cluster.next_query_id(), cell.intersection(world),
          TimeInterval::all()));
      std::uint64_t key = cy * q.heatmap_cols() + cx;
      auto it = distributed.counts.find(key);
      std::uint64_t heat = it == distributed.counts.end() ? 0 : it->second;
      EXPECT_EQ(heat, count.total_count()) << "cell " << key;
    }
  }
}

}  // namespace
}  // namespace stcn
