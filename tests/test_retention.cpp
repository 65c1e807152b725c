#include <gtest/gtest.h>

#include <memory>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t_seconds,
                         std::uint64_t object = 1) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1);
  d.object = ObjectId(object);
  d.time = TimePoint(t_seconds * 1'000'000);
  d.position = pos;
  return d;
}

TEST(Compaction, EvictsOldKeepsRecent) {
  WorkerIndexes indexes;
  indexes.ingest(make_detection(1, {10, 10}, 10));
  indexes.ingest(make_detection(2, {20, 20}, 20));
  indexes.ingest(make_detection(3, {30, 30}, 30));

  std::size_t evicted = indexes.compact(TimePoint(25'000'000));
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(indexes.size(), 1u);

  // Every index agrees after the rebuild.
  auto range =
      indexes.store.scan_range({{0, 0}, {100, 100}}, TimeInterval::all());
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(indexes.store.get(range[0]).id, DetectionId(3));
  EXPECT_EQ(indexes.store.scan_object(ObjectId(1), TimeInterval::all()).size(),
            1u);
  EXPECT_EQ(
      indexes.store.scan_camera(CameraId(1), TimeInterval::all()).size(), 1u);
}

// The dedup gate follows the surviving rows: compaction drops an evicted
// row's id with it, so a redelivered copy of that detection is admitted
// again, while a copy of a surviving one is still refused.
TEST(Compaction, DedupIdsFollowSurvivingRows) {
  WorkerIndexes indexes;
  ASSERT_TRUE(indexes.ingest(make_detection(1, {10, 10}, 10)));
  ASSERT_TRUE(indexes.ingest(make_detection(2, {20, 20}, 30)));
  EXPECT_FALSE(indexes.ingest(make_detection(1, {10, 10}, 10)));

  ASSERT_EQ(indexes.compact(TimePoint(25'000'000)), 1u);
  EXPECT_EQ(indexes.ids.size(), 1u);
  EXPECT_FALSE(indexes.ingest(make_detection(2, {20, 20}, 30)));
  EXPECT_TRUE(indexes.ingest(make_detection(1, {10, 10}, 10)));
  EXPECT_EQ(indexes.size(), 2u);
}

TEST(Compaction, NoOpWhenNothingOld) {
  WorkerIndexes indexes;
  indexes.ingest(make_detection(1, {10, 10}, 100));
  EXPECT_EQ(indexes.compact(TimePoint(0)), 0u);
  EXPECT_EQ(indexes.size(), 1u);
}

TEST(Compaction, EvictEverything) {
  WorkerIndexes indexes;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    indexes.ingest(make_detection(i, {10, 10}, static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(indexes.compact(TimePoint::max()), 10u);
  EXPECT_EQ(indexes.size(), 0u);
  EXPECT_TRUE(
      indexes.store.scan_range({{0, 0}, {100, 100}}, TimeInterval::all())
          .empty());
}

TEST(Compaction, IngestAfterCompactionWorks) {
  WorkerIndexes indexes;
  indexes.ingest(make_detection(1, {10, 10}, 10));
  indexes.compact(TimePoint::max());
  indexes.ingest(make_detection(2, {20, 20}, 20));
  auto range =
      indexes.store.scan_range({{0, 0}, {100, 100}}, TimeInterval::all());
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(indexes.store.get(range[0]).id, DetectionId(2));
}

TEST(Retention, ClusterEvictsBeyondWindow) {
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 20;
  tc.mobility.object_count = 15;
  tc.duration = Duration::minutes(4);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);

  ClusterConfig config;
  config.worker_count = 3;
  config.retention = Duration::minutes(1);
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);
  // Let the compaction ticks run past the end of the trace.
  cluster.advance_time(Duration::minutes(2));

  // Everything older than (now - 1 min) must be gone; the freshest slice
  // must survive. Query the full timeline and inspect what remains.
  QueryResult remaining = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  TimePoint now = cluster.now();
  for (const Detection& d : remaining.detections) {
    EXPECT_GE(d.time, now - Duration::minutes(1) - Duration::seconds(31))
        << "stale detection survived retention";
  }
  EXPECT_LT(remaining.detections.size(), trace.detections.size());

  std::uint64_t evicted = 0;
  for (WorkerId w : cluster.worker_ids()) {
    evicted += cluster.worker(w).metrics().counter_value("detections_evicted");
  }
  EXPECT_GT(evicted, 0u);
}

TEST(Retention, DisabledByDefault) {
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 15;
  tc.mobility.object_count = 10;
  tc.duration = Duration::minutes(3);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);

  ClusterConfig config;
  config.worker_count = 2;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);
  cluster.advance_time(Duration::minutes(10));
  QueryResult all = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  EXPECT_EQ(all.detections.size(), trace.detections.size());
}

}  // namespace
}  // namespace stcn
