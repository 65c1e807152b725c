#include "query/query.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "query/executor.h"
#include "query/result.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t,
                         std::uint64_t object = 1, std::uint64_t camera = 1) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(camera);
  d.object = ObjectId(object);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

class ExecutorFixture : public ::testing::Test {
 protected:
  ExecutorFixture() : indexes_(GridIndexConfig{{{0, 0}, {100, 100}}, 10.0}) {
    // A small fixed dataset exercised by every query kind.
    indexes_.ingest(make_detection(1, {10, 10}, 100, /*object=*/1, /*camera=*/1));
    indexes_.ingest(make_detection(2, {20, 20}, 200, 1, 2));
    indexes_.ingest(make_detection(3, {80, 80}, 300, 2, 3));
    indexes_.ingest(make_detection(4, {15, 15}, 400, 2, 1));
    indexes_.ingest(make_detection(5, {50, 50}, 500, 3, 2));
  }

  WorkerIndexes indexes_;
};

TEST_F(ExecutorFixture, RangeQuery) {
  Query q = Query::range(QueryId(1), {{0, 0}, {30, 30}}, TimeInterval::all());
  QueryResult r = LocalExecutor::execute(indexes_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 4}));
}

TEST_F(ExecutorFixture, RangeQueryWithTimeFilter) {
  Query q = Query::range(QueryId(1), {{0, 0}, {30, 30}},
                         {TimePoint(150), TimePoint(450)});
  QueryResult r = LocalExecutor::execute(indexes_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{2, 4}));
}

TEST_F(ExecutorFixture, CircleQuery) {
  Query q = Query::circle_query(QueryId(1), {{12, 12}, 5.0},
                                TimeInterval::all());
  QueryResult r = LocalExecutor::execute(indexes_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 4}));
}

TEST_F(ExecutorFixture, KnnQuery) {
  Query q = Query::knn(QueryId(1), {10, 10}, 2, TimeInterval::all());
  QueryResult r = LocalExecutor::execute(indexes_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 4}));
}

TEST_F(ExecutorFixture, TrajectoryQuery) {
  Query q = Query::trajectory(QueryId(1), ObjectId(2), TimeInterval::all());
  QueryResult r = LocalExecutor::execute(indexes_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  EXPECT_EQ(r.detections[0].id, DetectionId(3));
  EXPECT_EQ(r.detections[1].id, DetectionId(4));
}

TEST_F(ExecutorFixture, CountQueryUngrouped) {
  Query q = Query::count(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = LocalExecutor::execute(indexes_, q);
  EXPECT_TRUE(r.detections.empty());
  EXPECT_EQ(r.total_count(), 5u);
}

TEST_F(ExecutorFixture, CountQueryGroupedByCamera) {
  Query q = Query::count(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all(), GroupBy::kCamera);
  QueryResult r = LocalExecutor::execute(indexes_, q);
  EXPECT_EQ(r.counts.at(1), 2u);
  EXPECT_EQ(r.counts.at(2), 2u);
  EXPECT_EQ(r.counts.at(3), 1u);
  EXPECT_EQ(r.total_count(), 5u);
}

TEST_F(ExecutorFixture, CameraWindowQuery) {
  Query q = Query::camera_window(QueryId(1), CameraId(1),
                                 {TimePoint(0), TimePoint(450)});
  QueryResult r = LocalExecutor::execute(indexes_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  EXPECT_EQ(r.detections[0].id, DetectionId(1));
  EXPECT_EQ(r.detections[1].id, DetectionId(4));
}

std::vector<std::uint64_t> camera_window_ids(const WorkerIndexes& indexes,
                                             CameraId camera,
                                             TimeInterval window) {
  Query q = Query::camera_window(QueryId(1), camera, window);
  ResultMerger merger(q);
  merger.add(LocalExecutor::execute(indexes, q));
  std::vector<std::uint64_t> ids;
  for (const Detection& d : merger.take().detections) {
    ids.push_back(d.id.value());
  }
  return ids;
}

TEST_F(ExecutorFixture, CameraWindowOutOfOrderArrival) {
  // Late arrivals for camera 1: rows land after newer detections.
  indexes_.ingest(make_detection(6, {12, 12}, 250, 4, 1));
  indexes_.ingest(make_detection(7, {14, 14}, 50, 4, 1));
  EXPECT_EQ(camera_window_ids(indexes_, CameraId(1), TimeInterval::all()),
            (std::vector<std::uint64_t>{7, 1, 6, 4}));
  EXPECT_EQ(camera_window_ids(indexes_, CameraId(1),
                              {TimePoint(60), TimePoint(300)}),
            (std::vector<std::uint64_t>{1, 6}));
}

TEST_F(ExecutorFixture, CameraWindowHalfOpen) {
  // [begin, end): a detection at `begin` is in, one at `end` is out.
  EXPECT_EQ(camera_window_ids(indexes_, CameraId(1),
                              {TimePoint(100), TimePoint(400)}),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(camera_window_ids(indexes_, CameraId(1),
                              {TimePoint(101), TimePoint(401)}),
            (std::vector<std::uint64_t>{4}));
}

TEST_F(ExecutorFixture, CameraWindowUnknownCameraAndEmptyWindow) {
  EXPECT_TRUE(
      camera_window_ids(indexes_, CameraId(99), TimeInterval::all()).empty());
  EXPECT_TRUE(camera_window_ids(indexes_, CameraId(1),
                                {TimePoint(100), TimePoint(100)})
                  .empty());
  EXPECT_TRUE(camera_window_ids(indexes_, CameraId(1),
                                {TimePoint(400), TimePoint(100)})
                  .empty());
}

TEST(QueryModel, SpatialFootprints) {
  Query range = Query::range(QueryId(1), {{0, 0}, {5, 5}},
                             TimeInterval::all());
  EXPECT_TRUE(range.has_spatial_footprint());
  EXPECT_EQ(range.spatial_footprint(), (Rect{{0, 0}, {5, 5}}));

  Query circ =
      Query::circle_query(QueryId(2), {{5, 5}, 2.0}, TimeInterval::all());
  EXPECT_TRUE(circ.has_spatial_footprint());
  EXPECT_EQ(circ.spatial_footprint(), (Rect{{3, 3}, {7, 7}}));

  Query knn = Query::knn(QueryId(3), {0, 0}, 5, TimeInterval::all());
  EXPECT_FALSE(knn.has_spatial_footprint());
  Query traj = Query::trajectory(QueryId(4), ObjectId(1), TimeInterval::all());
  EXPECT_FALSE(traj.has_spatial_footprint());
}

TEST(ResultMerger, DedupsDuplicateDetections) {
  Query q = Query::range(QueryId(9), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  ResultMerger merger(q);
  QueryResult a;
  a.query = q.id;
  a.detections = {make_detection(1, {1, 1}, 100),
                  make_detection(2, {2, 2}, 200)};
  QueryResult b;
  b.query = q.id;
  b.detections = {make_detection(2, {2, 2}, 200),   // duplicate
                  make_detection(3, {3, 3}, 50)};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  ASSERT_EQ(merged.detections.size(), 3u);
  // Time-ordered.
  EXPECT_EQ(merged.detections[0].id, DetectionId(3));
  EXPECT_EQ(merged.detections[1].id, DetectionId(1));
  EXPECT_EQ(merged.detections[2].id, DetectionId(2));
}

TEST(ResultMerger, KnnKeepsGlobalTopK) {
  Query q = Query::knn(QueryId(9), {0, 0}, 2, TimeInterval::all());
  ResultMerger merger(q);
  QueryResult a;
  a.detections = {make_detection(1, {10, 0}, 0), make_detection(2, {1, 0}, 0)};
  QueryResult b;
  b.detections = {make_detection(3, {5, 0}, 0), make_detection(4, {20, 0}, 0)};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  ASSERT_EQ(merged.detections.size(), 2u);
  EXPECT_EQ(merged.detections[0].id, DetectionId(2));  // distance 1
  EXPECT_EQ(merged.detections[1].id, DetectionId(3));  // distance 5
}

TEST(ResultMerger, SumsCounts) {
  Query q = Query::count(QueryId(9), {{0, 0}, {1, 1}}, TimeInterval::all(),
                         GroupBy::kCamera);
  ResultMerger merger(q);
  QueryResult a;
  a.counts = {{1, 5}, {2, 3}};
  QueryResult b;
  b.counts = {{2, 2}, {3, 7}};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  EXPECT_EQ(merged.counts.at(1), 5u);
  EXPECT_EQ(merged.counts.at(2), 5u);
  EXPECT_EQ(merged.counts.at(3), 7u);
  EXPECT_EQ(merged.total_count(), 17u);
}

}  // namespace
}  // namespace stcn
