// Object-presence summaries: trajectory-query fan-out pruning.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct SummaryScenario {
  Trace trace;
  Rect world;
  std::unique_ptr<Cluster> cluster;
  CentralizedIndex oracle;

  SummaryScenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 8;
          c.roads.grid_rows = 8;
          c.cameras.camera_count = 30;
          c.mobility.object_count = 25;
          c.duration = Duration::minutes(4);
          return c;
        }())),
        world(trace.roads.bounds(120.0)),
        oracle(world) {
    oracle.ingest_all(trace.detections);
    ClusterConfig config;
    config.worker_count = 6;
    cluster = std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    cluster->ingest_all(trace.detections);
    // Let summary ticks publish (every 5 monitor ticks = 5 s).
    cluster->advance_time(Duration::seconds(12));
  }
};

std::set<std::uint64_t> ids_of(const QueryResult& r) {
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  return ids;
}

TEST(ObjectSummaries, PublishedForEveryPartition) {
  SummaryScenario s;
  // Every partition holding data has a summary at the coordinator.
  EXPECT_GE(s.cluster->coordinator().summarized_partitions(), 10u);
  std::uint64_t published = 0;
  for (WorkerId w : s.cluster->worker_ids()) {
    published +=
        s.cluster->worker(w).metrics().counter_value("summaries_published");
  }
  EXPECT_GT(published, 0u);
}

TEST(ObjectSummaries, PruneTrajectoryFanout) {
  SummaryScenario s;
  // Bounded-interval trajectory query: summaries cover it → pruning fires.
  TimeInterval covered{TimePoint::origin(),
                       TimePoint::origin() + Duration::minutes(4)};
  auto pruned0 = s.cluster->coordinator().metrics().counter_value(
      "trajectory_partitions_pruned");
  for (std::uint64_t obj = 1; obj <= 10; ++obj) {
    (void)s.cluster->execute(Query::trajectory(s.cluster->next_query_id(),
                                               ObjectId(obj), covered));
  }
  auto pruned = s.cluster->coordinator().metrics().counter_value(
                    "trajectory_partitions_pruned") -
                pruned0;
  EXPECT_GT(pruned, 0u)
      << "objects do not visit every partition; some must be pruned";
}

TEST(ObjectSummaries, PrunedResultsStillExact) {
  SummaryScenario s;
  TimeInterval covered{TimePoint::origin(),
                       TimePoint::origin() + Duration::minutes(4)};
  for (std::uint64_t obj = 1; obj <= 25; ++obj) {
    Query q = Query::trajectory(s.cluster->next_query_id(), ObjectId(obj),
                                covered);
    ASSERT_EQ(ids_of(s.cluster->execute(q)), ids_of(s.oracle.execute(q)))
        << "obj " << obj;
  }
}

TEST(ObjectSummaries, UnknownObjectPrunesEverywhereAndReturnsEmpty) {
  SummaryScenario s;
  TimeInterval covered{TimePoint::origin(),
                       TimePoint::origin() + Duration::minutes(4)};
  auto fanout0 =
      s.cluster->coordinator().metrics().counter_value("query_fanout_total");
  QueryResult r = s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(999'999), covered));
  EXPECT_TRUE(r.detections.empty());
  auto fanout = s.cluster->coordinator().metrics().counter_value(
                    "query_fanout_total") -
                fanout0;
  // A Bloom false positive can leak a worker or two, but nowhere near the
  // whole fleet.
  EXPECT_LE(fanout, 2u);
}

TEST(ObjectSummaries, IntervalBeyondWatermarkNeverPruned) {
  SummaryScenario s;
  // A query whose interval extends past every summary's as_of cannot be
  // pruned — freshness gate (future data may exist the summary missed).
  auto pruned0 = s.cluster->coordinator().metrics().counter_value(
      "trajectory_partitions_pruned");
  (void)s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(999'999), TimeInterval::all()));
  auto pruned = s.cluster->coordinator().metrics().counter_value(
                    "trajectory_partitions_pruned") -
                pruned0;
  EXPECT_EQ(pruned, 0u);
}

TEST(ObjectSummaries, FreshDataEventuallyCoveredByNewSummaries) {
  SummaryScenario s;
  // Ingest a brand-new object *after* the initial summaries.
  Detection fresh;
  fresh.id = DetectionId(10'000'000);
  fresh.object = ObjectId(500);
  fresh.camera = CameraId(1);
  fresh.position = s.world.center();
  fresh.time = s.cluster->now();
  std::vector<Detection> batch{fresh};
  s.cluster->ingest_all(batch);

  // Immediately query with an interval ending after the old watermarks:
  // no pruning applies, so the fresh detection is found.
  TimeInterval whole{TimePoint::origin(), fresh.time + Duration::seconds(1)};
  QueryResult now = s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(500), whole));
  ASSERT_EQ(now.detections.size(), 1u);

  // After the next summary round, the same bounded query gets pruned
  // routing yet still finds the detection (its partition's Bloom now
  // contains object 500).
  s.cluster->advance_time(Duration::seconds(12));
  QueryResult later = s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(500), whole));
  ASSERT_EQ(later.detections.size(), 1u);
  EXPECT_EQ(later.detections[0].id, fresh.id);
}

TEST(ObjectSummaries, CanBeDisabled) {
  TraceConfig tc;
  tc.roads.grid_cols = 5;
  tc.roads.grid_rows = 5;
  tc.cameras.camera_count = 12;
  tc.mobility.object_count = 8;
  tc.duration = Duration::minutes(2);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config;
  config.worker_count = 2;
  config.summary_every_ticks = 0;  // disabled
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);
  cluster.advance_time(Duration::seconds(20));
  EXPECT_EQ(cluster.coordinator().summarized_partitions(), 0u);
}

}  // namespace
}  // namespace stcn
