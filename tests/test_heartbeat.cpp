// Heartbeat-based failure detection at the coordinator.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct HeartbeatScenario {
  Trace trace;
  Rect world;

  HeartbeatScenario() {
    TraceConfig tc;
    tc.roads.grid_cols = 6;
    tc.roads.grid_rows = 6;
    tc.cameras.camera_count = 18;
    tc.mobility.object_count = 12;
    tc.duration = Duration::minutes(2);
    trace = TraceGenerator::generate(tc);
    world = trace.roads.bounds(120.0);
  }

  std::unique_ptr<Cluster> make_cluster(bool detect = true) {
    ClusterConfig config;
    config.worker_count = 4;
    config.coordinator.detect_failures = detect;
    config.coordinator.heartbeat_timeout = Duration::seconds(5);
    config.coordinator.failure_sweep_period = Duration::seconds(2);
    return std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
        config);
  }
};

TEST(Heartbeat, HealthyClusterSuspectsNobody) {
  HeartbeatScenario s;
  auto cluster = s.make_cluster();
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(30));
  EXPECT_TRUE(cluster->coordinator().suspected_workers().empty());
  EXPECT_EQ(
      cluster->coordinator().metrics().counter_value("workers_suspected"),
      0u);
}

TEST(Heartbeat, SilentWorkerSuspectedAndFailedOver) {
  HeartbeatScenario s;
  auto cluster = s.make_cluster();
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(10));  // heartbeats registered

  cluster->crash_worker(WorkerId(2));
  cluster->advance_time(Duration::seconds(15));  // past timeout + sweep

  EXPECT_TRUE(
      cluster->coordinator().suspected_workers().contains(WorkerId(2)));
  EXPECT_GT(
      cluster->coordinator().metrics().counter_value("workers_suspected"),
      0u);
  // Every partition has been re-pointed away from the dead worker.
  const PartitionMap& map = cluster->coordinator().partition_map();
  for (std::size_t p = 0; p < map.partition_count(); ++p) {
    EXPECT_NE(map.primary(PartitionId(p)), WorkerId(2));
  }
}

TEST(Heartbeat, QueriesAfterDetectionNeedNoRetry) {
  HeartbeatScenario s;
  auto cluster = s.make_cluster();
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(10));
  cluster->crash_worker(WorkerId(1));
  cluster->advance_time(Duration::seconds(15));

  auto retries0 =
      cluster->coordinator().metrics().counter_value("failover_retries");
  QueryResult r = cluster->execute(Query::range(
      cluster->next_query_id(), s.world, TimeInterval::all()));
  EXPECT_EQ(cluster->coordinator().metrics().counter_value("failover_retries"),
            retries0)
      << "after proactive failover, no per-query retry should be needed";
  EXPECT_EQ(r.detections.size(), s.trace.detections.size());
}

TEST(Heartbeat, RestartedWorkerUnsuspectedByItsHeartbeat) {
  HeartbeatScenario s;
  auto cluster = s.make_cluster();
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(10));
  cluster->crash_worker(WorkerId(3));
  cluster->advance_time(Duration::seconds(15));
  ASSERT_TRUE(
      cluster->coordinator().suspected_workers().contains(WorkerId(3)));

  cluster->restart_worker(WorkerId(3));
  cluster->advance_time(Duration::seconds(5));  // heartbeats resume
  EXPECT_FALSE(
      cluster->coordinator().suspected_workers().contains(WorkerId(3)));
}

TEST(Heartbeat, DetectionCanBeDisabled) {
  HeartbeatScenario s;
  auto cluster = s.make_cluster(/*detect=*/false);
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(10));
  cluster->crash_worker(WorkerId(2));
  cluster->advance_time(Duration::seconds(30));
  EXPECT_TRUE(cluster->coordinator().suspected_workers().empty());
}

}  // namespace
}  // namespace stcn
