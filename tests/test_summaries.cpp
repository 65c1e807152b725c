// Object-presence summaries: trajectory-query fan-out pruning. Workers ship
// each partition's object Bloom filter on every heartbeat; the coordinator
// prunes only partitions whose summary covers every batch routed there.
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
    // Let heartbeats carry summaries that cover every routed batch.
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

  // Query at once: either no summary covers the new batch yet (so its
  // partition is asked), or one does and its filter holds object 500.
  TimeInterval whole{TimePoint::origin(), fresh.time + Duration::seconds(1)};
  QueryResult now = s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(500), whole));
  ASSERT_EQ(now.detections.size(), 1u);

  // After later heartbeats, the same bounded query gets pruned routing
  // yet still finds the detection (its partition's Bloom now contains
  // object 500).
  s.cluster->advance_time(Duration::seconds(12));
  QueryResult later = s.cluster->execute(Query::trajectory(
      s.cluster->next_query_id(), ObjectId(500), whole));
  ASSERT_EQ(later.detections.size(), 1u);
  EXPECT_EQ(later.detections[0].id, fresh.id);
}

// A small 2×2 cluster for the coverage-gate cases: two workers, no
// latency jitter, and hand-placed detections.
struct GateScenario {
  Trace trace = TraceGenerator::generate([] {
    TraceConfig c;
    c.roads.grid_cols = 5;
    c.roads.grid_rows = 5;
    c.cameras.camera_count = 12;
    c.mobility.object_count = 4;
    c.duration = Duration::minutes(1);
    return c;
  }());
  Rect world = trace.roads.bounds(120.0);
  std::unique_ptr<Cluster> cluster;
  CentralizedIndex oracle{world};
  std::uint64_t next_id = 1;

  GateScenario() {
    ClusterConfig config;
    config.worker_count = 2;
    config.network.latency_jitter = Duration::zero();
    cluster = std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
        config);
  }

  /// Points inside the lower-left and upper-right tiles.
  [[nodiscard]] Point tile_p() const {
    return {world.min.x + world.width() / 4, world.min.y + world.height() / 4};
  }
  [[nodiscard]] Point tile_q() const {
    return {world.max.x - world.width() / 4, world.max.y - world.height() / 4};
  }

  Detection at(std::uint64_t object, Point pos, Duration t) {
    Detection d;
    d.id = DetectionId(next_id++);
    d.object = ObjectId(object);
    d.camera = CameraId(1);
    d.position = pos;
    d.time = TimePoint::origin() + t;
    return d;
  }

  std::uint64_t pruned() const {
    return cluster->coordinator().metrics().counter_value(
        "trajectory_partitions_pruned");
  }

  /// Routes rows of object 8 into tile p and lets heartbeats cover them,
  /// then parks the clock half-way between two monitor ticks.
  void cover_p_and_park() {
    std::vector<Detection> rows;
    for (int i = 0; i < 10; ++i) {
      rows.push_back(at(8, tile_p(), Duration::millis(100 + i)));
    }
    cluster->ingest_all(rows);
    cluster->advance_time(TimePoint::origin() + Duration::millis(3'500) -
                          cluster->now());
  }

  /// Delivers what was just sent, well before the next tick.
  void deliver() {
    cluster->network().run_until(cluster->now() + Duration::millis(5));
  }

  QueryResult trajectory(std::uint64_t object) {
    return cluster->execute(Query::trajectory(
        cluster->next_query_id(), ObjectId(object), TimeInterval::all()));
  }
};

TEST(ObjectSummaries, BufferedRowNotHiddenByEarlierSummary) {
  GateScenario s;
  const PartitionStrategy& grid = s.cluster->strategy();
  ASSERT_NE(grid.partition_of(CameraId(1), s.tile_p(), TimePoint::origin()),
            grid.partition_of(CameraId(1), s.tile_q(), TimePoint::origin()));
  std::vector<Detection> rows;
  // One full batch of object 8 in tile p, flushed at once...
  for (int i = 0; i < 32; ++i) {
    rows.push_back(s.at(8, s.tile_p(), Duration::millis(100 + i)));
  }
  // ...then one row of object 7 in p that waits in the ingest buffer while
  // heartbeats summarize p without it...
  rows.push_back(s.at(7, s.tile_p(), Duration::millis(500)));
  // ...as object 9 keeps the clock moving in another tile.
  for (int sec = 1; sec <= 12; ++sec) {
    rows.push_back(s.at(9, s.tile_q(), Duration::seconds(sec)));
  }
  s.cluster->ingest_all(rows);
  s.oracle.ingest_all(rows);

  Query q = Query::trajectory(
      s.cluster->next_query_id(), ObjectId(7),
      TimeInterval{TimePoint::origin(),
                   TimePoint::origin() + Duration::seconds(9)});
  QueryResult expected = s.oracle.execute(q);
  ASSERT_EQ(expected.detections.size(), 1u);
  EXPECT_EQ(ids_of(s.cluster->execute(q)), ids_of(expected));
}

TEST(ObjectSummaries, UncoveredBatchNeverPruned) {
  GateScenario s;
  s.cover_p_and_park();
  std::uint64_t pruned0 = s.pruned();
  EXPECT_TRUE(s.trajectory(7).detections.empty());
  ASSERT_GT(s.pruned(), pruned0) << "a covering summary must prune";

  // Route and flush a row of object 7 into p, deliver it, and query before
  // the next tick: p's summary no longer covers every routed batch.
  Detection fresh = s.at(7, s.tile_p(), Duration::millis(3'500));
  s.cluster->ingest(fresh);
  s.cluster->flush_ingest();
  s.deliver();
  QueryResult r = s.trajectory(7);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, fresh.id);
}

TEST(ObjectSummaries, DirectGatewayFleetStopsPruning) {
  GateScenario s;
  s.cover_p_and_park();
  // A direct-mode gateway writes object 7 into p past the coordinator, so
  // p's summary still matches every batch the coordinator routed.
  GatewayFleet fleet = s.cluster->make_gateway_fleet(2);
  Detection fresh = s.at(7, s.tile_p(), Duration::millis(3'500));
  fleet.ingest(fresh, s.cluster->network());
  fleet.flush(s.cluster->network());
  s.deliver();
  QueryResult r = s.trajectory(7);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, fresh.id);
  EXPECT_TRUE(s.trajectory(999'999).detections.empty());
  EXPECT_EQ(s.pruned(), 0u);
}

}  // namespace
}  // namespace stcn
