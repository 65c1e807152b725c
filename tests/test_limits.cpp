// Query result limits: semantics and wire-size effects.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct LimitScenario {
  Trace trace;
  Rect world;
  std::unique_ptr<Cluster> cluster;
  CentralizedIndex oracle;

  LimitScenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 6;
          c.roads.grid_rows = 6;
          c.cameras.camera_count = 20;
          c.mobility.object_count = 15;
          c.duration = Duration::minutes(3);
          return c;
        }())),
        world(trace.roads.bounds(120.0)),
        oracle(world) {
    oracle.ingest_all(trace.detections);
    ClusterConfig config;
    config.worker_count = 4;
    cluster = std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
        config);
    cluster->ingest_all(trace.detections);
  }
};

LimitScenario& scenario() {
  static LimitScenario s;
  return s;
}

TEST(QueryLimit, ReturnsEarliestNInTimeOrder) {
  LimitScenario& s = scenario();
  Query unlimited = Query::range(s.cluster->next_query_id(), s.world,
                                 TimeInterval::all());
  QueryResult all = s.cluster->execute(unlimited);
  ASSERT_GT(all.detections.size(), 20u);

  Query limited = Query::range(s.cluster->next_query_id(), s.world,
                               TimeInterval::all())
                      .with_limit(20);
  QueryResult first20 = s.cluster->execute(limited);
  ASSERT_EQ(first20.detections.size(), 20u);
  // Must be exactly the global earliest 20, in the same canonical order.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(first20.detections[i].id, all.detections[i].id) << "rank " << i;
  }
}

TEST(QueryLimit, DistributedMatchesCentralized) {
  LimitScenario& s = scenario();
  for (std::uint32_t limit : {1u, 5u, 50u}) {
    Query q = Query::range(s.cluster->next_query_id(),
                           Rect::centered(s.world.center(), 400.0),
                           TimeInterval::all())
                  .with_limit(limit);
    QueryResult dist = s.cluster->execute(q);
    QueryResult central = s.oracle.execute(q);
    ASSERT_EQ(dist.detections.size(), central.detections.size());
    for (std::size_t i = 0; i < dist.detections.size(); ++i) {
      EXPECT_EQ(dist.detections[i].id, central.detections[i].id);
    }
  }
}

TEST(QueryLimit, LimitLargerThanResultIsNoOp) {
  LimitScenario& s = scenario();
  Query q = Query::range(s.cluster->next_query_id(), s.world,
                         TimeInterval::all())
                .with_limit(1'000'000);
  EXPECT_EQ(s.cluster->execute(q).detections.size(),
            s.trace.detections.size());
}

TEST(QueryLimit, ZeroMeansUnlimited) {
  LimitScenario& s = scenario();
  Query q = Query::range(s.cluster->next_query_id(), s.world,
                         TimeInterval::all())
                .with_limit(0);
  EXPECT_EQ(s.cluster->execute(q).detections.size(),
            s.trace.detections.size());
}

TEST(QueryLimit, BoundsWireBytes) {
  LimitScenario& s = scenario();
  auto bytes_for = [&](std::uint32_t limit) {
    auto before = s.cluster->network().metrics().counter_value("bytes_sent");
    Query q = Query::range(s.cluster->next_query_id(), s.world,
                           TimeInterval::all())
                  .with_limit(limit);
    (void)s.cluster->execute(q);
    return s.cluster->network().metrics().counter_value("bytes_sent") - before;
  };
  std::uint64_t small = bytes_for(5);
  std::uint64_t large = bytes_for(0);
  EXPECT_LT(small * 4, large)
      << "per-worker truncation must shrink response fragments";
}

TEST(QueryLimit, SurvivesSerialization) {
  Query q = Query::trajectory(QueryId(1), ObjectId(5), TimeInterval::all())
                .with_limit(17);
  BinaryWriter w;
  serialize(w, q);
  BinaryReader r(w.bytes());
  EXPECT_EQ(deserialize_query(r).limit, 17u);
}

TEST(QueryLimit, AppliesToTrajectoryAndCameraWindow) {
  LimitScenario& s = scenario();
  // Busiest object.
  std::unordered_map<std::uint64_t, std::size_t> counts;
  for (const Detection& d : s.trace.detections) ++counts[d.object.value()];
  std::uint64_t busiest = 1;
  for (auto [obj, n] : counts) {
    if (n > counts[busiest]) busiest = obj;
  }
  if (counts[busiest] > 3) {
    Query q = Query::trajectory(s.cluster->next_query_id(),
                                ObjectId(busiest), TimeInterval::all())
                  .with_limit(3);
    QueryResult r = s.cluster->execute(q);
    EXPECT_EQ(r.detections.size(), 3u);
    for (std::size_t i = 1; i < r.detections.size(); ++i) {
      EXPECT_LE(r.detections[i - 1].time, r.detections[i].time);
    }
  }
}

}  // namespace
}  // namespace stcn
