// End-to-end integration: the distributed cluster must give exactly the
// same answers as the centralized baseline on a full generated trace, for
// every query kind and every partitioning strategy.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/broadcast_router.h"
#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct Scenario {
  Trace trace;
  Rect world;
  CentralizedIndex oracle;

  Scenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 8;
          c.roads.grid_rows = 8;
          c.cameras.camera_count = 30;
          c.mobility.object_count = 25;
          c.duration = Duration::minutes(5);
          c.seed = 1234;
          return c;
        }())),
        world(trace.roads.bounds(120.0)),
        oracle(world) {
    oracle.ingest_all(trace.detections);
  }
};

// Shared across tests: generating the trace once keeps the suite fast.
Scenario& scenario() {
  static Scenario s;
  return s;
}

std::set<std::uint64_t> ids_of(const QueryResult& r) {
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  return ids;
}

enum class StrategyKind { kSpatial, kHash, kTemporal, kHybrid, kBroadcast };

std::unique_ptr<PartitionStrategy> make_strategy(StrategyKind kind,
                                                 const Rect& world,
                                                 const CameraNetwork& cams) {
  switch (kind) {
    case StrategyKind::kSpatial:
      return std::make_unique<SpatialGridStrategy>(world, 3, 3, cams);
    case StrategyKind::kHash:
      return std::make_unique<HashStrategy>(9);
    case StrategyKind::kTemporal:
      return std::make_unique<TemporalStrategy>(9, Duration::minutes(1));
    case StrategyKind::kHybrid: {
      HybridStrategy::Config config;
      config.tiles_x = 3;
      config.tiles_y = 3;
      config.hot_camera_threshold = 4;
      config.hot_split_factor = 2;
      return std::make_unique<HybridStrategy>(world, cams, config);
    }
    case StrategyKind::kBroadcast:
      return std::make_unique<BroadcastStrategy>(
          std::make_unique<SpatialGridStrategy>(world, 3, 3, cams));
  }
  return nullptr;
}

class DistributedEqualsCentralized
    : public ::testing::TestWithParam<StrategyKind> {
 protected:
  DistributedEqualsCentralized() {
    Scenario& s = scenario();
    ClusterConfig config;
    config.worker_count = 5;
    config.network.latency_jitter = Duration::zero();
    cluster_ = std::make_unique<Cluster>(
        s.world, make_strategy(GetParam(), s.world, s.trace.cameras), config);
    cluster_->ingest_all(s.trace.detections);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_P(DistributedEqualsCentralized, RangeQueries) {
  Scenario& s = scenario();
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    Rect region = Rect::centered(
        {rng.uniform(s.world.min.x, s.world.max.x),
         rng.uniform(s.world.min.y, s.world.max.y)},
        rng.uniform(20.0, 400.0));
    TimeInterval interval{
        TimePoint(rng.uniform_int(0, 150'000'000)),
        TimePoint(rng.uniform_int(150'000'000, 300'000'000))};
    Query q = Query::range(cluster_->next_query_id(), region, interval);
    QueryResult distributed = cluster_->execute(q);
    QueryResult central = s.oracle.execute(q);
    ASSERT_EQ(ids_of(distributed), ids_of(central)) << "trial " << trial;
  }
}

TEST_P(DistributedEqualsCentralized, CircleQueries) {
  Scenario& s = scenario();
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    Circle circle{{rng.uniform(s.world.min.x, s.world.max.x),
                   rng.uniform(s.world.min.y, s.world.max.y)},
                  rng.uniform(10.0, 200.0)};
    Query q = Query::circle_query(cluster_->next_query_id(), circle,
                                  TimeInterval::all());
    ASSERT_EQ(ids_of(cluster_->execute(q)), ids_of(s.oracle.execute(q)));
  }
}

TEST_P(DistributedEqualsCentralized, KnnQueries) {
  Scenario& s = scenario();
  Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    Point center{rng.uniform(s.world.min.x, s.world.max.x),
                 rng.uniform(s.world.min.y, s.world.max.y)};
    auto k = static_cast<std::uint32_t>(1 + rng.uniform_index(15));
    Query q = Query::knn(cluster_->next_query_id(), center, k,
                         TimeInterval::all());
    QueryResult distributed = cluster_->execute(q);
    QueryResult central = s.oracle.execute(q);
    ASSERT_EQ(distributed.detections.size(), central.detections.size());
    // Distances must agree rank by rank (ids may differ on exact ties).
    for (std::size_t i = 0; i < distributed.detections.size(); ++i) {
      ASSERT_NEAR(distance(distributed.detections[i].position, center),
                  distance(central.detections[i].position, center), 1e-9);
    }
  }
}

TEST_P(DistributedEqualsCentralized, TrajectoryQueries) {
  Scenario& s = scenario();
  for (std::uint64_t obj = 1; obj <= 10; ++obj) {
    Query q = Query::trajectory(cluster_->next_query_id(), ObjectId(obj),
                                TimeInterval::all());
    ASSERT_EQ(ids_of(cluster_->execute(q)), ids_of(s.oracle.execute(q)));
  }
}

TEST_P(DistributedEqualsCentralized, CountQueries) {
  Scenario& s = scenario();
  Rng rng(45);
  for (int trial = 0; trial < 10; ++trial) {
    Rect region = Rect::centered(
        {rng.uniform(s.world.min.x, s.world.max.x),
         rng.uniform(s.world.min.y, s.world.max.y)},
        rng.uniform(50.0, 500.0));
    Query q = Query::count(cluster_->next_query_id(), region,
                           TimeInterval::all(), GroupBy::kCamera);
    QueryResult distributed = cluster_->execute(q);
    QueryResult central = s.oracle.execute(q);
    ASSERT_EQ(distributed.counts, central.counts);
  }
}

TEST_P(DistributedEqualsCentralized, CameraWindowQueries) {
  Scenario& s = scenario();
  for (std::uint64_t cam = 1; cam <= 10; ++cam) {
    Query q = Query::camera_window(
        cluster_->next_query_id(), CameraId(cam),
        {TimePoint(0), TimePoint(200'000'000)});
    ASSERT_EQ(ids_of(cluster_->execute(q)), ids_of(s.oracle.execute(q)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DistributedEqualsCentralized,
    ::testing::Values(StrategyKind::kSpatial, StrategyKind::kHash,
                      StrategyKind::kTemporal, StrategyKind::kHybrid,
                      StrategyKind::kBroadcast),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      switch (info.param) {
        case StrategyKind::kSpatial: return std::string("Spatial");
        case StrategyKind::kHash: return std::string("Hash");
        case StrategyKind::kTemporal: return std::string("Temporal");
        case StrategyKind::kHybrid: return std::string("Hybrid");
        case StrategyKind::kBroadcast: return std::string("Broadcast");
      }
      return std::string("Unknown");
    });

TEST(ClusterIntegration, DistributedReidMatchesLocalReid) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  config.network.latency_jitter = Duration::zero();
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster.ingest_all(s.trace.detections);

  TransitionGraph graph;
  graph.learn(s.trace.detections);
  ReidParams params;
  params.cone.min_edge_count = 2;
  ReidEngine engine(graph, params);

  DistributedCandidateSource remote(cluster, s.trace.cameras);
  LocalCandidateSource local(s.oracle, s.trace.cameras);

  std::size_t compared = 0;
  for (std::size_t i = 0; i < s.trace.detections.size() && compared < 10;
       i += 97) {
    const Detection& probe = s.trace.detections[i];
    TimeInterval horizon{probe.time, probe.time + Duration::minutes(2)};
    ReidOutcome via_cluster = engine.find_matches(probe, horizon, remote);
    ReidOutcome via_local = engine.find_matches(probe, horizon, local);
    ASSERT_EQ(via_cluster.matches.size(), via_local.matches.size());
    for (std::size_t m = 0; m < via_cluster.matches.size(); ++m) {
      ASSERT_EQ(via_cluster.matches[m].detection.id,
                via_local.matches[m].detection.id);
    }
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ClusterIntegration, NetworkBytesAccounted) {
  Scenario& s = scenario();
  ClusterConfig config;
  config.worker_count = 4;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster.ingest_all(s.trace.detections);
  const MetricsRegistry& net = cluster.network().metrics();
  EXPECT_GT(net.counter_value("messages_sent"), 0u);
  EXPECT_GT(net.counter_value("bytes_sent"),
            s.trace.detections.size() * 50)
      << "every detection crosses the wire at least once";
}

}  // namespace
}  // namespace stcn
