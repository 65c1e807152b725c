#include "core/gateway.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct GatewayScenario {
  Trace trace;
  Rect world;

  GatewayScenario() {
    TraceConfig tc;
    tc.roads.grid_cols = 6;
    tc.roads.grid_rows = 6;
    tc.cameras.camera_count = 20;
    tc.mobility.object_count = 15;
    tc.duration = Duration::minutes(3);
    tc.seed = 77;
    trace = TraceGenerator::generate(tc);
    world = trace.roads.bounds(120.0);
  }

  std::unique_ptr<Cluster> make_cluster() {
    ClusterConfig config;
    config.worker_count = 4;
    config.network.latency_jitter = Duration::zero();
    return std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
        config);
  }
};

std::set<std::uint64_t> all_ids(Cluster& cluster, const Rect& world) {
  QueryResult r = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  return ids;
}

std::set<std::uint64_t> expected_ids(const Trace& trace) {
  std::set<std::uint64_t> ids;
  for (const Detection& d : trace.detections) ids.insert(d.id.value());
  return ids;
}

TEST(Gateway, DirectIngestDeliversEverything) {
  GatewayScenario s;
  auto cluster = s.make_cluster();
  GatewayFleet fleet = cluster->make_gateway_fleet(4);
  for (const Detection& d : s.trace.detections) {
    cluster->network().advance_clock_to(d.time);
    fleet.ingest(d, cluster->network());
  }
  fleet.flush(cluster->network());
  cluster->pump();
  EXPECT_EQ(all_ids(*cluster, s.world), expected_ids(s.trace));
}

TEST(Gateway, RelayModeDeliversEverything) {
  GatewayScenario s;
  auto cluster = s.make_cluster();
  GatewayConfig config;
  config.relay_through_coordinator = true;
  GatewayFleet fleet = cluster->make_gateway_fleet(4, config);
  for (const Detection& d : s.trace.detections) {
    cluster->network().advance_clock_to(d.time);
    fleet.ingest(d, cluster->network());
  }
  fleet.flush(cluster->network());
  cluster->pump();
  EXPECT_EQ(all_ids(*cluster, s.world), expected_ids(s.trace));
  EXPECT_GT(cluster->coordinator().metrics().counter_value("ingest_forwards"),
            0u);
}

TEST(Gateway, DirectModeMovesFewerBytesThanRelay) {
  GatewayScenario s;

  auto run = [&](bool relay) {
    auto cluster = s.make_cluster();
    GatewayConfig config;
    config.relay_through_coordinator = relay;
    GatewayFleet fleet = cluster->make_gateway_fleet(4, config);
    for (const Detection& d : s.trace.detections) {
      fleet.ingest(d, cluster->network());
    }
    fleet.flush(cluster->network());
    cluster->pump();
    return cluster->network().metrics().counter_value("bytes_sent");
  };

  std::uint64_t direct_bytes = run(false);
  std::uint64_t relay_bytes = run(true);
  // Relay pays the extra gateway→coordinator hop for every detection.
  EXPECT_GT(relay_bytes, direct_bytes * 5 / 4);
}

TEST(Gateway, CamerasStickToOneGateway) {
  GatewayScenario s;
  auto cluster = s.make_cluster();
  GatewayFleet fleet = cluster->make_gateway_fleet(3);
  for (std::uint64_t cam = 1; cam <= 20; ++cam) {
    GatewayNode& first = fleet.gateway_for(CameraId(cam));
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(&fleet.gateway_for(CameraId(cam)), &first);
    }
  }
}

TEST(Gateway, StaleMapHealsAfterRefresh) {
  GatewayScenario s;
  auto cluster = s.make_cluster();
  GatewayFleet fleet = cluster->make_gateway_fleet(2);

  // Ingest half the trace, then crash a worker and fail over.
  std::size_t half = s.trace.detections.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    fleet.ingest(s.trace.detections[i], cluster->network());
  }
  fleet.flush(cluster->network());
  cluster->pump();

  cluster->crash_worker(WorkerId(1));
  cluster->coordinator().promote_backups_of(WorkerId(1));
  // Gateways still hold the stale map; refresh gives them the new one so
  // the remaining stream routes to the promoted primaries.
  fleet.refresh_maps(cluster->coordinator().partition_map());
  for (std::size_t i = half; i < s.trace.detections.size(); ++i) {
    fleet.ingest(s.trace.detections[i], cluster->network());
  }
  fleet.flush(cluster->network());
  cluster->pump();

  // All second-half detections must be queryable despite the dead worker
  // (first-half data owned by worker 1 is served by its backups).
  EXPECT_EQ(all_ids(*cluster, s.world), expected_ids(s.trace));
}

}  // namespace
}  // namespace stcn
