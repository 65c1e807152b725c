// Quickstart: the 60-second tour of the framework.
//
// Generates a small synthetic city, stands up a 4-worker cluster, ingests
// the camera detections, and runs one of each query type.
//
//   ./quickstart
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

using namespace stcn;

int main() {
  // 1. A synthetic scenario: an 8×8-block city, 24 cameras at
  //    intersections, 20 moving objects, 5 minutes of traffic.
  TraceConfig trace_config;
  trace_config.roads.grid_cols = 8;
  trace_config.roads.grid_rows = 8;
  trace_config.cameras.camera_count = 24;
  trace_config.mobility.object_count = 20;
  trace_config.duration = Duration::minutes(5);
  Trace trace = TraceGenerator::generate(trace_config);
  Rect world = trace.roads.bounds(120.0);
  std::printf("generated %zu detections from %zu cameras\n",
              trace.detections.size(), trace.cameras.size());

  // 2. A 4-worker cluster partitioned with the hybrid strategy.
  HybridStrategy::Config hybrid;
  hybrid.tiles_x = 4;
  hybrid.tiles_y = 4;
  ClusterConfig cluster_config;
  cluster_config.worker_count = 4;
  Cluster cluster(world,
                  std::make_unique<HybridStrategy>(world, trace.cameras, hybrid),
                  cluster_config);

  // 3. Ingest the detection stream (routed, replicated, indexed).
  cluster.ingest_all(trace.detections);
  std::printf("ingested; cluster moved %llu bytes over the network\n",
              static_cast<unsigned long long>(
                  cluster.network().metrics().counter_value("bytes_sent")));

  // 4. Spatio-temporal range query: everything near the city center in the
  //    first two minutes.
  Rect downtown = Rect::centered(world.center(), 250.0);
  QueryResult range = cluster.execute(
      Query::range(cluster.next_query_id(), downtown,
                   {TimePoint::origin(),
                    TimePoint::origin() + Duration::minutes(2)}));
  std::printf("range query: %zu detections downtown in the first 2 min\n",
              range.detections.size());

  // 5. k-NN: the 5 detections nearest an incident location.
  QueryResult knn = cluster.execute(Query::knn(
      cluster.next_query_id(), world.center(), 5, TimeInterval::all()));
  std::printf("knn query: nearest %zu detections to the incident\n",
              knn.detections.size());
  for (const Detection& d : knn.detections) {
    std::printf("  obj/%llu at (%.0f, %.0f) seen by cam/%llu\n",
                static_cast<unsigned long long>(d.object.value()),
                d.position.x, d.position.y,
                static_cast<unsigned long long>(d.camera.value()));
  }

  // 6. Trajectory reconstruction for one object.
  QueryResult trajectory = cluster.execute(Query::trajectory(
      cluster.next_query_id(), ObjectId(1), TimeInterval::all()));
  std::printf("trajectory of obj/1: %zu sightings\n",
              trajectory.detections.size());

  // 7. Aggregate: per-camera detection counts over the whole run.
  QueryResult counts = cluster.execute(
      Query::count(cluster.next_query_id(), world, TimeInterval::all(),
                   GroupBy::kCamera));
  std::printf("busiest cameras:\n");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_count(
      counts.counts.begin(), counts.counts.end());
  std::sort(by_count.begin(), by_count.end(),
            [](auto a, auto b) { return a.second > b.second; });
  for (std::size_t i = 0; i < 3 && i < by_count.size(); ++i) {
    std::printf("  cam/%llu: %llu detections\n",
                static_cast<unsigned long long>(by_count[i].first),
                static_cast<unsigned long long>(by_count[i].second));
  }
  return 0;
}
