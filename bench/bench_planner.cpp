// Ablation A1 — planned k-NN vs broadcast.
//
// DESIGN.md calls out footprint pruning as the load-bearing design choice;
// k-NN is the query type with *no* static footprint. This ablation measures
// what the selectivity-estimator-driven planner recovers on the one k-NN
// path (Cluster::execute): worker fan-out, messages, and bytes per k-NN,
// with the estimator dark and warm. A dark estimator degenerates every
// plan to one round over every partition, which is the broadcast; once
// warm, k-NN asks the partitions of the planned circle, and a second round
// asks only those the answer could lie in that the first did not ask.
#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

struct Cost {
  double fanout;
  double msgs;
  double bytes;
};

template <typename RunQuery>
Cost measure(Cluster& cluster, std::size_t n, RunQuery&& run) {
  const MetricsRegistry& coord = cluster.coordinator().metrics();
  const MetricsRegistry& net = cluster.network().metrics();
  auto q0 = coord.counter_value("queries_submitted");
  auto f0 = coord.counter_value("query_fanout_total");
  auto m0 = net.counter_value("messages_sent");
  auto b0 = net.counter_value("bytes_sent");
  run();
  auto queries = coord.counter_value("queries_submitted") - q0;
  return {static_cast<double>(coord.counter_value("query_fanout_total") -
                              f0) /
              static_cast<double>(queries),
          static_cast<double>(net.counter_value("messages_sent") - m0) /
              static_cast<double>(n),
          static_cast<double>(net.counter_value("bytes_sent") - b0) /
              static_cast<double>(n)};
}

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 2.0,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(4));
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  ClusterConfig config;
  config.worker_count = 16;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  Rng rng(5);
  std::vector<Point> centers;
  int center_count = bench::quick() ? 10 : 40;
  for (int i = 0; i < center_count; ++i) {
    centers.push_back({rng.uniform(world.min.x, world.max.x),
                       rng.uniform(world.min.y, world.max.y)});
  }

  bench::print_header(
      "A1 planned k-NN",
      "16 workers, " + std::to_string(trace.detections.size()) +
          " detections, " + std::to_string(centers.size()) +
          " k-NN queries per row");

  const MetricsRegistry& coord = cluster.coordinator().metrics();
  auto run_knn = [&] {
    for (Point c : centers) {
      (void)cluster.execute(Query::knn(cluster.next_query_id(), c, 5,
                                       TimeInterval::all()));
    }
  };
  std::printf("%-22s %10s %10s %12s %10s\n", "plan", "fanout", "msgs/q",
              "bytes/q", "fallbacks");

  // Dark estimator: every plan degenerates to the broadcast.
  Cost broadcast = measure(cluster, centers.size(), run_knn);
  std::printf("%-22s %10.2f %10.1f %12.0f %10s\n", "broadcast (dark)",
              broadcast.fanout, broadcast.msgs, broadcast.bytes, "-");

  // Warm the estimator with range-query feedback (k-NN rounds do not feed
  // it).
  for (int i = 0; i < 60; ++i) {
    Rect region = Rect::centered(
        {rng.uniform(world.min.x, world.max.x),
         rng.uniform(world.min.y, world.max.y)},
        300.0);
    (void)cluster.execute(
        Query::range(cluster.next_query_id(), region, TimeInterval::all()));
  }

  auto rounds0 = coord.counter_value("knn_adaptive_rounds");
  auto plans0 = coord.counter_value("knn_adaptive_plans");
  Cost warm = measure(cluster, centers.size(), run_knn);
  auto fallbacks = (coord.counter_value("knn_adaptive_rounds") - rounds0) -
                   (coord.counter_value("knn_adaptive_plans") - plans0);
  std::printf("%-22s %10.2f %10.1f %12.0f %10" PRIu64 "\n", "planned (warm)",
              warm.fanout, warm.msgs, warm.bytes,
              static_cast<std::uint64_t>(fallbacks));

  bench::BenchReport report("planner");
  report.set("detections", static_cast<double>(trace.detections.size()));
  report.set("fanout_warm", warm.fanout);
  report.set("fanout_broadcast", broadcast.fanout);
  report.set("bytes_per_query_warm", warm.bytes);
  report.set("bytes_per_query_broadcast", broadcast.bytes);
  report.set("fallbacks_warm", static_cast<double>(fallbacks));
  report.add_histogram("query_latency_us",
                       *coord.histograms().at("query_latency_us"));
  report.add_registry(cluster.metrics_snapshot());
  report.write();

  std::printf(
      "\nexpected shape: warm fan-out and bytes well below the broadcast,\n"
      "with few fallback rounds; answers are exact in both rows.\n");
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
