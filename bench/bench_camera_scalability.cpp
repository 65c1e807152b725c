// E2 — Range-query cost vs network size (figure "camera scalability").
//
// Camera count grows from ~250 to ~4000 (world area grows with it); a fixed
// fleet of 16 workers serves fixed-size range queries. Compared: footprint
// pruning (hybrid strategy) vs the broadcast baseline. Reported: mean
// worker fan-out per query, messages and bytes per query, and wall time of
// local execution. Expected shape: with pruning, per-query fan-out stays
// flat as the network grows; broadcast fan-out grows with the worker fleet
// and its bytes/query grows with total data.
#include <cinttypes>
#include <memory>

#include "baseline/broadcast_router.h"
#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

struct RunResult {
  double fanout = 0.0;
  double msgs_per_query = 0.0;
  double bytes_per_query = 0.0;
  double wall_ms_per_query = 0.0;
};

RunResult run_queries(Cluster& cluster, const Rect& world, std::size_t n) {
  Rng rng(9);
  const MetricsRegistry& net = cluster.network().metrics();
  auto msgs0 = net.counter_value("messages_sent");
  auto bytes0 = net.counter_value("bytes_sent");
  bench::WallTimer timer;
  for (std::size_t i = 0; i < n; ++i) {
    Rect region = Rect::centered(
        {rng.uniform(world.min.x, world.max.x),
         rng.uniform(world.min.y, world.max.y)},
        200.0);
    TimeInterval interval{TimePoint(0), TimePoint(120'000'000)};
    (void)cluster.execute(
        Query::range(cluster.next_query_id(), region, interval));
  }
  RunResult r;
  r.wall_ms_per_query = timer.elapsed_ms() / static_cast<double>(n);
  r.fanout = cluster.coordinator().mean_fanout();
  r.msgs_per_query =
      static_cast<double>(net.counter_value("messages_sent") - msgs0) /
      static_cast<double>(n);
  r.bytes_per_query =
      static_cast<double>(net.counter_value("bytes_sent") - bytes0) /
      static_cast<double>(n);
  return r;
}

void run() {
  bench::print_header("E2 camera scalability",
                      "range-query cost vs #cameras: pruned vs broadcast, "
                      "16 workers, 60 queries per point");
  std::printf("%9s %11s |  %8s %10s %12s  |  %8s %10s %12s\n", "cameras",
              "detections", "fanoutP", "msg/qP", "bytes/qP", "fanoutB",
              "msg/qB", "bytes/qB");

  bench::BenchReport report("camera_scalability");
  std::vector<double> scales = bench::quick()
                                   ? std::vector<double>{0.5}
                                   : std::vector<double>{0.5, 1.0, 2.0, 4.0, 8.0};
  std::size_t query_count = bench::quick() ? 10 : 60;
  for (double scale : scales) {
    TraceConfig tc = bench::scenario(scale, Duration::minutes(2));
    Trace trace = TraceGenerator::generate(tc);
    Rect world = trace.roads.bounds(150.0);

    auto make_inner = [&] {
      HybridStrategy::Config hc;
      hc.tiles_x = 8;
      hc.tiles_y = 8;
      hc.hot_camera_threshold = 6;
      hc.hot_split_factor = 2;
      return std::make_unique<HybridStrategy>(world, trace.cameras, hc);
    };

    ClusterConfig config;
    config.worker_count = 16;

    Cluster pruned(world, make_inner(), config);
    pruned.ingest_all(trace.detections);
    RunResult p = run_queries(pruned, world, query_count);

    Cluster broadcast(world,
                      std::make_unique<BroadcastStrategy>(make_inner()),
                      config);
    broadcast.ingest_all(trace.detections);
    RunResult b = run_queries(broadcast, world, query_count);

    std::printf("%9zu %11zu |  %8.2f %10.1f %12.0f  |  %8.2f %10.1f %12.0f\n",
                trace.cameras.size(), trace.detections.size(), p.fanout,
                p.msgs_per_query, p.bytes_per_query, b.fanout,
                b.msgs_per_query, b.bytes_per_query);
    std::string suffix = "_cams" + std::to_string(trace.cameras.size());
    report.set("fanout_pruned" + suffix, p.fanout);
    report.set("bytes_per_query_pruned" + suffix, p.bytes_per_query);
    report.set("fanout_broadcast" + suffix, b.fanout);
    report.set("bytes_per_query_broadcast" + suffix, b.bytes_per_query);
    if (scale == scales.back()) {
      report.add_histogram("query_latency_us",
                           *pruned.coordinator().metrics().histograms().at(
                               "query_latency_us"));
      report.add_registry(pruned.metrics_snapshot());
    }
  }
  std::printf(
      "\nexpected shape: pruned fan-out stays ~flat with network size;\n"
      "broadcast fans out to the whole fleet and moves more bytes/query.\n");
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
