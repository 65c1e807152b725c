// E1 — Ingestion throughput vs worker count (figure "ingest scalability").
//
// Fixed camera network and detection stream; the cluster is rebuilt with
// 1..32 workers and the full stream is ingested (routing, wire transfer,
// replication, indexing).
//
// Because the cluster is simulated on one CPU thread, cluster throughput is
// *modeled*, not wall-clocked: per-event indexing cost is measured once on
// real hardware, and a cluster's sustainable throughput is
//     total_events / (events_at_busiest_worker × per_event_cost)
// i.e. the pipeline rate the bottleneck worker admits. Expected shape:
// near-linear growth while partitions spread evenly, flattening as load
// skew makes one worker the bottleneck.
#include <algorithm>
#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

void run() {
  using bench::WallTimer;
  double scale = bench::quick() ? 0.5 : 4.0;
  auto minutes = bench::quick() ? Duration::minutes(1) : Duration::minutes(8);
  TraceConfig tc = bench::scenario(scale, minutes);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  bench::print_header(
      "E1 ingest scalability",
      "modeled throughput vs #workers, " +
          std::to_string(trace.detections.size()) + " detections from " +
          std::to_string(trace.cameras.size()) + " cameras");

  // Calibrate per-event indexing cost on a single worker.
  double unit_cost_us;
  {
    WorkerIndexes solo;
    WallTimer timer;
    for (const Detection& d : trace.detections) solo.ingest(d);
    unit_cost_us =
        timer.elapsed_ms() * 1000.0 / static_cast<double>(trace.detections.size());
  }
  std::printf("calibrated per-event index cost: %.2f us\n\n", unit_cost_us);
  std::printf("%8s %18s %20s %14s %10s\n", "workers", "busiest_worker_ev",
              "modeled_events_per_s", "net_bytes/ev", "speedup");

  bench::BenchReport report("ingest_scalability");
  report.set("detections", static_cast<double>(trace.detections.size()));
  report.set("unit_cost_us", unit_cost_us);

  double baseline_throughput = 0.0;
  std::vector<std::size_t> worker_sweep =
      bench::quick() ? std::vector<std::size_t>{1, 4}
                     : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  for (std::size_t workers : worker_sweep) {
    HybridStrategy::Config hc;
    hc.tiles_x = 8;
    hc.tiles_y = 8;
    hc.hot_camera_threshold = 4;
    hc.hot_split_factor = 4;
    ClusterConfig config;
    config.worker_count = workers;
    Cluster cluster(world,
                    std::make_unique<HybridStrategy>(world, trace.cameras, hc),
                    config);
    cluster.ingest_all(trace.detections);

    std::uint64_t busiest = 0;
    for (WorkerId w : cluster.worker_ids()) {
      // Primary + replica ingest both cost indexing work at the worker.
      const MetricsRegistry& m = cluster.worker(w).metrics();
      std::uint64_t load = m.counter_value("ingested_primary") +
                           m.counter_value("ingested_replica");
      busiest = std::max(busiest, load);
    }
    double modeled_time_s =
        static_cast<double>(busiest) * unit_cost_us / 1e6;
    double throughput =
        static_cast<double>(trace.detections.size()) / modeled_time_s;
    if (workers == 1) baseline_throughput = throughput;
    double bytes_per_event =
        static_cast<double>(
            cluster.network().metrics().counter_value("bytes_sent")) /
        static_cast<double>(trace.detections.size());
    std::printf("%8zu %18" PRIu64 " %20.0f %14.1f %9.2fx\n", workers, busiest,
                throughput, bytes_per_event,
                throughput / baseline_throughput);
    std::string suffix = "_w" + std::to_string(workers);
    report.set("modeled_events_per_s" + suffix, throughput);
    report.set("bytes_per_event" + suffix, bytes_per_event);
    report.set("speedup" + suffix, throughput / baseline_throughput);
    if (workers == worker_sweep.back()) {
      report.add_registry(cluster.metrics_snapshot());
    }
  }
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
