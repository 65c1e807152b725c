// E4 — Distributed vs centralized across query selectivity (figure
// "query selectivity").
//
// Query region size sweeps from a street corner to the whole city. Compared:
// the 8-worker distributed cluster (per-query local execution wall time +
// modeled network round-trip from the virtual clock) against the
// centralized index (pure local wall time). Also validates the feedback
// selectivity estimator's predictions against actual result sizes.
// Expected shape: centralized wins tiny result sets (no network), the
// distributed side wins large scans (work divided across workers and only
// matching rows cross the wire); the estimator's relative error shrinks as
// feedback accumulates.
#include <cinttypes>
#include <cmath>
#include <memory>

#include "baseline/centralized.h"
#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "query/selectivity.h"

namespace stcn {
namespace {

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 4.0,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(8));
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  ClusterConfig config;
  config.worker_count = 8;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  CentralizedIndex central(world);
  central.ingest_all(trace.detections);

  SelectivityConfig sc;
  sc.world = world;
  SelectivityEstimator estimator(sc);

  bench::print_header(
      "E4 query selectivity",
      "distributed (8 workers) vs centralized, " +
          std::to_string(trace.detections.size()) + " detections");
  // Modeled distributed latency: virtual network time for the scatter-
  // gather round trip plus the per-query compute divided across the
  // workers actually asked (the simulator executes workers serially on one
  // CPU, so parallel compute is credited analytically; the network part is
  // simulated exactly).
  std::printf("%12s %10s %14s %12s %12s %12s\n", "region_m", "results",
              "dist_model_ms", "(net+cpu/W)", "central_ms", "est_err");

  bench::BenchReport report("selectivity");
  report.set("detections", static_cast<double>(trace.detections.size()));
  Rng rng(31);
  std::vector<double> extents =
      bench::quick() ? std::vector<double>{75.0, 1200.0}
                     : std::vector<double>{25.0, 75.0, 200.0, 500.0, 1200.0,
                                           4000.0};
  for (double half_extent : extents) {
    const int kQueries = bench::quick() ? 8 : 30;
    double dist_cpu_ms = 0.0;
    double dist_virtual_ms = 0.0;
    double central_ms = 0.0;
    double results = 0.0;
    double est_err = 0.0;
    double fanout_sum = 0.0;
    int est_n = 0;
    for (int i = 0; i < kQueries; ++i) {
      Rect region = Rect::centered(
          {rng.uniform(world.min.x, world.max.x),
           rng.uniform(world.min.y, world.max.y)},
          half_extent);
      TimeInterval interval{TimePoint(0), TimePoint(240'000'000)};
      Query q = Query::range(cluster.next_query_id(), region, interval);

      double predicted = estimator.estimate(region, interval);

      auto fanout0 =
          cluster.coordinator().metrics().counter_value("query_fanout_total");
      bench::WallTimer dist_timer;
      TimePoint v0 = cluster.now();
      QueryResult dr = cluster.execute(q);
      dist_virtual_ms += (cluster.now() - v0).to_seconds() * 1000.0;
      dist_cpu_ms += dist_timer.elapsed_ms();
      fanout_sum += static_cast<double>(
          cluster.coordinator().metrics().counter_value(
              "query_fanout_total") -
          fanout0);

      bench::WallTimer central_timer;
      QueryResult cr = central.execute(q);
      central_ms += central_timer.elapsed_ms();

      results += static_cast<double>(cr.detections.size());
      estimator.observe(region, interval, dr.detections.size());
      if (predicted > 0.0 && cr.detections.size() > 0) {
        est_err += std::abs(predicted -
                            static_cast<double>(cr.detections.size())) /
                   static_cast<double>(cr.detections.size());
        ++est_n;
      }
    }
    double mean_fanout = std::max(1.0, fanout_sum / kQueries);
    double net_ms = dist_virtual_ms / kQueries;
    double cpu_ms = dist_cpu_ms / kQueries / mean_fanout;
    std::printf("%12.0f %10.0f %14.3f %5.2f+%5.3f %12.3f %11.0f%%\n",
                half_extent * 2, results / kQueries, net_ms + cpu_ms, net_ms,
                cpu_ms, central_ms / kQueries,
                est_n ? 100.0 * est_err / est_n : 0.0);
    std::string suffix =
        "_region" + std::to_string(static_cast<int>(half_extent * 2));
    report.set("dist_model_ms" + suffix, net_ms + cpu_ms);
    report.set("central_ms" + suffix, central_ms / kQueries);
    report.set("est_err_pct" + suffix,
               est_n ? 100.0 * est_err / est_n : 0.0);
  }
  report.add_histogram("query_latency_us",
                       *cluster.coordinator().metrics().histograms().at(
                           "query_latency_us"));
  report.add_registry(cluster.metrics_snapshot());
  report.write();
  std::printf(
      "\nexpected shape: centralized wins small regions (the network round\n"
      "trip dominates); distributed wins large scans (compute divides across\n"
      "workers); estimator error drops as feedback lights the histogram.\n");
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
