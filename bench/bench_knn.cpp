// E8 — k-NN query latency (table "k-NN latency").
//
// k-nearest-detection queries through the full distributed stack, swept
// over k and worker count, plus the local index-level cost of the store's
// best-first block k-NN. Expected shape: latency grows gently with k; with
// the estimator dark (no range feedback here) every k-NN asks every
// partition, so more workers add fan-in cost rather than speedup.
#include <cinttypes>
#include <memory>

#include "baseline/centralized.h"
#include "bench_util.h"
#include "common/stats.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

void run() {
  // --quick trims the sweep so CI can validate the bench (and its JSON
  // report) in a couple of seconds.
  double scale = bench::quick() ? 0.5 : 2.0;
  auto minutes = bench::quick() ? Duration::minutes(1) : Duration::minutes(4);
  int center_count = bench::quick() ? 8 : 40;
  std::vector<std::uint32_t> ks =
      bench::quick() ? std::vector<std::uint32_t>{1u, 10u}
                     : std::vector<std::uint32_t>{1u, 10u, 100u};
  std::vector<std::size_t> worker_sweep =
      bench::quick() ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{1, 4, 16};

  TraceConfig tc = bench::scenario(scale, minutes);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  bench::print_header(
      "E8 k-NN latency",
      std::to_string(trace.detections.size()) + " detections");
  bench::BenchReport report("knn");
  report.set("detections", static_cast<double>(trace.detections.size()));

  std::printf("-- distributed stack: wall ms per query (%d queries/cell)\n",
              center_count);
  std::printf("%10s %8s %8s %8s\n", "k \\ workers", "1", "4", "16");
  Rng rng(3);
  std::vector<Point> centers;
  for (int i = 0; i < center_count; ++i) {
    centers.push_back({rng.uniform(world.min.x, world.max.x),
                       rng.uniform(world.min.y, world.max.y)});
  }
  for (std::uint32_t k : ks) {
    std::printf("%10u ", k);
    for (std::size_t workers : worker_sweep) {
      ClusterConfig config;
      config.worker_count = workers;
      Cluster cluster(
          world,
          std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
          config);
      cluster.ingest_all(trace.detections);
      bench::WallTimer timer;
      for (Point c : centers) {
        (void)cluster.execute(
            Query::knn(cluster.next_query_id(), c, k, TimeInterval::all()));
      }
      double wall_ms = timer.elapsed_ms() / centers.size();
      std::printf("%8.3f ", wall_ms);
      report.set("wall_ms_per_query_k" + std::to_string(k) + "_w" +
                     std::to_string(workers),
                 wall_ms);
      // Virtual-clock quantiles + the full registry from the largest sweep
      // point (the last cluster built).
      if (k == ks.back() && workers == worker_sweep.back()) {
        report.add_histogram(
            "query_latency_us",
            *cluster.coordinator().metrics().histograms().at(
                "query_latency_us"));
        report.add_registry(cluster.metrics_snapshot());
      }
    }
    std::printf("\n");
  }

  std::printf("\n-- index-level: store block k-NN (us per query)\n");
  CentralizedIndex central(world);
  central.ingest_all(trace.detections);
  std::printf("%10s %12s\n", "k", "store_us");
  for (std::size_t k : {1, 10, 100}) {
    bench::WallTimer store_timer;
    for (Point c : centers) {
      (void)central.indexes().store.scan_knn(c, k, TimeInterval::all());
    }
    double store_us = store_timer.elapsed_ms() * 1000.0 / centers.size();
    std::printf("%10zu %12.1f\n", k, store_us);
    report.set("store_us_k" + std::to_string(k), store_us);
  }
  std::printf(
      "\nexpected shape: latency grows mildly with k; with a dark estimator\n"
      "k-NN asks every partition, so more workers add fan-in cost rather\n"
      "than speedup.\n");

  // -- EXPLAIN/ANALYZE showcase: one planned k-NN, profiled. Range queries
  // warm the selectivity estimator first so the plan carries real
  // estimates; the profile lands in the report ("explain" section) with
  // the planner-calibration quantiles alongside.
  {
    ClusterConfig config;
    config.worker_count = 4;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    cluster.ingest_all(trace.detections);
    Rng warm_rng(11);
    for (int i = 0; i < 12; ++i) {
      Rect region = Rect::centered(
          {warm_rng.uniform(world.min.x, world.max.x),
           warm_rng.uniform(world.min.y, world.max.y)},
          warm_rng.uniform(100.0, 600.0));
      (void)cluster.execute(
          Query::range(cluster.next_query_id(), region, TimeInterval::all()));
    }
    Cluster::ExplainResult explained = cluster.explain(Query::knn(
        cluster.next_query_id(), centers.front(), 10, TimeInterval::all()));
    std::printf("\n-- EXPLAIN ANALYZE: planned k-NN, k=10\n%s",
                explained.profile.render().c_str());
    report.add_section("explain", explained.profile.to_json());
    report.set("explain_stage_count",
               static_cast<double>(explained.profile.stages.size()));
    report.set("explain_total_pruned",
               static_cast<double>(explained.profile.total_pruned()));
    report.set("explain_worst_q_error", explained.profile.worst_q_error());
    const LatencyHistogram& est =
        *cluster.coordinator().metrics().histograms().at(
            "estimate_q_error_x100");
    report.set("estimate_q_error_p50", est.p50() / 100.0);
    report.set("estimate_q_error_p95", est.p95() / 100.0);
    // k-NN plan calibration: the planner's estimate for its chosen circle
    // against what the oracle holds there (a k-NN round returns at most k
    // rows, so the cluster cannot measure this itself).
    KnnPlanner planner(cluster.selectivity(), world);
    QuantileRecorder plan_q_error;
    for (Point c : centers) {
      KnnPlan plan = planner.plan(c, 10, TimeInterval::all());
      auto held = central
                      .execute(Query::circle_query(
                          QueryId(0), {c, plan.initial_radius},
                          TimeInterval::all()))
                      .detections.size();
      plan_q_error.add(
          q_error(plan.estimated_count, static_cast<double>(held)));
    }
    std::vector<double> plan_q = plan_q_error.quantiles({0.5, 0.95});
    report.set("knn_plan_q_error_p50", plan_q[0]);
    report.set("knn_plan_q_error_p95", plan_q[1]);
    std::printf(
        "planner calibration: estimate q-error p50=%.2f p95=%.2f, "
        "k-NN plan q-error p50=%.2f p95=%.2f\n",
        est.p50() / 100.0, est.p95() / 100.0, plan_q[0], plan_q[1]);
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
