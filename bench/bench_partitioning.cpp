// E3 — Partitioning-strategy comparison (table "partitioning strategies").
//
// One skewed trace (hotspot traffic), four strategies. Reported per
// strategy: worker-load CV and max/mean (ingest balance), mean query
// fan-out and bytes per query (routing efficiency). Expected shape:
//   spatial   — best pruning, worst balance under skew
//   hash      — perfect balance, no pruning
//   temporal  — balanced over time, no spatial pruning
//   hybrid    — near-spatial pruning with bounded imbalance (the default)
#include <cinttypes>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.h"
#include "core/framework.h"
#include "obs/heat.h"
#include "partition/load_stats.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

void evaluate(const std::string& label,
              std::unique_ptr<PartitionStrategy> strategy, const Trace& trace,
              const Rect& world, bench::BenchReport& report) {
  std::size_t partitions = strategy->partition_count();
  const PartitionStrategy& strategy_ref = *strategy;
  ClusterConfig config;
  config.worker_count = 8;
  Cluster cluster(world, std::move(strategy), config);

  // Ingest-side balance, measured on the strategy's own placement.
  LoadStats load(partitions);
  for (const Detection& d : trace.detections) {
    PartitionId p = strategy_ref.partition_of(d.camera, d.position, d.time);
    load.record(p, cluster.coordinator().partition_map().primary(p));
  }
  cluster.ingest_all(trace.detections);

  // Query-side routing efficiency.
  Rng rng(5);
  const MetricsRegistry& net = cluster.network().metrics();
  auto bytes0 = net.counter_value("bytes_sent");
  const int kQueries = bench::quick() ? 15 : 80;
  for (int i = 0; i < kQueries; ++i) {
    Rect region = Rect::centered(
        {rng.uniform(world.min.x, world.max.x),
         rng.uniform(world.min.y, world.max.y)},
        180.0);
    TimeInterval interval{TimePoint(rng.uniform_int(0, 120'000'000)),
                          TimePoint(rng.uniform_int(120'000'000, 240'000'000))};
    (void)cluster.execute(
        Query::range(cluster.next_query_id(), region, interval));
  }
  double bytes_per_query =
      static_cast<double>(net.counter_value("bytes_sent") - bytes0) /
      kQueries;

  std::printf("%-10s %11zu %10.3f %10.2f %10.2f %14.0f\n", label.c_str(),
              partitions, load.worker_load_cv(cluster.worker_ids()),
              load.worker_max_over_mean(cluster.worker_ids()),
              cluster.coordinator().mean_fanout(), bytes_per_query);
  report.set("load_cv_" + label, load.worker_load_cv(cluster.worker_ids()));
  report.set("fanout_" + label, cluster.coordinator().mean_fanout());
  report.set("bytes_per_query_" + label, bytes_per_query);
}

// ------------------------- E3b: camera-skew heat sweep (zipf vs uniform)
//
// The heat observatory's acceptance workload: the same detection volume
// lands on a fixed set of representative cameras either uniformly (every
// camera the same share) or zipf(1.1)-skewed (camera of rank k drawn with
// weight 1/(k+1)^1.1). Each representative camera hashes to a distinct
// partition, so the uniform run is balanced per partition AND per worker by
// construction — the placement advisor must stay silent there, and must
// find a strong move under zipf.

struct HeatRun {
  double load_relative_stddev = 0.0;
  double hot_cold_ratio = 0.0;
  double scan_gini = 0.0;
  double hottest_match = 0.0;  // 1.0 when skew() found the true argmax
  double advisor_recs = 0.0;
  double advisor_improvement = 0.0;  // top recommendation, 0 when empty
};

/// One camera per hash partition: scans camera ids upward until every
/// partition has a representative.
std::vector<CameraId> representative_cameras(const HashStrategy& strategy,
                                             std::size_t partitions) {
  std::vector<CameraId> reps(partitions, CameraId(0));
  std::vector<bool> covered(partitions, false);
  std::size_t remaining = partitions;
  for (std::uint64_t id = 1; remaining > 0; ++id) {
    PartitionId p = strategy.partition_of(CameraId(id), Point{0, 0},
                                          TimePoint::origin());
    if (!covered[p.value()]) {
      covered[p.value()] = true;
      reps[p.value()] = CameraId(id);
      --remaining;
    }
  }
  return reps;
}

HeatRun heat_run(const std::string& label, double zipf_s,
                 bench::BenchReport& report) {
  const std::size_t kPartitions = 16;
  const std::size_t kWorkers = 8;
  const std::size_t kRows =
      kPartitions * (bench::quick() ? 150 : 800);
  HashStrategy probe(kPartitions);
  std::vector<CameraId> reps = representative_cameras(probe, kPartitions);

  // Zipf CDF over camera ranks; s = 0 degenerates to uniform.
  std::vector<double> cdf(kPartitions);
  double total = 0.0;
  for (std::size_t k = 0; k < kPartitions; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }

  std::vector<Detection> detections(kRows);
  Rng rng(42);
  std::vector<std::uint64_t> rows_per_partition(kPartitions, 0);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::size_t rank;
    if (zipf_s == 0.0) {
      rank = i % kPartitions;  // exact uniform, not just in expectation
    } else {
      double u = rng.uniform() * total;
      rank = 0;
      while (rank + 1 < kPartitions && cdf[rank] < u) ++rank;
    }
    Detection& d = detections[i];
    d.id = DetectionId(i + 1);
    d.camera = reps[rank];
    d.object = ObjectId(i % 50 + 1);
    d.time = TimePoint(static_cast<std::int64_t>(i) * 1'000);
    d.position = Point{10.0 * static_cast<double>(rank), 10.0};
    rows_per_partition[probe
                           .partition_of(d.camera, d.position, d.time)
                           .value()] += 1;
  }

  Rect world{{-100.0, -100.0}, {300.0, 300.0}};
  ClusterConfig config;
  config.worker_count = kWorkers;
  Cluster cluster(world, std::make_unique<HashStrategy>(kPartitions),
                  config);

  // Interleave ingest with virtual time so the coordinator's windowed heat
  // rings see the totals rising between heartbeats.
  const std::size_t kChunks = 4;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::size_t begin = c * kRows / kChunks;
    std::size_t end = (c + 1) * kRows / kChunks;
    cluster.ingest_all(std::span<const Detection>(detections.data() + begin,
                                                  end - begin));
    cluster.advance_time(Duration::seconds(1));
  }
  cluster.advance_time(Duration::seconds(1));

  const HeatMapSnapshot& heat = cluster.coordinator().heat();
  HeatMapSnapshot::Skew skew =
      heat.skew(cluster.now(), &cluster.coordinator().partition_map());
  auto recs = cluster.coordinator().placement_advice(cluster.now());

  PartitionId true_hottest;
  std::uint64_t max_rows = 0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    if (rows_per_partition[p] > max_rows) {
      max_rows = rows_per_partition[p];
      true_hottest = PartitionId(p);
    }
  }

  HeatRun out;
  out.load_relative_stddev = skew.load_relative_stddev;
  out.hot_cold_ratio = skew.hot_cold_ratio;
  out.scan_gini = skew.scan_gini;
  out.hottest_match =
      (zipf_s > 0.0 && skew.hottest == true_hottest) ? 1.0 : 0.0;
  out.advisor_recs = static_cast<double>(recs.size());
  out.advisor_improvement = recs.empty() ? 0.0 : recs[0].improvement();

  std::printf("%-10s %12.3f %10.2f %8.3f %8.0f %12.1f%%\n", label.c_str(),
              out.load_relative_stddev, out.hot_cold_ratio, out.scan_gini,
              out.advisor_recs, out.advisor_improvement * 100.0);
  report.set("heat_load_stddev_" + label, out.load_relative_stddev);
  report.set("heat_hot_cold_ratio_" + label, out.hot_cold_ratio);
  report.set("heat_gini_" + label, out.scan_gini);
  report.set("heat_advisor_recs_" + label, out.advisor_recs);
  report.set("heat_advisor_improvement_" + label, out.advisor_improvement);
  if (zipf_s > 0.0) {
    report.set("heat_hottest_match_" + label, out.hottest_match);
  }
  return out;
}

void run_heat_sweep(bench::BenchReport& report) {
  bench::print_header("E3b heat observatory",
                      "zipf(1.1) vs uniform camera skew, 16 hash "
                      "partitions, 8 workers");
  std::printf("%-10s %12s %10s %8s %8s %13s\n", "workload", "load_stddev",
              "hot/cold", "gini", "recs", "top_improve");
  HeatRun skewed = heat_run("zipf", 1.1, report);
  HeatRun uniform = heat_run("uniform", 0.0, report);
  std::printf(
      "\nexpected shape: zipf concentrates load (stddev >= 3x uniform, "
      "advisor\nfinds a strong move); uniform is balanced by construction "
      "(no advice).\n");
  (void)skewed;
  (void)uniform;
}

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 2.0,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(4));
  tc.mobility.hotspot_fraction = 0.6;  // strong downtown skew
  tc.mobility.hotspot_count = 2;
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  bench::print_header(
      "E3 partitioning strategies",
      "skewed workload (" + std::to_string(trace.detections.size()) +
          " detections), 8 workers, 80 range queries");
  std::printf("%-10s %11s %10s %10s %10s %14s\n", "strategy", "partitions",
              "load_cv", "max/mean", "fanout", "bytes/query");

  bench::BenchReport report("partitioning");
  report.set("detections", static_cast<double>(trace.detections.size()));
  evaluate("spatial",
           std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
           trace, world, report);
  evaluate("hash", std::make_unique<HashStrategy>(16), trace, world, report);
  evaluate("temporal",
           std::make_unique<TemporalStrategy>(16, Duration::minutes(1)),
           trace, world, report);
  HybridStrategy::Config hc;
  hc.tiles_x = 4;
  hc.tiles_y = 4;
  hc.hot_camera_threshold = 8;
  hc.hot_split_factor = 4;
  evaluate("hybrid",
           std::make_unique<HybridStrategy>(world, trace.cameras, hc), trace,
           world, report);

  std::printf(
      "\nexpected shape: spatial prunes best but skews worst; hash balances\n"
      "but broadcasts; hybrid keeps fan-out near spatial with load_cv near "
      "hash.\n");
  run_heat_sweep(report);
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
