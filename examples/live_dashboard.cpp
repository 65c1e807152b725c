// Live dashboard: a terminal heat-map of city activity, refreshed from
// streaming aggregation queries while the cluster rides out a worker crash.
//
// Demonstrates: streaming ingest in windows, per-cell occupancy aggregation,
// failover transparency (one worker crashes mid-run and answers stay
// complete), and recovery resync.
//
//   ./live_dashboard
#include <cstdio>
#include <memory>
#include <string>

#include <iostream>

#include "core/framework.h"
#include "core/stats_report.h"
#include "partition/strategies.h"
#include "trace/generator.h"

using namespace stcn;

namespace {

void render_heatmap(Cluster& cluster, const Rect& world,
                    const TimeInterval& window, std::uint32_t tenant) {
  constexpr int kCells = 12;
  double cw = world.width() / kCells;
  double ch = world.height() / kCells;
  // One count query per row keeps fan-out small per query.
  std::printf("   +%s+\n", std::string(kCells * 2, '-').c_str());
  for (int row = kCells - 1; row >= 0; --row) {
    std::printf("   |");
    for (int col = 0; col < kCells; ++col) {
      Rect cell{{world.min.x + col * cw, world.min.y + row * ch},
                {world.min.x + (col + 1) * cw, world.min.y + (row + 1) * ch}};
      QueryResult r = cluster.execute(
          Query::count(cluster.next_query_id(), cell, window)
              .with_tenant(tenant));
      std::uint64_t n = r.total_count();
      const char* glyph = n == 0   ? "  "
                          : n < 3  ? ". "
                          : n < 8  ? "o "
                          : n < 20 ? "O "
                                   : "# ";
      std::printf("%s", glyph);
    }
    std::printf("|\n");
  }
  std::printf("   +%s+\n", std::string(kCells * 2, '-').c_str());
}

// The operator panels under the heat-map: error-budget burn per objective
// and the ledger's heavy hitters per attribution dimension.
void render_slo_table(Cluster& cluster) {
  std::printf("\n--- SLO burn rates (5m/1h windows, sim clock) ---\n");
  std::printf("   %-20s %10s %10s %10s %8s\n", "objective", "target",
              "burn_5m", "burn_1h", "state");
  const HealthMonitor& monitor = cluster.health_monitor();
  for (const SloState& slo : monitor.slos()) {
    std::printf("   %-20s %9.2f%% %10.2f %10.2f %8s\n", slo.name().c_str(),
                slo.objective * 100.0, slo.burn_short.back(),
                slo.burn_long.back(),
                monitor.is_firing(slo.rule) ? "FIRING" : "ok");
  }
}

// Partition heat table + the read-only placement advisor's ranked moves.
void render_heat_panel(Cluster& cluster) {
  const HeatMapSnapshot& heat = cluster.coordinator().heat();
  if (heat.empty()) return;
  HeatMapSnapshot::Skew skew =
      heat.skew(cluster.now(), &cluster.coordinator().partition_map());
  std::printf(
      "\n--- partition heat: stddev/mean %.2f, hot/cold %.1fx, "
      "gini %.2f ---\n",
      skew.load_relative_stddev, skew.hot_cold_ratio, skew.scan_gini);
  std::printf("%s", heat.render(cluster.now()).c_str());
  std::printf("--- placement advisor (read-only) ---\n%s",
              PlacementAdvisor::render(
                  cluster.coordinator().placement_advice(cluster.now()))
                  .c_str());
}

// Hot vs cold storage across all workers: the summed per-worker tier
// gauges, plus how the scan path touched the cold tier (blocks pruned by
// zone maps vs decoded into scratch).
void render_store_tiers(Cluster& cluster) {
  MetricsRegistry m = cluster.metrics_snapshot();
  double hot = m.gauge("worker.store_hot_bytes").value();
  double compressed = m.gauge("worker.store.compressed_bytes").value();
  double cold_blocks = m.gauge("worker.store.cold_blocks").value();
  // Decode scratch is per-process; in the simulator every worker shares
  // one process, so read the global figure instead of summing the
  // per-worker gauges.
  double scratch = static_cast<double>(cold_scratch_bytes());
  std::printf("\n--- storage tiers (all workers) ---\n");
  std::printf("   %-6s %12s %8s\n", "tier", "bytes", "blocks");
  std::printf("   %-6s %12.0f %8s\n", "hot", hot, "-");
  std::printf("   %-6s %12.0f %8.0f   (+%.0f B decode scratch)\n", "cold",
              compressed, cold_blocks, scratch);
  std::printf(
      "   cold scan path: %llu blocks scanned, %llu zone-skipped, "
      "%llu decode morsels\n",
      static_cast<unsigned long long>(
          m.counter("worker.store_cold_blocks_scanned").value()),
      static_cast<unsigned long long>(
          m.counter("worker.store_cold_blocks_skipped").value()),
      static_cast<unsigned long long>(
          m.counter("worker.store.decode_morsels").value()));
}

void render_heavy_hitters(Cluster& cluster) {
  const ResourceLedger& ledger = cluster.cost_ledger();
  std::printf("\n--- query cost: %llu queries, top consumers ---\n",
              static_cast<unsigned long long>(ledger.queries()));
  auto table = [](const char* dim, const TopKSketch& sketch) {
    auto rows = sketch.top();
    if (rows.empty()) return;
    std::printf("   by %-8s %-14s %8s %14s %12s\n", dim, "key", "queries",
                "rows_evaluated", "bytes_in");
    std::size_t shown = 0;
    for (const auto& r : rows) {
      if (++shown > 3) break;
      std::printf("   %-11s %-14s %8llu %14llu %12llu\n", "",
                  r.key.c_str(), static_cast<unsigned long long>(r.count),
                  static_cast<unsigned long long>(r.cost.rows_evaluated),
                  static_cast<unsigned long long>(r.cost.bytes_in));
    }
  };
  table("kind", ledger.by_kind());
  table("tenant", ledger.by_tenant());
  table("camera", ledger.by_camera());
}

}  // namespace

int main() {
  TraceConfig trace_config;
  trace_config.roads.grid_cols = 10;
  trace_config.roads.grid_rows = 10;
  trace_config.cameras.camera_count = 60;
  // Dense enough that hot partitions seal (and demote) full 4096-row
  // blocks within the run.
  trace_config.mobility.object_count = 300;
  trace_config.detection.redetect_interval = Duration::millis(500);
  trace_config.mobility.hotspot_fraction = 0.5;
  trace_config.duration = Duration::minutes(6);
  Trace trace = TraceGenerator::generate(trace_config);
  Rect world = trace.roads.bounds(150.0);

  ClusterConfig cluster_config;
  cluster_config.worker_count = 6;
  cluster_config.coordinator.query_timeout = Duration::millis(20);
  cluster_config.health.enabled = true;  // SLO burn rates on the sim clock
  cluster_config.tiered_storage = true;  // compress sealed blocks in place
  cluster_config.hot_sealed_blocks = 0;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
      cluster_config);

  // Stream the trace in 2-minute windows, rendering after each.
  Duration window = Duration::minutes(2);
  std::size_t cursor = 0;
  for (int frame = 0; frame < 3; ++frame) {
    TimePoint window_end =
        TimePoint::origin() + window * static_cast<std::int64_t>(frame + 1);
    std::size_t begin = cursor;
    while (cursor < trace.detections.size() &&
           trace.detections[cursor].time < window_end) {
      ++cursor;
    }
    cluster.ingest_all(std::span<const Detection>(
        trace.detections.data() + begin, cursor - begin));

    if (frame == 1) {
      std::printf("\n*** worker 2 crashes (state lost) ***\n");
      cluster.crash_worker(WorkerId(2));
    }

    std::printf("\n=== window %d: t in [%lds, %lds), %zu new detections ===\n",
                frame, static_cast<long>((window_end - window).to_seconds()),
                static_cast<long>(window_end.to_seconds()), cursor - begin);
    render_heatmap(cluster, world, {window_end - window, window_end},
                   static_cast<std::uint32_t>(frame + 1));

    if (frame == 1) {
      Cluster::RecoveryReport recovery = cluster.restart_worker(WorkerId(2));
      std::printf(
          "*** worker 2 restarted; recovered %zu/%zu partitions in "
          "%.2f virtual ms ***\n",
          recovery.partitions_recovered, recovery.partitions_total,
          recovery.duration.to_seconds() * 1000.0);
    }
  }

  // Confirm nothing was lost across the crash.
  QueryResult all = cluster.execute(
      Query::count(cluster.next_query_id(), world, TimeInterval::all()));
  std::printf("\ntotal detections queryable: %llu (ingested %zu)\n",
              static_cast<unsigned long long>(all.total_count()), cursor);

  render_slo_table(cluster);
  render_heat_panel(cluster);
  render_store_tiers(cluster);
  render_heavy_hitters(cluster);
  std::printf("\n");
  std::cout << collect_stats(cluster);
  return 0;
}
