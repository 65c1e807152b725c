// Partition heat observatory: worker-side HeatTracker accounting, the
// coordinator's HeatMapSnapshot skew rollups (windowed, restart-safe), the
// read-only PlacementAdvisor, and the end-to-end heartbeat piggyback path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/framework.h"
#include "obs/heat.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

TimePoint at(int seconds) {
  return TimePoint::origin() + Duration::seconds(seconds);
}

// ------------------------------------------------------------ heat tracker

TEST(HeatTracker, AccumulatesPerPartitionAndSnapshotsInOrder) {
  HeatTracker t;
  t.on_ingest(PartitionId(3), 40);
  t.on_ingest(PartitionId(1), 100);
  t.on_ingest(PartitionId(1), 20);
  t.on_scan(PartitionId(1), 120, 7, 4, 2);
  t.on_fragment(PartitionId(1), 512);
  t.on_fragment(PartitionId(1), 256);
  t.set_memory(PartitionId(3), 4096);

  auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].partition, PartitionId(1));
  EXPECT_EQ(snap[0].ingested_rows, 120u);
  EXPECT_EQ(snap[0].rows_evaluated, 120u);
  EXPECT_EQ(snap[0].rows_selected, 7u);
  EXPECT_EQ(snap[0].blocks_scanned, 4u);
  EXPECT_EQ(snap[0].blocks_skipped, 2u);
  EXPECT_EQ(snap[0].fragments_served, 2u);
  EXPECT_EQ(snap[0].wire_bytes_out, 768u);
  EXPECT_EQ(snap[1].partition, PartitionId(3));
  EXPECT_EQ(snap[1].ingested_rows, 40u);
  EXPECT_EQ(snap[1].store_memory_bytes, 4096u);

  EXPECT_EQ(t.partition_count(), 2u);
  t.clear();
  EXPECT_EQ(t.partition_count(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(HeatTracker, EwmaConvergesOnSteadyIngestRate) {
  HeatTracker t;
  for (int i = 0; i < 12; ++i) {
    t.on_ingest(PartitionId(0), 100);  // exactly 100 rows/s
    t.sample(at(i));
  }
  auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GT(snap[0].ewma_load_per_s, 90.0);
  EXPECT_LE(snap[0].ewma_load_per_s, 100.0 + 1e-9);
  const TimeSeries* series = t.series(PartitionId(0));
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 12u);
  EXPECT_EQ(t.series(PartitionId(9)), nullptr);
}

// -------------------------------------------------------- heat map snapshot

PartitionHeat totals(PartitionId p, std::uint64_t rows) {
  PartitionHeat h;
  h.partition = p;
  h.ingested_rows = rows;
  return h;
}

TEST(HeatMapSnapshot, WindowedLoadClampsAtZeroAcrossOwnerRestart) {
  HeatMapSnapshot heat;  // 10s window
  WorkerId w(1);
  heat.ingest(w, totals(PartitionId(0), 1000), at(0));
  heat.ingest(w, totals(PartitionId(0), 2000), at(5));
  EXPECT_DOUBLE_EQ(heat.windowed_load(PartitionId(0), at(5)), 1000.0);

  // The owner restarts: totals reset to zero. The windowed delta must clamp
  // at zero, never report the -2000 swing.
  heat.ingest(w, totals(PartitionId(0), 0), at(20));
  EXPECT_DOUBLE_EQ(heat.windowed_load(PartitionId(0), at(20)), 0.0);
  EXPECT_GE(heat.skew(at(20)).load_relative_stddev, 0.0);

  // Fresh post-restart ingest still clamps while the window's baseline is
  // a pre-restart total (the partition reads cold for up to one window)...
  heat.ingest(w, totals(PartitionId(0), 50), at(25));
  EXPECT_DOUBLE_EQ(heat.windowed_load(PartitionId(0), at(25)), 0.0);
  // ...and reads true again once the baseline is a post-restart sample.
  heat.ingest(w, totals(PartitionId(0), 170), at(32));
  EXPECT_DOUBLE_EQ(heat.windowed_load(PartitionId(0), at(32)), 170.0);
  EXPECT_DOUBLE_EQ(heat.windowed_load(PartitionId(9), at(32)), 0.0);
}

HeatMapSnapshot skewed_snapshot(const std::vector<double>& loads,
                                const std::vector<WorkerId>& owners) {
  HeatMapSnapshot heat;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    heat.ingest(owners[p % owners.size()], totals(PartitionId(p), 0), at(0));
  }
  for (std::size_t p = 0; p < loads.size(); ++p) {
    heat.ingest(owners[p % owners.size()],
                totals(PartitionId(p), static_cast<std::uint64_t>(loads[p])),
                at(5));
  }
  return heat;
}

TEST(HeatMapSnapshot, SkewRollupsIdentifyTheHottestPartition) {
  PartitionMap map = PartitionMap::round_robin(4, {WorkerId(1), WorkerId(2)});
  HeatMapSnapshot heat =
      skewed_snapshot({1000.0, 10.0, 800.0, 10.0}, {WorkerId(1), WorkerId(2)});

  HeatMapSnapshot::Skew s = heat.skew(at(5), &map);
  EXPECT_EQ(s.hottest, PartitionId(0));
  EXPECT_DOUBLE_EQ(s.hottest_load, 1000.0);
  EXPECT_DOUBLE_EQ(s.coldest_load, 10.0);
  EXPECT_DOUBLE_EQ(s.hot_cold_ratio, 100.0);
  EXPECT_GT(s.load_relative_stddev, 0.5);
  EXPECT_GT(s.scan_gini, 0.0);
  EXPECT_LE(s.scan_gini, 1.0);
  // round_robin over two workers gives every partition a distinct backup.
  EXPECT_DOUBLE_EQ(s.replicate_factor, 2.0);

  // Per-worker rollup: w1 holds p0+p2, w2 holds p1+p3.
  auto worker_loads = heat.worker_loads(at(5));
  EXPECT_DOUBLE_EQ(worker_loads[WorkerId(1)], 1800.0);
  EXPECT_DOUBLE_EQ(worker_loads[WorkerId(2)], 20.0);
}

TEST(HeatMapSnapshot, IdleClusterReportsZeroRatioAndEmptySkew) {
  HeatMapSnapshot heat;
  HeatMapSnapshot::Skew s = heat.skew(at(0));
  EXPECT_DOUBLE_EQ(s.load_relative_stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.hot_cold_ratio, 0.0);

  // Entries exist but nothing moved inside the window: ratio stays zero so
  // the hot_partition rule cannot fire on an idle cluster.
  heat.ingest(WorkerId(1), totals(PartitionId(0), 500), at(0));
  heat.ingest(WorkerId(1), totals(PartitionId(0), 500), at(5));
  EXPECT_DOUBLE_EQ(heat.skew(at(5)).hot_cold_ratio, 0.0);
}

TEST(HeatMapSnapshot, RenderAndJsonCarryTheTable) {
  HeatMapSnapshot heat =
      skewed_snapshot({3000.0, 400.0}, {WorkerId(1), WorkerId(2)});
  std::string table = heat.render(at(5));
  EXPECT_NE(table.find("p0"), std::string::npos);
  EXPECT_NE(table.find("w1"), std::string::npos);

  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::parse(heat.to_json(at(5)), root));
  ASSERT_TRUE(root.has("partitions"));
  ASSERT_EQ(root.at("partitions").array().size(), 2u);
  EXPECT_DOUBLE_EQ(
      root.at("partitions").array()[0].at("windowed_load").number(), 3000.0);
  EXPECT_GT(root.at("load_relative_stddev").number(), 0.0);
}

TEST(HeatMapSnapshot, AlertableRollupsGateOnTheActivityFloor) {
  // Identical 21:1 skew at two volumes. Below the activity floor the
  // alertable rollups read zero (trickle traffic must not page anyone);
  // above it they report the skew.
  HeatMapSnapshot cold =
      skewed_snapshot({21.0, 1.0}, {WorkerId(1), WorkerId(2)});
  EXPECT_DOUBLE_EQ(cold.skew(at(5)).hot_cold_ratio, 0.0);
  EXPECT_DOUBLE_EQ(cold.skew(at(5)).load_relative_stddev, 0.0);
  EXPECT_DOUBLE_EQ(cold.skew(at(5)).hottest_load, 21.0);  // table stays true

  HeatMapSnapshot hot =
      skewed_snapshot({2100.0, 100.0}, {WorkerId(1), WorkerId(2)});
  EXPECT_DOUBLE_EQ(hot.skew(at(5)).hot_cold_ratio, 21.0);
  EXPECT_GT(hot.skew(at(5)).load_relative_stddev, 0.0);
}

// -------------------------------------------------------- placement advisor

TEST(PlacementAdvisor, SkewedLoadYieldsCompoundingMoves) {
  PartitionMap map = PartitionMap::round_robin(4, {WorkerId(1), WorkerId(2)});
  HeatMapSnapshot heat =
      skewed_snapshot({1000.0, 10.0, 800.0, 10.0}, {WorkerId(1), WorkerId(2)});

  auto recs = PlacementAdvisor::advise(heat, map, at(5));
  ASSERT_FALSE(recs.empty());
  // Top move: shift load off the overloaded worker onto the idle one, with
  // a projected stddev improvement well past the 25% acceptance bar.
  EXPECT_EQ(recs[0].from, WorkerId(1));
  EXPECT_EQ(recs[0].to, WorkerId(2));
  EXPECT_GE(recs[0].improvement(), 0.25);
  EXPECT_LT(recs[0].stddev_after, recs[0].stddev_before);
  // Moves compound: each rec starts from the previous projection.
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_DOUBLE_EQ(recs[i].stddev_before, recs[i - 1].stddev_after);
  }

  std::string rendered = PlacementAdvisor::render(recs);
  EXPECT_NE(rendered.find("#1"), std::string::npos);
  EXPECT_NE(rendered.find("w1->w2"), std::string::npos);

  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::parse(PlacementAdvisor::to_json(recs), root));
  ASSERT_FALSE(root.array().empty());
  EXPECT_EQ(root.array()[0].at("kind").string(), "migrate");
  EXPECT_GE(root.array()[0].at("improvement").number(), 0.25);
}

TEST(PlacementAdvisor, UniformLoadYieldsNoAdvice) {
  PartitionMap map = PartitionMap::round_robin(4, {WorkerId(1), WorkerId(2)});
  HeatMapSnapshot heat = skewed_snapshot({500.0, 500.0, 500.0, 500.0},
                                         {WorkerId(1), WorkerId(2)});
  auto recs = PlacementAdvisor::advise(heat, map, at(5));
  EXPECT_TRUE(recs.empty());
  EXPECT_NE(PlacementAdvisor::render(recs).find("no beneficial moves"),
            std::string::npos);
  EXPECT_EQ(PlacementAdvisor::to_json(recs), "[]");
}

TEST(PlacementAdvisor, IdleMapWorkerIsUsedAsHeadroom) {
  // Three workers in the map, all load on the first two (round_robin puts
  // p0 and p3 on w1, p1 on w2, p2 on the never-reporting w3): the advisor
  // must route a move toward the idle third worker.
  PartitionMap map = PartitionMap::round_robin(
      4, {WorkerId(1), WorkerId(2), WorkerId(3)});
  HeatMapSnapshot heat;
  heat.ingest(WorkerId(1), totals(PartitionId(0), 0), at(0));
  heat.ingest(WorkerId(2), totals(PartitionId(1), 0), at(0));
  heat.ingest(WorkerId(1), totals(PartitionId(3), 0), at(0));
  heat.ingest(WorkerId(1), totals(PartitionId(0), 600), at(5));
  heat.ingest(WorkerId(2), totals(PartitionId(1), 600), at(5));
  heat.ingest(WorkerId(1), totals(PartitionId(3), 300), at(5));

  auto recs = PlacementAdvisor::advise(heat, map, at(5));
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].from, WorkerId(1));
  EXPECT_EQ(recs[0].to, WorkerId(3));
}

// ------------------------------------------- counter restart rate clamping

TEST(HealthMonitor, CounterRateClampsAtZeroOnSubjectRestart) {
  MetricsRegistry reg;
  Counter& events = reg.counter("events");
  HealthMonitor monitor;
  monitor.add_source("w", &reg);

  AlertRule rule;
  rule.name = "event_storm";
  rule.metric = "events";
  rule.kind = MetricKind::kCounterRate;
  rule.threshold = 1000.0;
  monitor.add_rule(rule);

  // The rate the rule evaluated at the latest sample.
  auto rate = [&monitor] {
    std::vector<const AlertState*> states = monitor.alerts();
    EXPECT_EQ(states.size(), 1u);
    return states.empty() ? -1.0 : states.front()->last_value;
  };

  events.add(100);
  monitor.sample(at(0));
  events.add(100);
  monitor.sample(at(1));
  EXPECT_DOUBLE_EQ(rate(), 100.0);
  reg = MetricsRegistry();  // subject rebuilt its registry mid-window
  Counter& reborn = reg.counter("events");
  monitor.sample(at(2));  // raw delta is -200: must clamp, not go negative
  EXPECT_DOUBLE_EQ(rate(), 0.0);
  reborn.add(50);
  monitor.sample(at(3));  // post-restart rate resumes at 50/s
  EXPECT_DOUBLE_EQ(rate(), 50.0);
  EXPECT_FALSE(monitor.is_firing("event_storm"));
}

// ------------------------------------------------------- cluster end-to-end

struct HeatScenario {
  Trace trace;
  Rect world;

  HeatScenario() {
    TraceConfig c;
    c.roads.grid_cols = 6;
    c.roads.grid_rows = 6;
    c.cameras.camera_count = 20;
    c.mobility.object_count = 20;
    c.duration = Duration::minutes(2);
    c.seed = 909;
    trace = TraceGenerator::generate(c);
    world = trace.roads.bounds(120.0);
  }
};

std::unique_ptr<Cluster> make_heat_cluster(const HeatScenario& s) {
  ClusterConfig config;
  config.worker_count = 3;
  auto cluster = std::make_unique<Cluster>(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config);
  return cluster;
}

TEST(HeatObservatory, HeartbeatsShipHeatToTheCoordinator) {
  HeatScenario s;
  auto cluster = make_heat_cluster(s);

  // Interleave ingest with virtual time so the coordinator's windowed rings
  // see the totals actually rising between heartbeats.
  std::size_t half = s.trace.detections.size() / 2;
  cluster->ingest_all(
      std::span<const Detection>(s.trace.detections.data(), half));
  cluster->advance_time(Duration::seconds(2));
  cluster->ingest_all(std::span<const Detection>(
      s.trace.detections.data() + half, s.trace.detections.size() - half));
  cluster->advance_time(Duration::seconds(3));

  const HeatMapSnapshot& heat = cluster->coordinator().heat();
  ASSERT_FALSE(heat.empty());

  // Every worker-side tracker made it across: summed ingest totals account
  // for every routed detection exactly once per partition.
  std::uint64_t total = 0;
  for (const auto& [p, e] : heat.entries()) total += e.heat.ingested_rows;
  EXPECT_EQ(total, s.trace.detections.size());

  // The second half of the trace landed inside the rollup window, so skew
  // is computed over live load and the hottest partition is the windowed
  // argmax of the table.
  HeatMapSnapshot::Skew skew =
      heat.skew(cluster->now(), &cluster->coordinator().partition_map());
  EXPECT_GT(skew.hottest_load, 0.0);
  double max_windowed = 0.0;
  PartitionId argmax;
  for (const auto& [p, e] : heat.entries()) {
    double load = heat.windowed_load(p, cluster->now());
    if (load > max_windowed) {
      max_windowed = load;
      argmax = p;
    }
  }
  EXPECT_EQ(skew.hottest, argmax);
  EXPECT_DOUBLE_EQ(skew.hottest_load, max_windowed);
  EXPECT_GT(skew.replicate_factor, 1.0);  // 3 workers: distinct backups

  // Skew rollups are exported as coordinator gauges.
  MetricsRegistry snapshot = cluster->metrics_snapshot();
  EXPECT_GT(snapshot.gauge("coordinator.partition.tracked").value(), 0.0);
  EXPECT_GE(
      snapshot.gauge("coordinator.partition.load_relative_stddev").value(),
      0.0);
  EXPECT_GT(snapshot.gauge("coordinator.partition.replicate_factor").value(),
            1.0);
  EXPECT_GT(snapshot.gauge("coordinator.partition.hottest_load").value(),
            0.0);
  // The hottest-load gauge carries its partition id as an exemplar label.
  auto labels = snapshot.labels("coordinator.partition.hottest_load");
  ASSERT_TRUE(labels.count("partition"));
  EXPECT_EQ(labels.at("partition"),
            "p" + std::to_string(skew.hottest.value()));

  // Worker side: the tracker gauge reflects resident partitions.
  EXPECT_GT(snapshot.gauge("worker.heat.partitions_tracked").value(), 0.0);
}

TEST(HeatObservatory, RestartClampsCoordinatorLoadsNonNegative) {
  HeatScenario s;
  auto cluster = make_heat_cluster(s);
  cluster->ingest_all(s.trace.detections);
  cluster->advance_time(Duration::seconds(3));
  ASSERT_FALSE(cluster->coordinator().heat().empty());

  // Crash + restart: the victim's totals reset to zero mid-stream. Every
  // windowed load and every exported gauge must clamp at zero.
  cluster->crash_worker(WorkerId(1));
  cluster->restart_worker(WorkerId(1));
  cluster->advance_time(Duration::seconds(5));

  const HeatMapSnapshot& heat = cluster->coordinator().heat();
  for (const auto& [p, e] : heat.entries()) {
    EXPECT_GE(heat.windowed_load(p, cluster->now()), 0.0)
        << "partition " << p.value();
  }
  HeatMapSnapshot::Skew skew = heat.skew(cluster->now());
  EXPECT_GE(skew.load_relative_stddev, 0.0);
  EXPECT_GE(skew.hot_cold_ratio, 0.0);

  MetricsRegistry snapshot = cluster->metrics_snapshot();
  EXPECT_GE(
      snapshot.gauge("coordinator.partition.load_relative_stddev").value(),
      0.0);
  EXPECT_GE(snapshot.gauge("coordinator.partition.hot_cold_ratio").value(),
            0.0);
}

TEST(HeatObservatory, HotPartitionAlertFiresUnderSkewAndResolves) {
  HeatScenario s;
  auto cluster = make_heat_cluster(s);

  // Hammer one camera (= one spatial partition) with synthetic detections
  // while the rest of the cluster idles: hot/cold skew far past both the
  // activity floor and the 8x ratio threshold.
  const Camera& hot_cam = s.trace.cameras.cameras().front();
  const Camera& cold_cam = s.trace.cameras.cameras().back();
  std::uint64_t next_id = 1;
  auto burst = [&](const Camera& cam, std::size_t rows) {
    std::vector<Detection> batch(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      Detection& d = batch[i];
      d.id = DetectionId(next_id++);
      d.camera = cam.id;
      d.object = ObjectId(1);
      d.time = cluster->now();
      d.position = cam.fov.apex;
    }
    cluster->ingest_all(batch);
  };

  HealthMonitor& monitor = cluster->health_monitor();
  bool fired = false;
  for (int round = 0; round < 6 && !fired; ++round) {
    burst(hot_cam, 2000);
    burst(cold_cam, 20);
    cluster->advance_time(Duration::seconds(1));
    cluster->sample_health();
    fired = monitor.is_firing("hot_partition");
  }
  EXPECT_TRUE(fired) << "hot_partition must fire under sustained 100x skew";
  EXPECT_TRUE(monitor.is_firing("hot_partition", "coordinator"));

  // Healing: the hot stream stops, heartbeats keep flowing, and the
  // windowed loads decay to zero — the alert must resolve on its own.
  for (int round = 0; round < 20 && monitor.is_firing("hot_partition");
       ++round) {
    cluster->advance_time(Duration::seconds(2));
    cluster->sample_health();
  }
  EXPECT_FALSE(monitor.is_firing("hot_partition"))
      << "hot_partition must resolve once the skew heals";
  EXPECT_GE(monitor.events().count("resolved", "hot_partition"), 1u);
}

TEST(HeatObservatory, PostmortemBundleCarriesHeatTableAndAdvice) {
  HeatScenario s;
  auto cluster = make_heat_cluster(s);
  std::size_t half = s.trace.detections.size() / 2;
  cluster->ingest_all(
      std::span<const Detection>(s.trace.detections.data(), half));
  cluster->advance_time(Duration::seconds(2));
  cluster->ingest_all(std::span<const Detection>(
      s.trace.detections.data() + half, s.trace.detections.size() - half));
  cluster->advance_time(Duration::seconds(2));
  cluster->sample_health();

  FlightTrigger trigger;
  trigger.kind = "alert";
  trigger.rule = "hot_partition";
  const PostmortemBundle& bundle = cluster->freeze_postmortem(trigger);
  ASSERT_FALSE(bundle.heat_json.empty());

  obs::JsonValue heat;
  ASSERT_TRUE(obs::JsonValue::parse(bundle.heat_json, heat));
  ASSERT_TRUE(heat.has("table"));
  EXPECT_FALSE(heat.at("table").at("partitions").array().empty());
  ASSERT_TRUE(heat.has("advisor"));

  // The whole bundle parses, with the heat section as the exact bytes the
  // Cluster supplied.
  std::string json = bundle.to_json();
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::JsonValue::parse(json, parsed));
  EXPECT_TRUE(parsed.has("heat"));
  EXPECT_NE(json.find("\"heat\":" + bundle.heat_json), std::string::npos);
  obs::JsonWriter expected;
  expected.begin_object();
  expected.key("table");
  cluster->coordinator().heat().append_json(expected, cluster->now());
  expected.key("advisor");
  PlacementAdvisor::append_json(
      expected, cluster->coordinator().placement_advice(cluster->now()));
  expected.end_object();
  EXPECT_EQ(bundle.heat_json, expected.take());
}

}  // namespace
}  // namespace stcn
