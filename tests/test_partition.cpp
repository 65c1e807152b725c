#include "partition/strategies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "baseline/broadcast_router.h"
#include "partition/load_stats.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct World {
  RoadNetwork roads;
  CameraNetwork cameras;
  Rect bounds;
};

World make_world() {
  RoadNetworkConfig rc;
  rc.grid_cols = 10;
  rc.grid_rows = 10;
  rc.block_size_m = 100.0;
  rc.seed = 2;
  World w{RoadNetwork::build(rc), {}, {}};
  CameraNetworkConfig cc;
  cc.camera_count = 60;
  cc.seed = 3;
  w.cameras = CameraNetwork::place(w.roads, cc);
  w.bounds = w.roads.bounds(100.0);
  return w;
}

bool footprint_contains(const PartitionStrategy& strategy, const Rect& region,
                        const TimeInterval& interval, PartitionId p) {
  auto parts = strategy.partitions_for_region(region, interval);
  return std::find(parts.begin(), parts.end(), p) != parts.end();
}

// ------------------------------------------------------------- soundness
// The fundamental partitioning invariant: a detection's partition must be
// in the footprint of any query region that contains the detection.
template <typename Strategy>
void check_soundness(const Strategy& strategy, const World& world,
                     std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    Point pos{rng.uniform(world.bounds.min.x, world.bounds.max.x),
              rng.uniform(world.bounds.min.y, world.bounds.max.y)};
    CameraId cam(1 + rng.uniform_index(world.cameras.size()));
    TimePoint t(rng.uniform_int(0, 600'000'000));
    PartitionId p = strategy.partition_of(cam, pos, t);
    ASSERT_LT(p.value(), strategy.partition_count());

    // Any region containing pos must include p in its footprint.
    Rect region = Rect::centered(pos, rng.uniform(1.0, 300.0));
    TimeInterval interval{t - Duration::seconds(10), t + Duration::seconds(10)};
    ASSERT_TRUE(footprint_contains(strategy, region, interval, p))
        << strategy.name() << ": partition " << p
        << " missing from footprint of region containing " << pos;
  }
}

TEST(SpatialGridStrategy, SoundFootprints) {
  World world = make_world();
  SpatialGridStrategy strategy(world.bounds, 4, 4, world.cameras);
  EXPECT_EQ(strategy.partition_count(), 16u);
  check_soundness(strategy, world, 10);
}

TEST(SpatialGridStrategy, TilesPartitionTheWorld) {
  World world = make_world();
  SpatialGridStrategy strategy(world.bounds, 4, 3, world.cameras);
  double total_area = 0.0;
  for (std::size_t i = 0; i < strategy.partition_count(); ++i) {
    total_area += strategy.tile_bounds(PartitionId(i)).area();
  }
  EXPECT_NEAR(total_area, world.bounds.area(), 1e-6);
}

TEST(SpatialGridStrategy, SmallRegionHitsFewPartitions) {
  World world = make_world();
  SpatialGridStrategy strategy(world.bounds, 8, 8, world.cameras);
  Rect small = Rect::centered(world.bounds.center(), 10.0);
  auto parts = strategy.partitions_for_region(small, TimeInterval::all());
  EXPECT_LE(parts.size(), 4u);
  Rect everything = world.bounds;
  auto all = strategy.partitions_for_region(everything, TimeInterval::all());
  EXPECT_EQ(all.size(), 64u);
}

TEST(SpatialGridStrategy, CameraFootprintCoversCameraPartitions) {
  World world = make_world();
  SpatialGridStrategy strategy(world.bounds, 5, 5, world.cameras);
  for (const Camera& cam : world.cameras.cameras()) {
    auto parts = strategy.partitions_for_camera(cam.id, TimeInterval::all());
    // The partition owning detections at the apex must be present.
    PartitionId p = strategy.partition_of(cam.id, cam.fov.apex, TimePoint(0));
    EXPECT_NE(std::find(parts.begin(), parts.end(), p), parts.end());
  }
}

// Regions and positions far outside the world, up to ±∞ (an unbounded
// k-NN round asks the infinite square), clamp to the edge tiles.
constexpr double kInf = std::numeric_limits<double>::infinity();
const Rect kWorld1km{{0, 0}, {1000, 1000}};

std::vector<Rect> far_regions() {
  return {Rect{{-1e30, -1e30}, {1e30, 1e30}},
          Rect::centered({500, 500}, kInf),
          Rect::centered({-1e6, 2e6}, kInf)};
}

std::vector<Point> far_positions() {
  return {{-1e30, 500}, {1e30, 500}, {500, -1e30}, {500, 1e30},
          {-kInf, 500}, {kInf, 500}, {500, -kInf}, {500, kInf}};
}

/// A position just inside the world on the edge tile `far` clamps to.
Point edge_twin(Point far) {
  auto inside = [](double v) {
    return v < 0 ? 1.0 : (v > 1000 ? 999.0 : v);
  };
  return {inside(far.x), inside(far.y)};
}

TEST(SpatialGridStrategy, HugeAndInfiniteRegionsSelectEveryPartition) {
  World world = make_world();
  SpatialGridStrategy strategy(kWorld1km, 4, 4, world.cameras);
  for (const Rect& region : far_regions()) {
    EXPECT_EQ(strategy.partitions_for_region(region, TimeInterval::all())
                  .size(),
              16u)
        << region;
  }
}

TEST(SpatialGridStrategy, FarPositionsMapToEdgeTiles) {
  World world = make_world();
  SpatialGridStrategy strategy(kWorld1km, 4, 4, world.cameras);
  // Row 2 / column 2 hold y = 500 / x = 500.
  EXPECT_EQ(strategy.partition_of(CameraId(1), {-1e30, 500}, TimePoint(0)),
            PartitionId(8));
  EXPECT_EQ(strategy.partition_of(CameraId(1), {1e30, 500}, TimePoint(0)),
            PartitionId(11));
  EXPECT_EQ(strategy.partition_of(CameraId(1), {500, -1e30}, TimePoint(0)),
            PartitionId(2));
  EXPECT_EQ(strategy.partition_of(CameraId(1), {500, 1e30}, TimePoint(0)),
            PartitionId(14));
  for (Point far : far_positions()) {
    EXPECT_EQ(strategy.partition_of(CameraId(1), far, TimePoint(0)),
              strategy.partition_of(CameraId(1), edge_twin(far), TimePoint(0)))
        << far;
  }
}

TEST(HashStrategy, SoundAndBalanced) {
  World world = make_world();
  HashStrategy strategy(16);
  EXPECT_EQ(strategy.partition_count(), 16u);
  check_soundness(strategy, world, 20);

  // Same camera always maps to the same partition.
  PartitionId p1 = strategy.partition_of(CameraId(5), {0, 0}, TimePoint(0));
  PartitionId p2 =
      strategy.partition_of(CameraId(5), {999, 999}, TimePoint(12345));
  EXPECT_EQ(p1, p2);

  // Region footprint is everything (no spatial pruning).
  auto parts = strategy.partitions_for_region({{0, 0}, {1, 1}},
                                              TimeInterval::all());
  EXPECT_EQ(parts.size(), 16u);

  // Camera footprint is exactly one partition.
  auto cam_parts =
      strategy.partitions_for_camera(CameraId(5), TimeInterval::all());
  ASSERT_EQ(cam_parts.size(), 1u);
  EXPECT_EQ(cam_parts[0], p1);
}

TEST(HashStrategy, SpreadsCamerasAcrossPartitions) {
  HashStrategy strategy(8);
  std::set<std::uint64_t> used;
  for (std::uint64_t c = 1; c <= 100; ++c) {
    used.insert(
        strategy.partition_of(CameraId(c), {0, 0}, TimePoint(0)).value());
  }
  EXPECT_EQ(used.size(), 8u);
}

TEST(TemporalStrategy, EpochRouting) {
  TemporalStrategy strategy(4, Duration::minutes(1));
  EXPECT_EQ(strategy.partition_count(), 4u);
  // Same epoch → same partition regardless of space/camera.
  TimePoint t(30'000'000);  // 30 s → epoch 0
  EXPECT_EQ(strategy.partition_of(CameraId(1), {0, 0}, t),
            strategy.partition_of(CameraId(9), {55, 5}, t));
  // Consecutive epochs → consecutive partitions (round-robin).
  PartitionId e0 = strategy.partition_of(CameraId(1), {0, 0}, TimePoint(0));
  PartitionId e1 = strategy.partition_of(CameraId(1), {0, 0},
                                         TimePoint(60'000'001));
  EXPECT_NE(e0, e1);
}

TEST(TemporalStrategy, NarrowIntervalPrunes) {
  TemporalStrategy strategy(8, Duration::minutes(1));
  TimeInterval narrow{TimePoint(0), TimePoint(30'000'000)};  // half an epoch
  EXPECT_EQ(strategy.partitions_for_region({{0, 0}, {1, 1}}, narrow).size(),
            1u);
  TimeInterval wide{TimePoint(0), TimePoint(3'600'000'000)};  // 60 epochs
  EXPECT_EQ(strategy.partitions_for_region({{0, 0}, {1, 1}}, wide).size(),
            8u);
}

TEST(TemporalStrategy, SoundFootprints) {
  World world = make_world();
  TemporalStrategy strategy(6, Duration::minutes(1));
  check_soundness(strategy, world, 30);
}

TEST(HybridStrategy, SplitsHotTiles) {
  World world = make_world();
  HybridStrategy::Config config;
  config.tiles_x = 4;
  config.tiles_y = 4;
  config.hot_camera_threshold = 3;  // with 60 cameras / 16 tiles, some are hot
  config.hot_split_factor = 3;
  HybridStrategy strategy(world.bounds, world.cameras, config);
  EXPECT_GT(strategy.hot_tile_count(), 0u);
  EXPECT_GT(strategy.partition_count(), 16u);
  EXPECT_LE(strategy.partition_count(), 16u * 3u);
}

TEST(HybridStrategy, SoundFootprints) {
  World world = make_world();
  HybridStrategy::Config config;
  config.tiles_x = 4;
  config.tiles_y = 4;
  config.hot_camera_threshold = 3;
  config.hot_split_factor = 3;
  HybridStrategy strategy(world.bounds, world.cameras, config);
  check_soundness(strategy, world, 40);
}

TEST(HybridStrategy, HugeAndInfiniteRegionsSelectEveryPartition) {
  World world = make_world();
  HybridStrategy::Config config;
  config.hot_camera_threshold = 0;  // every tile with a camera splits
  config.hot_split_factor = 2;
  HybridStrategy strategy(kWorld1km, world.cameras, config);
  for (const Rect& region : far_regions()) {
    EXPECT_EQ(strategy.partitions_for_region(region, TimeInterval::all())
                  .size(),
              strategy.partition_count())
        << region;
  }
}

TEST(HybridStrategy, FarPositionsMapToEdgeTiles) {
  World world = make_world();
  HybridStrategy::Config config;
  HybridStrategy strategy(kWorld1km, world.cameras, config);
  for (Point far : far_positions()) {
    for (std::uint64_t cam = 1; cam <= 4; ++cam) {
      EXPECT_EQ(strategy.partition_of(CameraId(cam), far, TimePoint(0)),
                strategy.partition_of(CameraId(cam), edge_twin(far),
                                      TimePoint(0)))
          << far;
    }
  }
}

TEST(HybridStrategy, CameraFootprintRefinesToSubPartition) {
  World world = make_world();
  HybridStrategy::Config config;
  config.tiles_x = 4;
  config.tiles_y = 4;
  config.hot_camera_threshold = 3;
  config.hot_split_factor = 4;
  HybridStrategy strategy(world.bounds, world.cameras, config);
  for (const Camera& cam : world.cameras.cameras()) {
    auto parts = strategy.partitions_for_camera(cam.id, TimeInterval::all());
    PartitionId p = strategy.partition_of(cam.id, cam.fov.apex, TimePoint(0));
    EXPECT_NE(std::find(parts.begin(), parts.end(), p), parts.end());
    // Camera routing must not fan out to every sub-partition of its tiles.
    auto region_parts = strategy.partitions_for_region(
        Rect::centered(cam.fov.apex, 80.0), TimeInterval::all());
    EXPECT_LE(parts.size(), region_parts.size());
  }
}

TEST(BroadcastStrategy, DelegatesPlacementButBroadcastsFootprint) {
  World world = make_world();
  auto inner = std::make_unique<SpatialGridStrategy>(world.bounds, 4, 4,
                                                     world.cameras);
  const SpatialGridStrategy& inner_ref = *inner;
  BroadcastStrategy broadcast(std::move(inner));
  EXPECT_EQ(broadcast.partition_count(), 16u);
  EXPECT_EQ(broadcast.name(), "broadcast(spatial)");

  Point pos = world.bounds.center();
  EXPECT_EQ(broadcast.partition_of(CameraId(1), pos, TimePoint(0)),
            inner_ref.partition_of(CameraId(1), pos, TimePoint(0)));
  EXPECT_EQ(
      broadcast.partitions_for_region({{0, 0}, {1, 1}}, TimeInterval::all())
          .size(),
      16u);
  EXPECT_EQ(
      broadcast.partitions_for_camera(CameraId(1), TimeInterval::all()).size(),
      16u);
}

TEST(PartitionMap, RoundRobinPlacement) {
  std::vector<WorkerId> workers{WorkerId(1), WorkerId(2), WorkerId(3)};
  PartitionMap map = PartitionMap::round_robin(7, workers);
  EXPECT_EQ(map.partition_count(), 7u);
  EXPECT_EQ(map.primary(PartitionId(0)), WorkerId(1));
  EXPECT_EQ(map.primary(PartitionId(1)), WorkerId(2));
  EXPECT_EQ(map.primary(PartitionId(3)), WorkerId(1));
  // Backup differs from primary when >1 worker.
  for (std::size_t p = 0; p < 7; ++p) {
    EXPECT_TRUE(map.has_distinct_backup(PartitionId(p)));
  }
}

TEST(PartitionMap, SingleWorkerHasNoDistinctBackup) {
  PartitionMap map = PartitionMap::round_robin(4, {WorkerId(1)});
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(map.has_distinct_backup(PartitionId(p)));
  }
}

TEST(PartitionMap, FailoverReassignment) {
  std::vector<WorkerId> workers{WorkerId(1), WorkerId(2)};
  PartitionMap map = PartitionMap::round_robin(4, workers);
  map.set_primary(PartitionId(0), WorkerId(2));
  EXPECT_EQ(map.primary(PartitionId(0)), WorkerId(2));
  auto of2 = map.partitions_of(WorkerId(2));
  EXPECT_EQ(of2.size(), 3u);  // originally 1 and 3, plus promoted 0
}

TEST(LoadStats, ComputesImbalanceMetrics) {
  std::vector<WorkerId> workers{WorkerId(1), WorkerId(2), WorkerId(3)};
  LoadStats stats(3);
  for (int i = 0; i < 80; ++i) stats.record(PartitionId(0), WorkerId(1));
  for (int i = 0; i < 10; ++i) stats.record(PartitionId(1), WorkerId(2));
  for (int i = 0; i < 10; ++i) stats.record(PartitionId(2), WorkerId(3));
  EXPECT_EQ(stats.total(), 100u);
  EXPECT_GT(stats.worker_load_cv(workers), 1.0);
  EXPECT_NEAR(stats.worker_max_over_mean(workers), 80.0 / (100.0 / 3.0),
              1e-9);

  LoadStats balanced(3);
  for (int i = 0; i < 30; ++i) {
    balanced.record(PartitionId(static_cast<std::uint64_t>(i % 3)),
                    workers[static_cast<std::size_t>(i % 3)]);
  }
  EXPECT_NEAR(balanced.worker_load_cv(workers), 0.0, 1e-12);
}

TEST(LoadStats, HashBeatsSpatialOnSkewedLoad) {
  // Generate a real skewed trace and compare strategies' worker-load CV —
  // the core claim behind hybrid partitioning.
  // Enough cameras that hashing has granularity to balance with, and
  // enough hotspots that the hot load is spread over several cameras
  // (hashing cannot split a single ultra-hot camera).
  TraceConfig tc;
  tc.roads.grid_cols = 10;
  tc.roads.grid_rows = 10;
  tc.cameras.camera_count = 90;
  tc.mobility.object_count = 40;
  tc.mobility.hotspot_fraction = 0.6;
  tc.mobility.hotspot_count = 6;
  tc.duration = Duration::minutes(4);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(100.0);
  std::vector<WorkerId> workers;
  for (std::uint64_t w = 1; w <= 8; ++w) workers.emplace_back(w);

  auto run = [&](const PartitionStrategy& strategy) {
    PartitionMap map =
        PartitionMap::round_robin(strategy.partition_count(), workers);
    LoadStats stats(strategy.partition_count());
    for (const Detection& d : trace.detections) {
      PartitionId p = strategy.partition_of(d.camera, d.position, d.time);
      stats.record(p, map.primary(p));
    }
    return stats.worker_load_cv(workers);
  };

  SpatialGridStrategy spatial(world, 4, 4, trace.cameras);
  HashStrategy hash(16);
  double spatial_cv = run(spatial);
  double hash_cv = run(hash);
  EXPECT_LT(hash_cv, spatial_cv)
      << "hash partitioning must balance a skewed workload better than "
         "spatial tiles";
}

}  // namespace
}  // namespace stcn
