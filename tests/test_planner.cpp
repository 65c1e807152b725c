#include "query/planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

SelectivityConfig estimator_config(Rect world) {
  SelectivityConfig c;
  c.world = world;
  c.grid_cols = 16;
  c.grid_rows = 16;
  return c;
}

TEST(KnnPlanner, DarkEstimatorPlansDegenerate) {
  Rect world{{0, 0}, {1600, 1600}};
  SelectivityEstimator estimator(estimator_config(world));
  KnnPlanner planner(estimator, world);
  KnnPlan plan = planner.plan({800, 800}, 5, TimeInterval::all());
  EXPECT_TRUE(plan.degenerate);
  EXPECT_TRUE(std::isinf(plan.initial_radius));  // ask every partition
}

TEST(KnnPlanner, DenseRegionPlansSmallRadius) {
  Rect world{{0, 0}, {1600, 1600}};
  SelectivityEstimator estimator(estimator_config(world));
  // Teach the estimator the whole world is dense.
  estimator.observe(world, {TimePoint(0), TimePoint(60'000'000)}, 100'000);
  KnnPlanner planner(estimator, world);
  KnnPlan plan =
      planner.plan({800, 800}, 5, {TimePoint(0), TimePoint(60'000'000)});
  EXPECT_FALSE(plan.degenerate);
  EXPECT_LE(plan.initial_radius, 100.0);
  EXPECT_GE(plan.estimated_count, 15.0);  // ≥ k × overshoot
}

TEST(KnnPlanner, SparseRegionPlansLargerRadius) {
  Rect world{{0, 0}, {1600, 1600}};
  SelectivityEstimator estimator(estimator_config(world));
  estimator.observe(world, {TimePoint(0), TimePoint(60'000'000)}, 200);
  KnnPlanner planner(estimator, world);
  KnnPlan dense_plan =
      planner.plan({800, 800}, 1, {TimePoint(0), TimePoint(60'000'000)});
  KnnPlan sparse_plan =
      planner.plan({800, 800}, 50, {TimePoint(0), TimePoint(60'000'000)});
  EXPECT_GT(sparse_plan.initial_radius, dense_plan.initial_radius);
}

std::vector<std::uint64_t> ids_of(const QueryResult& r) {
  std::vector<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.push_back(d.id.value());
  return ids;
}

std::uint64_t counter(const Cluster& cluster, const char* name) {
  return cluster.coordinator().metrics().counter_value(name);
}

/// k-NN rounds beyond one per query: the coverage fallbacks.
std::uint64_t fallbacks(const Cluster& cluster) {
  return counter(cluster, "knn_adaptive_rounds") -
         counter(cluster, "knn_adaptive_plans");
}

enum class StrategyKind { kHybrid, kSpatial };

struct KnnScenario {
  Trace trace;
  Rect world;
  std::unique_ptr<Cluster> cluster;
  CentralizedIndex oracle;

  explicit KnnScenario(StrategyKind kind = StrategyKind::kSpatial)
      : trace(TraceGenerator::generate([] {
          TraceConfig tc;
          tc.roads.grid_cols = 10;
          tc.roads.grid_rows = 10;
          tc.cameras.camera_count = 50;
          tc.mobility.object_count = 40;
          tc.duration = Duration::minutes(4);
          return tc;
        }())),
        world(trace.roads.bounds(120.0)),
        oracle(world) {
    std::unique_ptr<PartitionStrategy> strategy;
    if (kind == StrategyKind::kHybrid) {
      HybridStrategy::Config hc;
      hc.hot_camera_threshold = 3;  // split some tiles into sub-partitions
      hc.hot_split_factor = 2;
      strategy = std::make_unique<HybridStrategy>(world, trace.cameras, hc);
    } else {
      strategy =
          std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras);
    }
    ClusterConfig config;
    config.worker_count = 8;
    cluster = std::make_unique<Cluster>(world, std::move(strategy), config);
    cluster->ingest_all(trace.detections);
    oracle.ingest_all(trace.detections);
  }

  /// Lights the estimator with range-query feedback (k-NN rounds do not
  /// feed it).
  void warm_up() {
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
      Rect region = Rect::centered(
          {rng.uniform(world.min.x, world.max.x),
           rng.uniform(world.min.y, world.max.y)},
          300.0);
      (void)cluster->execute(Query::range(cluster->next_query_id(), region,
                                          TimeInterval::all()));
    }
  }

  /// Inside the world, on the 4×4 tile borders and corners, and outside.
  [[nodiscard]] std::vector<Point> centers() const {
    double tw = world.width() / 4.0;
    double th = world.height() / 4.0;
    Point mid = world.center();
    std::vector<Point> out;
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      out.push_back({rng.uniform(world.min.x, world.max.x),
                     rng.uniform(world.min.y, world.max.y)});
    }
    for (int i = 1; i < 4; ++i) {
      double bx = world.min.x + i * tw;
      double by = world.min.y + i * th;
      out.push_back({bx, rng.uniform(world.min.y, world.max.y)});
      out.push_back({rng.uniform(world.min.x, world.max.x), by});
      out.push_back({bx, by});  // tile corner
    }
    out.push_back(world.min);
    out.push_back(world.max);
    out.push_back({world.min.x - 500.0, mid.y});
    out.push_back({world.max.x + 300.0, world.max.y + 300.0});
    out.push_back({mid.x, world.min.y - 2000.0});
    return out;
  }
};

// --------------------------------------------- one k-NN path vs the oracle

class KnnDifferential
    : public ::testing::TestWithParam<std::tuple<StrategyKind, bool>> {};

TEST_P(KnnDifferential, ExecuteAndExplainMatchOracleExactly) {
  auto [kind, warm] = GetParam();
  KnnScenario s(kind);
  if (warm) s.warm_up();
  Rng rng(17);
  std::vector<Point> centers = s.centers();
  for (std::size_t i = 0; i < centers.size(); ++i) {
    Point c = centers[i];
    auto k = static_cast<std::uint32_t>(1 + rng.uniform_index(20));
    TimeInterval interval = TimeInterval::all();
    if (i % 2 == 1) {  // a 1–3 minute window inside the trace
      Duration len = Duration::seconds(rng.uniform_int(60, 180));
      TimePoint begin(rng.uniform_int(
          0, Duration::minutes(4).count_micros() - len.count_micros()));
      interval = {begin, begin + len};
    }
    Query q = Query::knn(s.cluster->next_query_id(), c, k, interval);
    std::vector<std::uint64_t> expected = ids_of(s.oracle.execute(q));
    ASSERT_EQ(ids_of(s.cluster->execute(q)), expected)
        << "execute, centre (" << c.x << "," << c.y << ") k=" << k;
    q.id = s.cluster->next_query_id();
    ASSERT_EQ(ids_of(s.cluster->explain(q).result), expected)
        << "explain, centre (" << c.x << "," << c.y << ") k=" << k;
  }
  if (warm) {
    // Some centres take the coverage fallback, so the comparison above
    // covers answers from both rounds.
    EXPECT_GT(fallbacks(*s.cluster), 0u);
  } else {
    // A dark estimator degenerates every plan: one round over every
    // partition, the broadcast.
    EXPECT_EQ(counter(*s.cluster, "knn_adaptive_degenerate"),
              counter(*s.cluster, "knn_adaptive_plans"));
    EXPECT_EQ(fallbacks(*s.cluster), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndEstimators, KnnDifferential,
    ::testing::Combine(::testing::Values(StrategyKind::kHybrid,
                                         StrategyKind::kSpatial),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == StrategyKind::kHybrid
                             ? "Hybrid"
                             : "Spatial") +
             (std::get<1>(info.param) ? "Warm" : "Dark");
    });

/// A 1000 m world on a 4×4 spatial grid (250 m tiles) whose estimator
/// believes every cell is dense: a dense blob in the far tile lights its
/// cells, and unlit cells borrow the lit mean. So every plan picks the
/// smallest radius, and round 1 around (190, 125) asks tile 0 alone.
struct FooledPlanner {
  Rect world{{0, 0}, {1000, 1000}};
  Trace trace = TraceGenerator::generate([] {
    TraceConfig tc;
    tc.roads.grid_cols = 2;
    tc.roads.grid_rows = 2;
    tc.cameras.camera_count = 2;
    tc.mobility.object_count = 1;
    tc.duration = Duration::seconds(10);
    return tc;
  }());
  std::unique_ptr<Cluster> cluster;
  CentralizedIndex oracle{world};
  Point center{190, 125};

  explicit FooledPlanner(std::vector<Detection> rows) {
    ClusterConfig config;
    config.worker_count = 4;
    cluster = std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    for (int i = 0; i < 200; ++i) {
      rows.push_back(row(1000 + i,
                         {860.0 + (i % 20) * 1.5, 860.0 + (i / 20) * 3.0}));
    }
    cluster->ingest_all(rows);
    oracle.ingest_all(rows);
    (void)cluster->execute(Query::range(
        cluster->next_query_id(), {{850, 850}, {900, 900}},
        TimeInterval::all()));
  }

  static Detection row(std::uint64_t id, Point position) {
    Detection d;
    d.id = DetectionId(id);
    d.camera = CameraId(1);
    d.object = ObjectId(id);
    d.position = position;
    d.time = TimePoint(1'000'000);
    return d;
  }

  /// Runs a k=1 query; returns its ids and the fallback rounds it took.
  std::pair<std::vector<std::uint64_t>, std::uint64_t> nearest() {
    std::uint64_t before = fallbacks(*cluster);
    Query q = Query::knn(cluster->next_query_id(), center, 1,
                         TimeInterval::all());
    std::vector<std::uint64_t> ids = ids_of(cluster->execute(q));
    EXPECT_EQ(ids, ids_of(oracle.execute(q)));
    return {ids, fallbacks(*cluster) - before};
  }
};

TEST(KnnCoverage, NeighbourInUnaskedTileTakesOneFallbackRound) {
  // Round 1 (tile 0) finds only row 1, 214 m away; row 2 in tile 1 is
  // 70 m away, so the circle through row 1 reaches an unasked tile.
  FooledPlanner s({FooledPlanner::row(1, {10, 10}),
                   FooledPlanner::row(2, {260, 125})});
  auto [ids, fallback_rounds] = s.nearest();
  EXPECT_EQ(ids, std::vector<std::uint64_t>{2});
  EXPECT_EQ(fallback_rounds, 1u);

  Cluster::ExplainResult out = s.cluster->explain(Query::knn(
      s.cluster->next_query_id(), s.center, 1, TimeInterval::all()));
  auto rounds = out.profile.stages_named("knn.round");
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(ids_of(out.result), std::vector<std::uint64_t>{2});
}

TEST(KnnCoverage, CoveredAnswerTakesOneRound) {
  // Row 1 sits 20 m away in tile 0: the circle through it stays in the
  // asked tile, so no fallback.
  FooledPlanner s({FooledPlanner::row(1, {170, 125}),
                   FooledPlanner::row(2, {260, 125})});
  auto [ids, fallback_rounds] = s.nearest();
  EXPECT_EQ(ids, std::vector<std::uint64_t>{1});
  EXPECT_EQ(fallback_rounds, 0u);
}

TEST(KnnCoverage, TieAcrossTileBorderBreaksById) {
  // Rows 80 m from (190, 125), exactly (3-4-5 triangles): one at
  // (110, 125) in tile 0, one at (254, 173) across the x = 250 border in
  // tile 1, which round 1 does not ask. The smaller id wins either way.
  for (bool near_has_smaller_id : {true, false}) {
    std::uint64_t in_tile0 = near_has_smaller_id ? 3 : 4;
    std::uint64_t in_tile1 = near_has_smaller_id ? 4 : 3;
    FooledPlanner s({FooledPlanner::row(in_tile0, {110, 125}),
                     FooledPlanner::row(in_tile1, {254, 173})});
    auto [ids, fallback_rounds] = s.nearest();
    EXPECT_EQ(ids, std::vector<std::uint64_t>{3});
    EXPECT_EQ(fallback_rounds, 1u);
  }
}

TEST(KnnPlan, WarmedPlannerReducesFanout) {
  KnnScenario s;
  auto fanout_of = [&](const std::vector<Point>& centers) {
    auto queries0 = counter(*s.cluster, "queries_submitted");
    auto fanout0 = counter(*s.cluster, "query_fanout_total");
    for (Point c : centers) {
      (void)s.cluster->execute(Query::knn(s.cluster->next_query_id(), c, 5,
                                          TimeInterval::all()));
    }
    return static_cast<double>(counter(*s.cluster, "query_fanout_total") -
                               fanout0) /
           static_cast<double>(counter(*s.cluster, "queries_submitted") -
                               queries0);
  };

  Rng rng(11);
  std::vector<Point> centers;
  for (int i = 0; i < 20; ++i) {
    centers.push_back({rng.uniform(s.world.min.x, s.world.max.x),
                       rng.uniform(s.world.min.y, s.world.max.y)});
  }
  double dark_fanout = fanout_of(centers);
  s.warm_up();
  double warm_fanout = fanout_of(centers);
  EXPECT_LT(warm_fanout, dark_fanout)
      << "planned circles must touch fewer workers than the broadcast";
}

TEST(KnnPlan, KLargerThanDatasetReturnsEverything) {
  KnnScenario s;
  s.warm_up();
  QueryResult r = s.cluster->execute(Query::knn(
      s.cluster->next_query_id(), s.world.center(), 1'000'000,
      TimeInterval::all()));
  EXPECT_EQ(r.detections.size(), s.trace.detections.size());
}

TEST(SelectivityFeedback, ClusterLearnsFromItsOwnQueries) {
  KnnScenario s;
  EXPECT_DOUBLE_EQ(s.cluster->selectivity().coverage(), 0.0);
  s.warm_up();
  EXPECT_GT(s.cluster->selectivity().coverage(), 0.1);
}

}  // namespace
}  // namespace stcn
