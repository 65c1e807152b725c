#include "query/planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

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
  EXPECT_DOUBLE_EQ(plan.initial_radius, 1600.0);
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

TEST(KnnPlanner, GrowDoubles) {
  Rect world{{0, 0}, {100, 100}};
  SelectivityEstimator estimator(estimator_config(world));
  KnnPlanner planner(estimator, world);
  EXPECT_DOUBLE_EQ(planner.grow(50.0), 100.0);
  EXPECT_DOUBLE_EQ(planner.world_radius(), 100.0);
}

struct AdaptiveScenario {
  Trace trace;
  Rect world;
  std::unique_ptr<Cluster> cluster;

  AdaptiveScenario() {
    TraceConfig tc;
    tc.roads.grid_cols = 10;
    tc.roads.grid_rows = 10;
    tc.cameras.camera_count = 50;
    tc.mobility.object_count = 40;
    tc.duration = Duration::minutes(4);
    trace = TraceGenerator::generate(tc);
    world = trace.roads.bounds(120.0);
    ClusterConfig config;
    config.worker_count = 8;
    cluster = std::make_unique<Cluster>(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    cluster->ingest_all(trace.detections);
  }

  /// Lights the estimator with feedback queries.
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
};

TEST(AdaptiveKnn, MatchesBroadcastKnnExactly) {
  AdaptiveScenario s;
  s.warm_up();
  Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    Point center{rng.uniform(s.world.min.x, s.world.max.x),
                 rng.uniform(s.world.min.y, s.world.max.y)};
    auto k = static_cast<std::uint32_t>(1 + rng.uniform_index(20));
    QueryResult adaptive =
        s.cluster->execute_knn_adaptive(center, k, TimeInterval::all());
    QueryResult broadcast = s.cluster->execute(
        Query::knn(s.cluster->next_query_id(), center, k,
                   TimeInterval::all()));
    ASSERT_EQ(adaptive.detections.size(), broadcast.detections.size());
    for (std::size_t i = 0; i < adaptive.detections.size(); ++i) {
      ASSERT_NEAR(distance(adaptive.detections[i].position, center),
                  distance(broadcast.detections[i].position, center), 1e-9)
          << "trial " << trial << " rank " << i;
    }
  }
}

TEST(AdaptiveKnn, WarmedPlannerReducesFanout) {
  AdaptiveScenario s;
  s.warm_up();

  auto fanout_of = [&](auto&& run) {
    auto queries0 =
        s.cluster->coordinator().metrics().counter_value("queries_submitted");
    auto fanout0 =
        s.cluster->coordinator().metrics().counter_value("query_fanout_total");
    run();
    auto queries =
        s.cluster->coordinator().metrics().counter_value("queries_submitted") -
        queries0;
    auto fanout =
        s.cluster->coordinator().metrics().counter_value("query_fanout_total") -
        fanout0;
    return static_cast<double>(fanout) / static_cast<double>(queries);
  };

  Rng rng(11);
  std::vector<Point> centers;
  for (int i = 0; i < 20; ++i) {
    centers.push_back({rng.uniform(s.world.min.x, s.world.max.x),
                       rng.uniform(s.world.min.y, s.world.max.y)});
  }
  double adaptive_fanout = fanout_of([&] {
    for (Point c : centers) {
      (void)s.cluster->execute_knn_adaptive(c, 5, TimeInterval::all());
    }
  });
  double broadcast_fanout = fanout_of([&] {
    for (Point c : centers) {
      (void)s.cluster->execute(Query::knn(s.cluster->next_query_id(), c, 5,
                                          TimeInterval::all()));
    }
  });
  EXPECT_LT(adaptive_fanout, broadcast_fanout)
      << "planned circles must touch fewer workers than broadcast k-NN";
}

TEST(AdaptiveKnn, ColdPlannerStillCorrect) {
  AdaptiveScenario s;  // estimator dark: degenerate plan, still exact
  QueryResult adaptive = s.cluster->execute_knn_adaptive(
      s.world.center(), 7, TimeInterval::all());
  QueryResult broadcast = s.cluster->execute(
      Query::knn(s.cluster->next_query_id(), s.world.center(), 7,
                 TimeInterval::all()));
  ASSERT_EQ(adaptive.detections.size(), broadcast.detections.size());
  EXPECT_GT(s.cluster->coordinator().metrics().counter_value(
                "knn_adaptive_degenerate"),
            0u);
}

TEST(AdaptiveKnn, KLargerThanDatasetReturnsEverything) {
  AdaptiveScenario s;
  QueryResult r = s.cluster->execute_knn_adaptive(
      s.world.center(), 1'000'000, TimeInterval::all());
  EXPECT_EQ(r.detections.size(), s.trace.detections.size());
}

TEST(SelectivityFeedback, ClusterLearnsFromItsOwnQueries) {
  AdaptiveScenario s;
  EXPECT_DOUBLE_EQ(s.cluster->selectivity().coverage(), 0.0);
  s.warm_up();
  EXPECT_GT(s.cluster->selectivity().coverage(), 0.1);
}

}  // namespace
}  // namespace stcn
