#include "query/selectivity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "obs/explain.h"
#include "query/planner.h"
#include "support/reference_selectivity.h"

namespace stcn {
namespace {

SelectivityConfig config() {
  SelectivityConfig c;
  c.world = {{0, 0}, {1600, 1600}};
  c.grid_cols = 16;
  c.grid_rows = 16;
  c.time_bucket = Duration::minutes(1);
  c.time_buckets = 8;
  return c;
}

TimeInterval first_minute() {
  return {TimePoint(0), TimePoint(60'000'000)};
}

TEST(SelectivityEstimator, StartsDark) {
  SelectivityEstimator est(config());
  EXPECT_DOUBLE_EQ(est.coverage(), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate({{0, 0}, {100, 100}}, first_minute()), 0.0);
}

TEST(SelectivityEstimator, LearnsFromFeedback) {
  SelectivityEstimator est(config());
  Rect region{{0, 0}, {100, 100}};  // exactly one grid cell
  est.observe(region, first_minute(), 50);
  EXPECT_GT(est.coverage(), 0.0);
  EXPECT_NEAR(est.estimate(region, first_minute()), 50.0, 1.0);
}

TEST(SelectivityEstimator, EstimateScalesWithRegionFraction) {
  SelectivityEstimator est(config());
  Rect cell{{0, 0}, {100, 100}};
  est.observe(cell, first_minute(), 100);
  // Half the cell → roughly half the estimate.
  Rect half{{0, 0}, {50, 100}};
  EXPECT_NEAR(est.estimate(half, first_minute()), 50.0, 5.0);
}

TEST(SelectivityEstimator, UnlitRegionsUseLitPrior) {
  SelectivityEstimator est(config());
  est.observe({{0, 0}, {100, 100}}, first_minute(), 80);
  // A never-observed cell gets the mean of lit cells as prior.
  double unlit = est.estimate({{800, 800}, {900, 900}}, first_minute());
  EXPECT_NEAR(unlit, 80.0, 8.0);
}

TEST(SelectivityEstimator, RepeatedFeedbackConverges) {
  SelectivityEstimator est(config());
  Rect region{{200, 200}, {300, 300}};
  est.observe(region, first_minute(), 10);  // early noisy observation
  for (int i = 0; i < 30; ++i) {
    est.observe(region, first_minute(), 100);
  }
  EXPECT_NEAR(est.estimate(region, first_minute()), 100.0, 5.0);
}

TEST(SelectivityEstimator, MultiCellQueryDistributesDensity) {
  SelectivityEstimator est(config());
  Rect four_cells{{0, 0}, {200, 200}};
  est.observe(four_cells, first_minute(), 400);
  // Each covered cell learned ~100; a one-cell query estimates ~100.
  EXPECT_NEAR(est.estimate({{0, 0}, {100, 100}}, first_minute()), 100.0,
              10.0);
  EXPECT_NEAR(est.estimate(four_cells, first_minute()), 400.0, 20.0);
}

TEST(SelectivityEstimator, TimeBucketsAreIndependent) {
  SelectivityEstimator est(config());
  TimeInterval minute0{TimePoint(0), TimePoint(60'000'000)};
  TimeInterval minute1{TimePoint(60'000'000), TimePoint(120'000'000)};
  Rect region{{0, 0}, {100, 100}};
  est.observe(region, minute0, 200);
  est.observe(region, minute1, 10);
  EXPECT_GT(est.estimate(region, minute0), est.estimate(region, minute1));
}

TEST(SelectivityEstimator, RegionOutsideWorldIsZero) {
  SelectivityEstimator est(config());
  est.observe({{0, 0}, {100, 100}}, first_minute(), 50);
  EXPECT_DOUBLE_EQ(
      est.estimate({{5000, 5000}, {6000, 6000}}, first_minute()), 0.0);
}

// ------------------------- bit identity with the reference estimator

/// A region that is sometimes the whole world, sometimes reaches past its
/// edge, sometimes lies on cell boundaries or only touches the world or a
/// cell edge, and otherwise falls anywhere inside.
Rect random_region(Rng& rng, const SelectivityConfig& c) {
  const Rect& w = c.world;
  double cell_w = w.width() / static_cast<double>(c.grid_cols);
  double cell_h = w.height() / static_cast<double>(c.grid_rows);
  auto grid_x = [&](std::size_t i) {
    return w.min.x + static_cast<double>(i) * cell_w;
  };
  auto grid_y = [&](std::size_t i) {
    return w.min.y + static_cast<double>(i) * cell_h;
  };
  switch (rng.uniform_index(6)) {
    case 0:
      return w;
    case 1:  // partly outside the world
      return Rect::centered(
          {rng.uniform(w.min.x - 300, w.max.x + 300),
           rng.uniform(w.min.y - 300, w.max.y + 300)},
          rng.uniform(50, 900));
    case 2: {  // exactly on cell boundaries
      std::size_t x0 = rng.uniform_index(c.grid_cols);
      std::size_t y0 = rng.uniform_index(c.grid_rows);
      std::size_t x1 = x0 + 1 + rng.uniform_index(c.grid_cols - x0);
      std::size_t y1 = y0 + 1 + rng.uniform_index(c.grid_rows - y0);
      return {{grid_x(x0), grid_y(y0)}, {grid_x(x1), grid_y(y1)}};
    }
    case 3: {  // touches the world's edge from outside, or a cell edge
      double y = rng.uniform(w.min.y, w.max.y - 1);
      if (rng.bernoulli(0.5)) {
        return {{w.max.x, y}, {w.max.x + 100, y + 50}};
      }
      std::size_t x = 1 + rng.uniform_index(c.grid_cols - 1);
      return {{grid_x(x) - 1e-13, y}, {grid_x(x) + rng.uniform(1, 80), y + 1}};
    }
    default: {
      Point a{rng.uniform(w.min.x, w.max.x), rng.uniform(w.min.y, w.max.y)};
      Point b{rng.uniform(w.min.x, w.max.x), rng.uniform(w.min.y, w.max.y)};
      return Rect::spanning(a, b);
    }
  }
}

/// All time, negative starts, windows wider than the ring, empty windows
/// and windows of a few buckets.
TimeInterval random_interval(Rng& rng, const SelectivityConfig& c) {
  std::int64_t bucket = c.time_bucket.count_micros();
  auto ring = static_cast<std::int64_t>(c.time_buckets);
  switch (rng.uniform_index(5)) {
    case 0:
      return TimeInterval::all();
    case 1: {
      std::int64_t end = rng.uniform_int(-bucket, 3 * bucket);
      return {TimePoint(end - rng.uniform_int(1, 2 * bucket)), TimePoint(end)};
    }
    case 2: {
      std::int64_t begin = rng.uniform_int(0, 5 * ring * bucket);
      return {TimePoint(begin),
              TimePoint(begin + rng.uniform_int(ring * bucket, 3 * ring * bucket))};
    }
    case 3: {
      TimePoint t(rng.uniform_int(0, 2 * ring * bucket));
      return {t, t};
    }
    default: {
      std::int64_t begin = rng.uniform_int(0, 3 * ring * bucket);
      return {TimePoint(begin),
              TimePoint(begin + rng.uniform_int(1, 4 * bucket))};
    }
  }
}

/// KnnPlanner's radius ladder over the reference estimator.
KnnPlan reference_plan(const ReferenceSelectivityEstimator& est, Rect world,
                       Point center, std::uint32_t k,
                       const TimeInterval& interval, int& guesses) {
  KnnPlan plan;
  double world_radius = std::max(world.width(), world.height());
  double target = static_cast<double>(k) * KnnPlanner::kOvershoot;
  double radius = KnnPlanner::kMinRadius;
  guesses = 0;
  while (radius < world_radius) {
    plan.estimated_count =
        est.estimate(Rect::centered(center, radius), interval);
    ++guesses;
    if (plan.estimated_count >= target) break;
    radius *= KnnPlanner::kGrowth;
  }
  if (radius >= world_radius) {
    plan.degenerate = true;
    radius = std::numeric_limits<double>::infinity();
  }
  plan.initial_radius = radius;
  return plan;
}

TEST(SelectivityDifferential, EstimatesAndPlansBitIdenticalToReference) {
  SelectivityConfig cluster_like{{{-250, 130}, {4550, 3330}}, 16, 16,
                                 Duration::minutes(1), 32};
  SelectivityConfig odd{{{0, 0}, {1000, 700}}, 7, 5, Duration::seconds(7), 3};
  int plans = 0;
  int degenerate = 0;
  for (const SelectivityConfig& c : {config(), cluster_like, odd}) {
    Rng rng(53 + c.grid_cols);
    SelectivityEstimator est(c);
    ReferenceSelectivityEstimator ref(c);
    for (int step = 0; step < 1500; ++step) {
      Rect region = random_region(rng, c);
      TimeInterval interval = random_interval(rng, c);
      if (rng.bernoulli(0.3)) {
        auto count = static_cast<std::uint64_t>(rng.uniform_int(0, 50'000));
        est.observe(region, interval, count);
        ref.observe(region, interval, count);
        ASSERT_EQ(est.coverage(), ref.coverage()) << "step " << step;
        continue;
      }
      ASSERT_EQ(est.estimate(region, interval), ref.estimate(region, interval))
          << "step " << step;
      if (step % 10 != 0) continue;
      // A k-NN plan: several estimates with no observe between them.
      Point center = region.center();
      auto k = static_cast<std::uint32_t>(1 + rng.uniform_index(400));
      QueryProfiler profiler;
      profiler.begin("knn", TimePoint(0));
      KnnPlan got = KnnPlanner(est, c.world).plan(center, k, interval,
                                                   &profiler);
      QueryProfile profile = profiler.finish(TimePoint(0));
      int guesses = 0;
      KnnPlan want = reference_plan(ref, c.world, center, k, interval, guesses);
      ASSERT_EQ(got.initial_radius, want.initial_radius) << "step " << step;
      ASSERT_EQ(got.estimated_count, want.estimated_count) << "step " << step;
      ASSERT_EQ(got.degenerate, want.degenerate) << "step " << step;
      const ExplainStage* stage = profile.stage("knn.plan");
      ASSERT_NE(stage, nullptr);
      ASSERT_EQ(stage->considered, static_cast<std::uint64_t>(guesses));
      ++plans;
      degenerate += want.degenerate ? 1 : 0;
    }
    EXPECT_GT(est.coverage(), 0.0);
  }
  EXPECT_GT(plans, 200);
  EXPECT_LT(degenerate, plans);
}

}  // namespace
}  // namespace stcn
