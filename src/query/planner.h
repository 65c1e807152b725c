// Adaptive query planning.
//
// k-NN has no a-priori spatial footprint, so the naive plan broadcasts to
// every partition. The planner uses the feedback-built selectivity
// histogram to bound the search: pick the smallest radius whose estimated
// detection count comfortably exceeds k. Cluster::execute then asks only
// the partitions that circle touches.
//
// Correctness does not depend on the estimate: after the round, the circle
// through the k-th nearest answer must touch no partition that was not
// asked, or the query runs once more over every partition. The estimate
// only controls how often that fallback happens.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/geometry.h"
#include "common/time.h"
#include "obs/explain.h"
#include "query/selectivity.h"

namespace stcn {

struct KnnPlan {
  /// Search radius; ∞ when the plan is degenerate.
  double initial_radius = 0.0;
  /// Estimated detections within the initial radius.
  double estimated_count = 0.0;
  /// True when no radius below the world's size reached the target
  /// (estimator dark or k larger than the estimated population), so every
  /// partition is asked.
  bool degenerate = false;
};

class KnnPlanner {
 public:
  /// Target estimate = k × this factor (headroom for estimator error).
  static constexpr double kOvershoot = 3.0;
  /// Smallest radius ever planned (below this, fixed costs dominate).
  static constexpr double kMinRadius = 50.0;
  /// Radius growth per planning guess.
  static constexpr double kGrowth = 2.0;

  KnnPlanner(const SelectivityEstimator& estimator, Rect world)
      : estimator_(estimator), world_(world) {}

  /// Plans the initial radius for a k-NN at `center` over `interval`. When
  /// `profiler` is profiling, the radius ladder is recorded as a
  /// `knn.plan` EXPLAIN stage (one note per guess) so the query profile
  /// shows why this radius was chosen.
  [[nodiscard]] KnnPlan plan(Point center, std::uint32_t k,
                             const TimeInterval& interval,
                             QueryProfiler* profiler = nullptr) const {
    KnnPlan plan;
    std::size_t stage = QueryProfiler::kNoStage;
    if (profiler != nullptr && profiler->active()) {
      stage = profiler->open_stage("knn.plan");
      profiler->stage(stage).note("k", std::to_string(k));
    }
    double world_radius =
        std::max(world_.width(), world_.height());
    double target = static_cast<double>(k) * kOvershoot;
    double radius = kMinRadius;
    int guesses = 0;
    while (radius < world_radius) {
      plan.estimated_count =
          estimator_.estimate(Rect::centered(center, radius), interval);
      ++guesses;
      if (stage != QueryProfiler::kNoStage) {
        profiler->stage(stage).note(
            "guess_" + std::to_string(guesses),
            "r=" + std::to_string(radius) +
                " est=" + std::to_string(plan.estimated_count));
      }
      if (plan.estimated_count >= target) break;
      radius *= kGrowth;
    }
    if (radius >= world_radius) {
      plan.degenerate = true;
      radius = std::numeric_limits<double>::infinity();
    }
    plan.initial_radius = radius;
    if (stage != QueryProfiler::kNoStage) {
      ExplainStage& s = profiler->stage(stage);
      s.estimated = plan.estimated_count;
      s.considered = static_cast<std::uint64_t>(guesses);
      s.note("target", std::to_string(target));
      s.note("radius", std::to_string(radius));
      if (plan.degenerate) s.note("degenerate", "true");
      profiler->close_stage(stage);
    }
    return plan;
  }

 private:
  const SelectivityEstimator& estimator_;
  Rect world_;
};

}  // namespace stcn
