// Adaptive query planning.
//
// k-NN has no a-priori spatial footprint, so the naive plan broadcasts to
// every partition. The planner uses the feedback-built selectivity
// histogram to bound the search: pick the smallest radius whose estimated
// detection count comfortably exceeds k, run a *circle* query (which the
// partition strategy can prune), and expand the radius only if the guess
// under-shot.
//
// Correctness does not depend on the estimate: if a circle of radius R
// returns ≥ k detections, the true k nearest all lie within R (anything
// outside is farther than everything inside), so the answer equals the
// broadcast k-NN. The estimate only controls how often we expand.
#pragma once

#include <cstdint>
#include <string>

#include "common/geometry.h"
#include "common/time.h"
#include "obs/explain.h"
#include "query/selectivity.h"

namespace stcn {

struct KnnPlan {
  double initial_radius = 0.0;
  /// Estimated detections within the initial radius.
  double estimated_count = 0.0;
  /// True when the planner fell back to a whole-world radius (estimator
  /// dark or k larger than the estimated population).
  bool degenerate = false;
};

struct KnnPlannerParams {
  /// Target estimate = k × this factor (headroom for estimator error).
  double overshoot_factor = 3.0;
  /// Smallest radius ever planned (below this, fixed costs dominate).
  double min_radius = 50.0;
  /// Radius growth per expansion round.
  double growth = 2.0;
};

class KnnPlanner {
 public:
  KnnPlanner(const SelectivityEstimator& estimator, Rect world,
             KnnPlannerParams params = {})
      : estimator_(estimator), world_(world), params_(params) {}

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
    double target = static_cast<double>(k) * params_.overshoot_factor;
    double radius = params_.min_radius;
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
      radius *= params_.growth;
    }
    if (radius >= world_radius) {
      plan.degenerate = true;
      radius = world_radius;
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

  [[nodiscard]] double grow(double radius) const {
    return radius * params_.growth;
  }
  [[nodiscard]] double world_radius() const {
    return std::max(world_.width(), world_.height());
  }

 private:
  const SelectivityEstimator& estimator_;
  Rect world_;
  KnnPlannerParams params_;
};

}  // namespace stcn
