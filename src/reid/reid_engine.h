// Re-identification engine.
//
// Given a probe detection ("this object was seen at camera a at time t"),
// find where it reappears. The engine expands the transition-graph cone of
// plausible (camera, time-window) pairs, fetches only those detections from
// a CandidateSource (in the distributed framework this becomes a set of
// camera-targeted remote queries), and ranks candidates by a combined
// appearance + travel-time log-score.
//
// A full-scan mode (scan every camera over the whole horizon) serves as the
// baseline for experiment E5; the contract is that cone mode examines far
// fewer candidates at (near-)equal recall.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "reid/transition_graph.h"
#include "trace/detection.h"

namespace stcn {

/// Abstract access to stored detections, keyed by camera and time. The
/// distributed core implements this with scatter-gather queries; tests and
/// the centralized baseline run the same camera-window query locally.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;
  [[nodiscard]] virtual std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const = 0;
  /// All camera ids known to the source (for full-scan mode).
  [[nodiscard]] virtual std::vector<CameraId> all_cameras() const = 0;
};

struct ReidParams {
  TransitionGraph::ConeParams cone;
  /// Minimum appearance cosine similarity for a candidate to be scored.
  double min_similarity = 0.5;
  /// Weight of appearance similarity vs. travel-time likelihood.
  double appearance_weight = 4.0;
  std::size_t max_matches = 10;
  /// Prefilter candidate batches with the int8 quantized dot before the
  /// float kernel: a candidate whose quantized similarity plus its sound
  /// error bound (common/appearance_kernel.h) still misses min_similarity
  /// is rejected on int8 arithmetic alone; survivors are rescored in float,
  /// so match sets and scores are bit-identical to the float-only path.
  bool quantized_prefilter = true;
  /// Batches smaller than this skip the prefilter (quantizing the probe
  /// and candidates costs more than it saves on a handful of dots).
  std::size_t quantized_min_batch = 8;
};

struct ReidMatch {
  Detection detection;
  double score = 0.0;
  std::uint32_t hops = 0;
};

struct ReidOutcome {
  std::vector<ReidMatch> matches;        // best first
  std::uint64_t candidates_examined = 0;  // pruning metric (E5)
  std::uint64_t cameras_queried = 0;
  /// Similarities computed through the batched appearance kernel (the
  /// remainder fell back to scalar dots on dimension mismatch).
  std::uint64_t batched_scores = 0;
  /// Candidates scored by the int8 quantized prefilter.
  std::uint64_t quantized_scores = 0;
  /// Candidates the prefilter rejected on the error bound alone (these
  /// never reached the float kernel).
  std::uint64_t quantized_pruned = 0;
};

class ReidEngine {
 public:
  ReidEngine(const TransitionGraph& graph, ReidParams params)
      : graph_(graph), params_(params) {}

  /// Cone-pruned search for reappearances of `probe` within `horizon`.
  /// With an active `profiler`, records `reid.cone` (window pruning:
  /// cameras considered vs cone entries kept) and `reid.scan` (candidates
  /// examined vs matches) stages; candidate fetches nest one level deeper.
  [[nodiscard]] ReidOutcome find_matches(
      const Detection& probe, const TimeInterval& horizon,
      const CandidateSource& source,
      QueryProfiler* profiler = nullptr) const;

  /// Baseline: scan every camera over the entire horizon.
  [[nodiscard]] ReidOutcome find_matches_full_scan(
      const Detection& probe, const TimeInterval& horizon,
      const CandidateSource& source) const;

  [[nodiscard]] const ReidParams& params() const { return params_; }

  /// Binds the engine's `reid_batched_scores` counter into `registry`
  /// (cumulative batched-kernel similarity count across all searches).
  void register_metrics(MetricsRegistry& registry) {
    batched_scores_ = &registry.counter(
        "reid_batched_scores",
        "Appearance similarities computed by the batched kernel");
    quantized_pruned_ = &registry.counter(
        "reid_quantized_pruned",
        "Candidates rejected by the int8 prefilter's error bound");
  }

 private:
  void score_candidates(const Detection& probe, TimePoint probe_time,
                        const std::vector<Detection>& candidates,
                        std::uint32_t hops, double hop_log_prior,
                        ReidOutcome& outcome) const;

  const TransitionGraph& graph_;
  ReidParams params_;
  Counter* batched_scores_ = nullptr;    // optional registry hookup
  Counter* quantized_pruned_ = nullptr;  // optional registry hookup
};

}  // namespace stcn
