// Centralized single-node baseline.
//
// Everything in one process: one index bundle, no partitioning, no network.
// This is the comparator for E4 (distributed vs centralized crossover) and
// the oracle for integration tests (distributed answers must equal
// centralized answers on the same trace).
#pragma once

#include <span>

#include "query/executor.h"
#include "reid/reid_engine.h"
#include "trace/camera.h"

namespace stcn {

class CentralizedIndex {
 public:
  /// `world` is the area the oracle stands in for, as a Cluster's is; the
  /// store itself needs no spatial bounds.
  explicit CentralizedIndex(Rect /*world*/) {}

  void ingest(const Detection& d) { indexes_.ingest(d); }
  void ingest_all(std::span<const Detection> detections) {
    for (const Detection& d : detections) indexes_.ingest(d);
  }

  [[nodiscard]] QueryResult execute(const Query& query) const {
    ResultMerger merger(query);
    merger.add(LocalExecutor::execute(indexes_, query));
    return merger.take();
  }

  [[nodiscard]] std::size_t size() const { return indexes_.size(); }
  [[nodiscard]] const WorkerIndexes& indexes() const { return indexes_; }

 private:
  WorkerIndexes indexes_;
};

/// CandidateSource over a centralized index (re-id baseline and tests).
class LocalCandidateSource final : public CandidateSource {
 public:
  LocalCandidateSource(const CentralizedIndex& index,
                       const CameraNetwork& cameras)
      : index_(index), cameras_(cameras) {}

  [[nodiscard]] std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const override {
    return index_.execute(Query::camera_window(QueryId(0), camera, window))
        .detections;
  }

  [[nodiscard]] std::vector<CameraId> all_cameras() const override {
    std::vector<CameraId> out;
    out.reserve(cameras_.size());
    for (const Camera& cam : cameras_.cameras()) out.push_back(cam.id);
    return out;
  }

 private:
  const CentralizedIndex& index_;
  const CameraNetwork& cameras_;
};

}  // namespace stcn
