// Reference scans over a DetectionStore, for differential tests and the
// index micro-bench's before/after baseline.
//
// The scan_*_scalar functions are the row-at-a-time paths the vectorized
// layer replaced: the same zone-map block skipping, but predicates branch
// per row and there is no selectivity-ordered evaluation. Cold blocks are
// read through block_columns() (whole-column decode into scratch) —
// deliberately the simplest correct path, not the fused one under test.
//
// scan_object_brute uses no block structure at all: it reads every row
// through the per-row accessors, so a wrong zone or dictionary skip in
// DetectionStore::scan_object cannot hide in it too.
#pragma once

#include <cstdint>
#include <vector>

#include "index/detection_store.h"

namespace stcn {

[[nodiscard]] inline std::vector<DetectionRef> scan_range_scalar(
    const DetectionStore& store, const Rect& region,
    const TimeInterval& interval) {
  std::vector<DetectionRef> out;
  if (region.is_empty() || interval.empty()) return out;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    const DetectionBlockZone& z = store.zone(b);
    if (!z.overlaps(interval) || !z.overlaps(region)) continue;
    auto [first, last] = store.block_rows(b);
    DetectionStore::BlockColumnsView v = store.block_columns(b);
    bool all_time = z.within(interval);
    bool all_space = z.within(region);
    for (std::uint32_t i = first; i < last; ++i) {
      std::uint32_t j = i - v.base;
      if (!all_time && !interval.contains(TimePoint(v.times[j]))) continue;
      if (!all_space && !region.contains(Point{v.xs[j], v.ys[j]})) continue;
      out.push_back(static_cast<DetectionRef>(i));
    }
  }
  return out;
}

[[nodiscard]] inline std::vector<DetectionRef> scan_circle_scalar(
    const DetectionStore& store, const Circle& circle,
    const TimeInterval& interval) {
  std::vector<DetectionRef> out;
  if (interval.empty() || circle.radius < 0.0) return out;
  Rect box = circle.bounding_box();
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    const DetectionBlockZone& z = store.zone(b);
    if (!z.overlaps(interval) || !z.overlaps(box)) continue;
    auto [first, last] = store.block_rows(b);
    DetectionStore::BlockColumnsView v = store.block_columns(b);
    bool all_time = z.within(interval);
    for (std::uint32_t i = first; i < last; ++i) {
      std::uint32_t j = i - v.base;
      if (!all_time && !interval.contains(TimePoint(v.times[j]))) continue;
      if (!circle.contains(Point{v.xs[j], v.ys[j]})) continue;
      out.push_back(static_cast<DetectionRef>(i));
    }
  }
  return out;
}

[[nodiscard]] inline std::vector<DetectionRef> scan_camera_scalar(
    const DetectionStore& store, CameraId camera,
    const TimeInterval& interval) {
  std::vector<DetectionRef> out;
  if (interval.empty()) return out;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    const DetectionBlockZone& z = store.zone(b);
    if (!z.overlaps(interval) || !z.may_contain(camera)) continue;
    auto [first, last] = store.block_rows(b);
    DetectionStore::BlockColumnsView v = store.block_columns(b);
    bool all_time = z.within(interval);
    for (std::uint32_t i = first; i < last; ++i) {
      std::uint32_t j = i - v.base;
      if (v.cameras[j] != camera.value()) continue;
      if (!all_time && !interval.contains(TimePoint(v.times[j]))) continue;
      out.push_back(static_cast<DetectionRef>(i));
    }
  }
  return out;
}

/// Every row of `object` during `interval`, in row order.
[[nodiscard]] inline std::vector<DetectionRef> scan_object_brute(
    const DetectionStore& store, ObjectId object,
    const TimeInterval& interval) {
  std::vector<DetectionRef> out;
  for (std::size_t i = 0; i < store.size(); ++i) {
    auto ref = static_cast<DetectionRef>(i);
    if (store.object_of(ref) == object &&
        interval.contains(store.time_of(ref))) {
      out.push_back(ref);
    }
  }
  return out;
}

}  // namespace stcn
