// Query model.
//
// A Query is a small, serializable description of what the caller wants;
// the coordinator computes its partition footprint, ships it to the
// relevant workers, and merges their partial results.
//
// Kinds:
//   kRange      — detections with position ∈ region, time ∈ interval
//   kCircle     — detections within a circle during interval
//   kKnn        — k detections nearest `circle.center` during interval;
//                 `circle.radius` bounds the partitions asked (∞ = all)
//   kTrajectory — detections of one object during interval, time-ordered
//   kCount      — count of detections in region/interval, optionally
//                 grouped by camera
//   kCameraWindow — detections of one camera during interval (the primitive
//                 the re-identification engine issues after cone pruning)
//   kHeatmap    — per-cell detection counts over a region (one query
//                 replaces a grid of kCount queries for dashboards)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"

namespace stcn {

enum class QueryKind : std::uint8_t {
  kRange = 0,
  kCircle = 1,
  kKnn = 2,
  kTrajectory = 3,
  kCount = 4,
  kCameraWindow = 5,
  kHeatmap = 6,
};

[[nodiscard]] inline const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange: return "range";
    case QueryKind::kCount: return "count";
    case QueryKind::kHeatmap: return "heatmap";
    case QueryKind::kCircle: return "circle";
    case QueryKind::kCameraWindow: return "camera_window";
    case QueryKind::kTrajectory: return "trajectory";
    case QueryKind::kKnn: return "knn";
  }
  return "unknown";
}

enum class GroupBy : std::uint8_t {
  kNone = 0,
  kCamera = 1,
};

struct Query {
  QueryId id;
  QueryKind kind = QueryKind::kRange;
  TimeInterval interval = TimeInterval::all();

  // kRange / kCount footprint.
  Rect region;
  // kCircle footprint; for kKnn, the centre and the search area whose
  // partitions are asked (radius ∞ asks every partition).
  Circle circle;
  // kKnn result size.
  std::uint32_t k = 0;
  // kTrajectory parameter.
  ObjectId object;
  // kCameraWindow parameter.
  CameraId camera;
  // kCount grouping.
  GroupBy group_by = GroupBy::kNone;
  // kHeatmap cell edge length (meters).
  double cell_size = 0.0;
  // Maximum detections returned (0 = unlimited). Applies to detection-
  // producing kinds except kKnn (which is bounded by k already); the limit
  // keeps the earliest `limit` detections in canonical time order, and is
  // enforced both per-worker (bounding fragment size on the wire) and at
  // the final merge.
  std::uint32_t limit = 0;
  // Originating tenant (gateway id, client class, ...). 0 = local/untagged.
  // Pure attribution metadata: never affects the answer, only how the
  // coordinator's resource ledger buckets the query's cost.
  std::uint32_t tenant = 0;

  /// Returns a copy with a result limit applied.
  [[nodiscard]] Query with_limit(std::uint32_t n) const {
    Query q = *this;
    q.limit = n;
    return q;
  }

  /// Returns a copy attributed to `tenant` for cost accounting.
  [[nodiscard]] Query with_tenant(std::uint32_t t) const {
    Query q = *this;
    q.tenant = t;
    return q;
  }

  // -------- constructors for each kind --------
  static Query range(QueryId id, Rect region, TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kRange;
    q.region = region;
    q.interval = interval;
    return q;
  }
  static Query circle_query(QueryId id, Circle c, TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kCircle;
    q.circle = c;
    q.interval = interval;
    return q;
  }
  static Query knn(QueryId id, Point center, std::uint32_t k,
                   TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kKnn;
    q.circle = {center, std::numeric_limits<double>::infinity()};
    q.k = k;
    q.interval = interval;
    return q;
  }
  static Query trajectory(QueryId id, ObjectId object, TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kTrajectory;
    q.object = object;
    q.interval = interval;
    return q;
  }
  static Query count(QueryId id, Rect region, TimeInterval interval,
                     GroupBy group_by = GroupBy::kNone) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kCount;
    q.region = region;
    q.interval = interval;
    q.group_by = group_by;
    return q;
  }
  static Query camera_window(QueryId id, CameraId camera,
                             TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kCameraWindow;
    q.camera = camera;
    q.interval = interval;
    return q;
  }
  static Query heatmap(QueryId id, Rect region, double cell_size,
                       TimeInterval interval) {
    Query q;
    q.id = id;
    q.kind = QueryKind::kHeatmap;
    q.region = region;
    q.cell_size = cell_size;
    q.interval = interval;
    return q;
  }

  /// Heatmap grid shape: columns/rows covering `region` at `cell_size`.
  [[nodiscard]] std::size_t heatmap_cols() const {
    if (cell_size <= 0.0) return 0;
    return static_cast<std::size_t>(std::ceil(region.width() / cell_size));
  }
  [[nodiscard]] std::size_t heatmap_rows() const {
    if (cell_size <= 0.0) return 0;
    return static_cast<std::size_t>(std::ceil(region.height() / cell_size));
  }
  /// Flat heatmap cell index of a position inside `region`. A position
  /// within rounding of the far edge can divide out to heatmap_cols() or
  /// heatmap_rows(); it belongs to the last column or row.
  [[nodiscard]] std::uint64_t heatmap_cell(Point p) const {
    auto cx = static_cast<std::uint64_t>((p.x - region.min.x) / cell_size);
    auto cy = static_cast<std::uint64_t>((p.y - region.min.y) / cell_size);
    std::uint64_t cols = heatmap_cols();
    return std::min<std::uint64_t>(cy, heatmap_rows() - 1) * cols +
           std::min<std::uint64_t>(cx, cols - 1);
  }
};

inline void serialize(BinaryWriter& w, const Query& q) {
  w.write_id(q.id);
  w.write_u8(static_cast<std::uint8_t>(q.kind));
  w.write_time(q.interval.begin);
  w.write_time(q.interval.end);
  w.write_double(q.region.min.x);
  w.write_double(q.region.min.y);
  w.write_double(q.region.max.x);
  w.write_double(q.region.max.y);
  w.write_double(q.circle.center.x);
  w.write_double(q.circle.center.y);
  w.write_double(q.circle.radius);
  w.write_u32(q.k);
  w.write_id(q.object);
  w.write_id(q.camera);
  w.write_u8(static_cast<std::uint8_t>(q.group_by));
  w.write_double(q.cell_size);
  w.write_u32(q.limit);
  w.write_u32(q.tenant);
}

inline Query deserialize_query(BinaryReader& r) {
  Query q;
  q.id = r.read_id<QueryIdTag>();
  q.kind = static_cast<QueryKind>(r.read_u8());
  q.interval.begin = r.read_time();
  q.interval.end = r.read_time();
  q.region.min.x = r.read_double();
  q.region.min.y = r.read_double();
  q.region.max.x = r.read_double();
  q.region.max.y = r.read_double();
  q.circle.center.x = r.read_double();
  q.circle.center.y = r.read_double();
  q.circle.radius = r.read_double();
  q.k = r.read_u32();
  q.object = r.read_id<ObjectIdTag>();
  q.camera = r.read_id<CameraIdTag>();
  q.group_by = static_cast<GroupBy>(r.read_u8());
  q.cell_size = r.read_double();
  q.limit = r.read_u32();
  q.tenant = r.read_u32();
  return q;
}

}  // namespace stcn
