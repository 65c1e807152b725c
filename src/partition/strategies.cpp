#include "partition/strategies.h"

#include <algorithm>

namespace stcn {

namespace {

/// Tile index of coordinate `v` on an axis starting at `lo`, `extent` long
/// and cut into `tiles` tiles. Clamped in floating point before the cast
/// (converting an out-of-range double to an integer is undefined), so huge
/// and infinite coordinates land on the edge tiles.
std::size_t tile_index(double v, double lo, double extent, std::size_t tiles) {
  double t = std::floor((v - lo) / extent * static_cast<double>(tiles));
  double last = static_cast<double>(tiles - 1);
  return static_cast<std::size_t>(t >= 0.0 ? std::min(t, last) : 0.0);
}

}  // namespace

// ---------------------------------------------------------------- spatial

SpatialGridStrategy::SpatialGridStrategy(Rect world, std::size_t tiles_x,
                                         std::size_t tiles_y,
                                         const CameraNetwork& cameras)
    : world_(world), tiles_x_(tiles_x), tiles_y_(tiles_y) {
  STCN_CHECK(!world.is_empty());
  STCN_CHECK(tiles_x_ > 0 && tiles_y_ > 0);
  for (const Camera& cam : cameras.cameras()) {
    camera_positions_[cam.id] = cam.fov.apex;
  }
}

std::size_t SpatialGridStrategy::tile_x(double x) const {
  return tile_index(x, world_.min.x, world_.width(), tiles_x_);
}

std::size_t SpatialGridStrategy::tile_y(double y) const {
  return tile_index(y, world_.min.y, world_.height(), tiles_y_);
}

PartitionId SpatialGridStrategy::partition_of(CameraId, Point position,
                                              TimePoint) const {
  return PartitionId(tile_y(position.y) * tiles_x_ + tile_x(position.x));
}

std::vector<PartitionId> SpatialGridStrategy::partitions_for_region(
    const Rect& region, const TimeInterval&) const {
  std::vector<PartitionId> out;
  if (region.is_empty()) return out;
  std::size_t x0 = tile_x(region.min.x);
  std::size_t x1 = tile_x(region.max.x);
  std::size_t y0 = tile_y(region.min.y);
  std::size_t y1 = tile_y(region.max.y);
  for (std::size_t y = y0; y <= y1; ++y) {
    for (std::size_t x = x0; x <= x1; ++x) {
      out.emplace_back(y * tiles_x_ + x);
    }
  }
  return out;
}

std::vector<PartitionId> SpatialGridStrategy::partitions_for_camera(
    CameraId camera, const TimeInterval&) const {
  auto it = camera_positions_.find(camera);
  if (it == camera_positions_.end()) return all_partitions();
  // A camera's detections carry positions within its FOV, which may cross a
  // tile edge; return the tiles the FOV's reach can touch. Conservative:
  // pad by a typical FOV range.
  constexpr double kPad = 80.0;
  return partitions_for_region(Rect::centered(it->second, kPad),
                               TimeInterval::all());
}

Rect SpatialGridStrategy::tile_bounds(PartitionId p) const {
  std::size_t idx = p.value();
  std::size_t ty = idx / tiles_x_;
  std::size_t tx = idx % tiles_x_;
  double w = world_.width() / static_cast<double>(tiles_x_);
  double h = world_.height() / static_cast<double>(tiles_y_);
  Point lo{world_.min.x + static_cast<double>(tx) * w,
           world_.min.y + static_cast<double>(ty) * h};
  return {lo, {lo.x + w, lo.y + h}};
}

// --------------------------------------------------------------- temporal

std::vector<PartitionId> TemporalStrategy::epochs_in(
    const TimeInterval& interval) const {
  if (interval.empty()) return {};
  std::uint64_t first = epoch_index(interval.begin);
  std::uint64_t last = epoch_index(interval.end - Duration::micros(1));
  if (last - first + 1 >= partition_count_) return all_partitions();
  std::vector<PartitionId> out;
  for (std::uint64_t e = first; e <= last; ++e) {
    out.emplace_back(e % partition_count_);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ----------------------------------------------------------------- hybrid

HybridStrategy::HybridStrategy(Rect world, const CameraNetwork& cameras,
                               const Config& config)
    : world_(world), config_(config) {
  STCN_CHECK(!world.is_empty());
  STCN_CHECK(config_.tiles_x > 0 && config_.tiles_y > 0);
  STCN_CHECK(config_.hot_split_factor >= 1);
  for (const Camera& cam : cameras.cameras()) {
    camera_positions_[cam.id] = cam.fov.apex;
  }

  std::size_t tile_count = config_.tiles_x * config_.tiles_y;
  std::vector<std::size_t> cameras_per_tile(tile_count, 0);
  for (const Camera& cam : cameras.cameras()) {
    ++cameras_per_tile[tile_of(cam.fov.apex)];
  }

  first_partition_.resize(tile_count);
  width_.resize(tile_count);
  for (std::size_t t = 0; t < tile_count; ++t) {
    bool hot = cameras_per_tile[t] > config_.hot_camera_threshold;
    first_partition_[t] = total_partitions_;
    width_[t] = hot ? config_.hot_split_factor : 1;
    total_partitions_ += width_[t];
    if (hot) ++hot_tiles_;
  }
}

std::size_t HybridStrategy::tile_x(double x) const {
  return tile_index(x, world_.min.x, world_.width(), config_.tiles_x);
}

std::size_t HybridStrategy::tile_y(double y) const {
  return tile_index(y, world_.min.y, world_.height(), config_.tiles_y);
}

std::size_t HybridStrategy::tile_of(Point p) const {
  return tile_y(p.y) * config_.tiles_x + tile_x(p.x);
}

void HybridStrategy::tile_partitions(std::size_t tile,
                                     std::vector<PartitionId>& out) const {
  for (std::size_t i = 0; i < width_[tile]; ++i) {
    out.emplace_back(first_partition_[tile] + i);
  }
}

PartitionId HybridStrategy::partition_of(CameraId camera, Point position,
                                         TimePoint) const {
  std::size_t tile = tile_of(position);
  std::size_t w = width_[tile];
  if (w == 1) return PartitionId(first_partition_[tile]);
  std::uint64_t h = SplitMix64(camera.value()).next();
  return PartitionId(first_partition_[tile] + h % w);
}

std::vector<PartitionId> HybridStrategy::partitions_for_region(
    const Rect& region, const TimeInterval&) const {
  std::vector<PartitionId> out;
  if (region.is_empty()) return out;
  std::size_t x0 = tile_x(region.min.x);
  std::size_t x1 = tile_x(region.max.x);
  std::size_t y0 = tile_y(region.min.y);
  std::size_t y1 = tile_y(region.max.y);
  for (std::size_t y = y0; y <= y1; ++y) {
    for (std::size_t x = x0; x <= x1; ++x) {
      tile_partitions(y * config_.tiles_x + x, out);
    }
  }
  return out;
}

std::vector<PartitionId> HybridStrategy::partitions_for_camera(
    CameraId camera, const TimeInterval&) const {
  auto it = camera_positions_.find(camera);
  if (it == camera_positions_.end()) return all_partitions();
  constexpr double kPad = 80.0;
  // Within each candidate tile the camera maps to exactly one hash
  // sub-partition, so refine tile fan-out down to that sub-partition.
  std::vector<PartitionId> tiles_fanout = partitions_for_region(
      Rect::centered(it->second, kPad), TimeInterval::all());
  std::vector<PartitionId> out;
  std::uint64_t h = SplitMix64(camera.value()).next();
  for (std::size_t t = 0; t < width_.size(); ++t) {
    std::size_t first = first_partition_[t];
    std::size_t w = width_[t];
    bool tile_selected = false;
    for (PartitionId p : tiles_fanout) {
      if (p.value() >= first && p.value() < first + w) {
        tile_selected = true;
        break;
      }
    }
    if (tile_selected) out.emplace_back(first + h % w);
  }
  return out;
}

}  // namespace stcn
