// Concrete partitioning strategies.
//
// * SpatialGridStrategy — world cut into a grid of tiles; strong query
//   pruning, but hotspot tiles overload their workers.
// * HashStrategy — partition by camera-id hash; perfect balance, zero
//   spatial pruning (every region query fans out everywhere).
// * TemporalStrategy — round-robin by time epoch; balances over time,
//   prunes only temporally-narrow queries.
// * HybridStrategy — spatial tiles, with tiles hotter than a load threshold
//   split across several hash sub-partitions. Keeps spatial pruning while
//   capping per-partition load; the framework default.
#pragma once

#include <cmath>
#include <unordered_map>

#include "common/rng.h"
#include "partition/partition_map.h"
#include "trace/camera.h"

namespace stcn {

class SpatialGridStrategy final : public PartitionStrategy {
 public:
  /// Cuts `world` into tiles_x × tiles_y partitions. `cameras` provides
  /// camera positions for camera-footprint routing.
  SpatialGridStrategy(Rect world, std::size_t tiles_x, std::size_t tiles_y,
                      const CameraNetwork& cameras);

  [[nodiscard]] std::string name() const override { return "spatial"; }
  [[nodiscard]] std::size_t partition_count() const override {
    return tiles_x_ * tiles_y_;
  }
  [[nodiscard]] PartitionId partition_of(CameraId camera, Point position,
                                         TimePoint time) const override;
  [[nodiscard]] std::vector<PartitionId> partitions_for_region(
      const Rect& region, const TimeInterval& interval) const override;
  [[nodiscard]] std::vector<PartitionId> partitions_for_camera(
      CameraId camera, const TimeInterval& interval) const override;

  /// Tile rectangle of a partition (for tests and diagnostics).
  [[nodiscard]] Rect tile_bounds(PartitionId p) const;

 private:
  [[nodiscard]] std::size_t tile_x(double x) const;
  [[nodiscard]] std::size_t tile_y(double y) const;

  Rect world_;
  std::size_t tiles_x_;
  std::size_t tiles_y_;
  std::unordered_map<CameraId, Point> camera_positions_;
};

class HashStrategy final : public PartitionStrategy {
 public:
  explicit HashStrategy(std::size_t partition_count)
      : partition_count_(partition_count) {
    STCN_CHECK(partition_count_ > 0);
  }

  [[nodiscard]] std::string name() const override { return "hash"; }
  [[nodiscard]] std::size_t partition_count() const override {
    return partition_count_;
  }
  [[nodiscard]] PartitionId partition_of(CameraId camera, Point,
                                         TimePoint) const override {
    return PartitionId(mix(camera.value()) % partition_count_);
  }
  [[nodiscard]] std::vector<PartitionId> partitions_for_region(
      const Rect&, const TimeInterval&) const override {
    return all_partitions();  // no spatial knowledge — must broadcast
  }
  [[nodiscard]] std::vector<PartitionId> partitions_for_camera(
      CameraId camera, const TimeInterval&) const override {
    return {PartitionId(mix(camera.value()) % partition_count_)};
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    return SplitMix64(x).next();
  }
  std::size_t partition_count_;
};

class TemporalStrategy final : public PartitionStrategy {
 public:
  TemporalStrategy(std::size_t partition_count, Duration epoch)
      : partition_count_(partition_count), epoch_(epoch) {
    STCN_CHECK(partition_count_ > 0);
    STCN_CHECK(epoch_ > Duration::zero());
  }

  [[nodiscard]] std::string name() const override { return "temporal"; }
  [[nodiscard]] std::size_t partition_count() const override {
    return partition_count_;
  }
  [[nodiscard]] PartitionId partition_of(CameraId, Point,
                                         TimePoint time) const override {
    return PartitionId(epoch_index(time) % partition_count_);
  }
  [[nodiscard]] std::vector<PartitionId> partitions_for_region(
      const Rect&, const TimeInterval& interval) const override {
    return epochs_in(interval);
  }
  [[nodiscard]] std::vector<PartitionId> partitions_for_camera(
      CameraId, const TimeInterval& interval) const override {
    return epochs_in(interval);
  }

 private:
  [[nodiscard]] std::uint64_t epoch_index(TimePoint t) const {
    std::int64_t m = t.micros_since_origin();
    if (m < 0) m = 0;
    return static_cast<std::uint64_t>(m / epoch_.count_micros());
  }
  [[nodiscard]] std::vector<PartitionId> epochs_in(
      const TimeInterval& interval) const;

  std::size_t partition_count_;
  Duration epoch_;
};

class HybridStrategy final : public PartitionStrategy {
 public:
  struct Config {
    std::size_t tiles_x = 4;
    std::size_t tiles_y = 4;
    /// A tile with more than `hot_camera_threshold` cameras is split.
    std::size_t hot_camera_threshold = 8;
    /// Hash fan-out for hot tiles.
    std::size_t hot_split_factor = 4;
  };

  HybridStrategy(Rect world, const CameraNetwork& cameras,
                 const Config& config);

  [[nodiscard]] std::string name() const override { return "hybrid"; }
  [[nodiscard]] std::size_t partition_count() const override {
    return total_partitions_;
  }
  [[nodiscard]] PartitionId partition_of(CameraId camera, Point position,
                                         TimePoint time) const override;
  [[nodiscard]] std::vector<PartitionId> partitions_for_region(
      const Rect& region, const TimeInterval& interval) const override;
  [[nodiscard]] std::vector<PartitionId> partitions_for_camera(
      CameraId camera, const TimeInterval& interval) const override;

  [[nodiscard]] std::size_t hot_tile_count() const { return hot_tiles_; }

 private:
  [[nodiscard]] std::size_t tile_x(double x) const;
  [[nodiscard]] std::size_t tile_y(double y) const;
  [[nodiscard]] std::size_t tile_of(Point p) const;
  /// Partitions backing one tile: [first_partition[tile],
  /// first_partition[tile] + width[tile]).
  void tile_partitions(std::size_t tile, std::vector<PartitionId>& out) const;

  Rect world_;
  Config config_;
  std::unordered_map<CameraId, Point> camera_positions_;
  std::vector<std::size_t> first_partition_;  // per tile
  std::vector<std::size_t> width_;            // per tile (1 or split factor)
  std::size_t total_partitions_ = 0;
  std::size_t hot_tiles_ = 0;
};

}  // namespace stcn
