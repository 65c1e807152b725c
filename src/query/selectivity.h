// Feedback-driven spatio-temporal selectivity estimation.
//
// The coordinator keeps a coarse grid × time-bucket histogram of detection
// density, refined from the actual result sizes of executed queries (no
// scanning of the raw stream). Estimates drive the cost-based choice
// between distributed scatter-gather and single-worker execution, and are
// evaluated in the ablation benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/time.h"

namespace stcn {

struct SelectivityConfig {
  Rect world;
  std::size_t grid_cols = 16;
  std::size_t grid_rows = 16;
  Duration time_bucket = Duration::minutes(1);
  std::size_t time_buckets = 32;  // ring buffer over recent buckets
};

class SelectivityEstimator {
 public:
  explicit SelectivityEstimator(const SelectivityConfig& config)
      : config_(config),
        density_(config.grid_cols * config.grid_rows * config.time_buckets,
                 0.0),
        lit_(density_.size(), 0) {
    STCN_CHECK(!config.world.is_empty());
    STCN_CHECK(config.grid_cols > 0 && config.grid_rows > 0);
    STCN_CHECK(config.time_buckets > 0);
  }

  /// Feedback from an executed range query: `region`/`interval` returned
  /// `result_count` detections. Distributes the observed density uniformly
  /// over the covered buckets and blends it into the running estimate.
  void observe(const Rect& region, const TimeInterval& interval,
               std::uint64_t result_count) {
    Footprint fp = footprint(region, interval);
    // Uniformity assumption within the query footprint: the observed count
    // spreads over the covered bucket *fractions*, so the implied density
    // of a fully-covered bucket is count / Σ fractions.
    double total_fraction = 0.0;
    fp.for_each([&](std::size_t, double fraction) {
      total_fraction += fraction;
    });
    if (total_fraction <= 0.0) return;
    double per_full_bucket =
        static_cast<double>(result_count) / total_fraction;
    prior_valid_ = false;
    fp.for_each([&](std::size_t idx, double) {
      // Exponential blend: full trust on first light, then smoothing.
      if (lit_[idx] == 0) {
        density_[idx] = per_full_bucket;
        lit_[idx] = 1;
        ++lit_count_;
      } else {
        density_[idx] = 0.7 * density_[idx] + 0.3 * per_full_bucket;
      }
    });
  }

  /// Estimated number of detections a range query would return. Unlit
  /// buckets contribute the mean density of lit buckets (uniformity prior).
  [[nodiscard]] double estimate(const Rect& region,
                                const TimeInterval& interval) const {
    double total = 0.0;
    footprint(region, interval).for_each([&](std::size_t idx,
                                             double fraction) {
      total += (lit_[idx] != 0 ? density_[idx] : prior()) * fraction;
    });
    return total;
  }

  /// Fraction of buckets with at least one observation.
  [[nodiscard]] double coverage() const {
    return static_cast<double>(lit_count_) / static_cast<double>(lit_.size());
  }

 private:
  /// The buckets a query covers: each (cell index within a ring slot,
  /// fraction of the cell covered) in row-major order, repeated for every
  /// ring slot the interval visits, in time order.
  struct Footprint {
    std::vector<std::pair<std::size_t, double>> cells;
    std::vector<std::size_t> slots;  // first bucket index of each slot

    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t base : slots) {
        for (auto [cell, fraction] : cells) fn(base + cell, fraction);
      }
    }
  };

  [[nodiscard]] Footprint footprint(const Rect& region,
                                    const TimeInterval& interval) const {
    Footprint out;
    Rect clipped = region.intersection(config_.world);
    if (clipped.is_empty() || interval.empty()) return out;
    double cell_w = config_.world.width() / static_cast<double>(config_.grid_cols);
    double cell_h =
        config_.world.height() / static_cast<double>(config_.grid_rows);
    auto cx0 = static_cast<std::size_t>((clipped.min.x - config_.world.min.x) / cell_w);
    auto cx1 = static_cast<std::size_t>(
        std::min((clipped.max.x - config_.world.min.x) / cell_w,
                 static_cast<double>(config_.grid_cols) - 1.0));
    auto cy0 = static_cast<std::size_t>((clipped.min.y - config_.world.min.y) / cell_h);
    auto cy1 = static_cast<std::size_t>(
        std::min((clipped.max.y - config_.world.min.y) / cell_h,
                 static_cast<double>(config_.grid_rows) - 1.0));
    for (std::size_t cy = cy0; cy <= cy1; ++cy) {
      for (std::size_t cx = cx0; cx <= cx1; ++cx) {
        Rect cell{{config_.world.min.x + static_cast<double>(cx) * cell_w,
                   config_.world.min.y + static_cast<double>(cy) * cell_h},
                  {config_.world.min.x + static_cast<double>(cx + 1) * cell_w,
                   config_.world.min.y + static_cast<double>(cy + 1) * cell_h}};
        double fraction =
            cell.intersection(clipped).area() / std::max(cell.area(), 1e-9);
        if (fraction <= 1e-12) continue;  // boundary-touching cells
        out.cells.emplace_back(cy * config_.grid_cols + cx, fraction);
      }
    }

    std::int64_t tb0 = bucket_of(interval.begin);
    std::int64_t tb1 = bucket_of(interval.end - Duration::micros(1));
    // The ring holds `time_buckets` slots; wider intervals revisit slots,
    // so visiting each slot once suffices (and keeps unbounded intervals —
    // TimeInterval::all() — O(ring size)).
    if (tb1 - tb0 >= static_cast<std::int64_t>(config_.time_buckets)) {
      tb1 = tb0 + static_cast<std::int64_t>(config_.time_buckets) - 1;
    }
    std::size_t slot_size = config_.grid_cols * config_.grid_rows;
    for (std::int64_t tb = tb0; tb <= tb1; ++tb) {
      auto ring = static_cast<std::size_t>(
          tb % static_cast<std::int64_t>(config_.time_buckets));
      out.slots.push_back(ring * slot_size);
    }
    return out;
  }

  [[nodiscard]] std::int64_t bucket_of(TimePoint t) const {
    std::int64_t m = std::max<std::int64_t>(t.micros_since_origin(), 0);
    return m / config_.time_bucket.count_micros();
  }

  /// Mean density of the lit buckets, cached until the next observe().
  /// Unlit buckets hold +0.0, and adding +0.0 to a non-negative sum leaves
  /// it unchanged, so summing every bucket in index order adds exactly
  /// what summing the lit ones would.
  [[nodiscard]] double prior() const {
    if (!prior_valid_) {
      double lit_sum = 0.0;
      for (double d : density_) lit_sum += d;
      prior_ = lit_count_ != 0
                   ? lit_sum / static_cast<double>(lit_count_)
                   : 0.0;
      prior_valid_ = true;
    }
    return prior_;
  }

  SelectivityConfig config_;
  std::vector<double> density_;
  std::vector<std::uint8_t> lit_;
  std::size_t lit_count_ = 0;
  mutable double prior_ = 0.0;
  mutable bool prior_valid_ = false;
};

}  // namespace stcn
