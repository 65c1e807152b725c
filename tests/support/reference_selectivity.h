// Reference selectivity estimator, for differential tests.
//
// This is the SelectivityEstimator that recomputed the lit-bucket prior
// over every bucket on each estimate() and built each covered cell's Rect
// intersection once per time-ring slot. The estimator under test caches
// the prior and intersects each cell once per query; its estimates and
// coverage must equal these bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/time.h"
#include "query/selectivity.h"

namespace stcn {

class ReferenceSelectivityEstimator {
 public:
  explicit ReferenceSelectivityEstimator(const SelectivityConfig& config)
      : config_(config),
        density_(config.grid_cols * config.grid_rows * config.time_buckets,
                 0.0),
        lit_(config.grid_cols * config.grid_rows * config.time_buckets,
             false) {
    STCN_CHECK(!config.world.is_empty());
    STCN_CHECK(config.grid_cols > 0 && config.grid_rows > 0);
    STCN_CHECK(config.time_buckets > 0);
  }

  void observe(const Rect& region, const TimeInterval& interval,
               std::uint64_t result_count) {
    auto buckets = covered_buckets(region, interval);
    if (buckets.empty()) return;
    // Uniformity assumption within the query footprint: the observed count
    // spreads over the covered bucket *fractions*, so the implied density
    // of a fully-covered bucket is count / Σ fractions.
    double total_fraction = 0.0;
    for (auto [idx, fraction] : buckets) total_fraction += fraction;
    if (total_fraction <= 0.0) return;
    double per_full_bucket =
        static_cast<double>(result_count) / total_fraction;
    for (auto [idx, fraction] : buckets) {
      // Exponential blend: full trust on first light, then smoothing.
      if (!lit_[idx]) {
        density_[idx] = per_full_bucket;
        lit_[idx] = true;
      } else {
        density_[idx] = 0.7 * density_[idx] + 0.3 * per_full_bucket;
      }
    }
  }

  [[nodiscard]] double estimate(const Rect& region,
                                const TimeInterval& interval) const {
    auto buckets = covered_buckets(region, interval);
    if (buckets.empty()) return 0.0;
    double lit_sum = 0.0;
    std::size_t lit_count = 0;
    for (std::size_t i = 0; i < density_.size(); ++i) {
      if (lit_[i]) {
        lit_sum += density_[i];
        ++lit_count;
      }
    }
    double prior = lit_count ? lit_sum / static_cast<double>(lit_count) : 0.0;
    double total = 0.0;
    for (auto [idx, fraction] : buckets) {
      total += (lit_[idx] ? density_[idx] : prior) * fraction;
    }
    return total;
  }

  /// Fraction of buckets with at least one observation.
  [[nodiscard]] double coverage() const {
    std::size_t lit_count = 0;
    for (bool b : lit_) lit_count += b ? 1 : 0;
    return static_cast<double>(lit_count) / static_cast<double>(lit_.size());
  }

 private:
  /// (bucket index, fraction of the bucket covered by the query footprint).
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> covered_buckets(
      const Rect& region, const TimeInterval& interval) const {
    std::vector<std::pair<std::size_t, double>> out;
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

    std::int64_t tb0 = bucket_of(interval.begin);
    std::int64_t tb1 = bucket_of(interval.end - Duration::micros(1));
    // The ring holds `time_buckets` slots; wider intervals revisit slots,
    // so visiting each slot once suffices (and keeps unbounded intervals —
    // TimeInterval::all() — O(ring size)).
    if (tb1 - tb0 >= static_cast<std::int64_t>(config_.time_buckets)) {
      tb1 = tb0 + static_cast<std::int64_t>(config_.time_buckets) - 1;
    }
    for (std::int64_t tb = tb0; tb <= tb1; ++tb) {
      std::size_t ring =
          static_cast<std::size_t>(tb % static_cast<std::int64_t>(
                                            config_.time_buckets));
      for (std::size_t cy = cy0; cy <= cy1; ++cy) {
        for (std::size_t cx = cx0; cx <= cx1; ++cx) {
          Rect cell{{config_.world.min.x + static_cast<double>(cx) * cell_w,
                     config_.world.min.y + static_cast<double>(cy) * cell_h},
                    {config_.world.min.x + static_cast<double>(cx + 1) * cell_w,
                     config_.world.min.y + static_cast<double>(cy + 1) * cell_h}};
          double fraction =
              cell.intersection(clipped).area() / std::max(cell.area(), 1e-9);
          if (fraction <= 1e-12) continue;  // boundary-touching cells
          std::size_t idx =
              (ring * config_.grid_rows + cy) * config_.grid_cols + cx;
          out.emplace_back(idx, fraction);
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::int64_t bucket_of(TimePoint t) const {
    std::int64_t m = std::max<std::int64_t>(t.micros_since_origin(), 0);
    return m / config_.time_bucket.count_micros();
  }

  SelectivityConfig config_;
  std::vector<double> density_;
  std::vector<bool> lit_;
};

}  // namespace stcn
