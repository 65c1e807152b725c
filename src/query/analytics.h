// Aggregate analytics over the distributed store.
//
// Higher-level analysis helpers composed from the framework's primitive
// queries — the "spatio-temporal analysis" layer applications build on:
//
//   * activity_series     — detections per time bucket over a region
//                           (one count query per bucket, footprint-pruned)
//   * camera_profiles     — per-camera totals + peak bucket over a window
//   * busiest_regions     — top-k heatmap cells of a region
//
// These run against any QueryExecutor: the distributed Cluster or the
// centralized baseline (both satisfy the implicit interface via a thin
// adapter), so tests can verify the distributed analytics against the
// oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/time.h"
#include "query/query.h"
#include "query/result.h"

namespace stcn {

/// Type-erased query execution: wraps Cluster::execute or
/// CentralizedIndex::execute. The id generator keeps query ids unique.
class QueryExecutorRef {
 public:
  template <typename Executor>
  explicit QueryExecutorRef(Executor& executor)
      : execute_([&executor](const Query& q) { return executor.execute(q); }) {}

  QueryResult execute(const Query& q) const { return execute_(q); }

 private:
  std::function<QueryResult(const Query&)> execute_;
};

struct SeriesPoint {
  TimeInterval bucket;
  std::uint64_t count = 0;
};

/// Detection counts over `region` in consecutive `bucket` spans covering
/// `window`.
inline std::vector<SeriesPoint> activity_series(const QueryExecutorRef& exec,
                                                const Rect& region,
                                                const TimeInterval& window,
                                                Duration bucket) {
  std::vector<SeriesPoint> series;
  if (window.empty() || bucket <= Duration::zero()) return series;
  std::uint64_t next_id = 0x5e11e500;  // analytics-reserved id space
  for (TimePoint t = window.begin; t < window.end; t = t + bucket) {
    TimeInterval span{t, std::min(t + bucket, window.end)};
    QueryResult r =
        exec.execute(Query::count(QueryId(next_id++), region, span));
    series.push_back({span, r.total_count()});
  }
  return series;
}

struct PeriodEstimate {
  Duration period;
  /// Autocorrelation coefficient at the detected lag, in (0, 1].
  double confidence = 0.0;
};

/// Detects a periodic activity pattern in a count series (rush hours,
/// day/night cycles) via autocorrelation. Returns nullopt when no lag in
/// [2, n/2] correlates above `min_confidence`. Harmonic lags are reduced
/// to the fundamental (a 2-period lag correlating as well as the 1-period
/// lag reports the 1-period one).
inline std::optional<PeriodEstimate> estimate_period(
    const std::vector<SeriesPoint>& series, double min_confidence = 0.3) {
  std::size_t n = series.size();
  if (n < 6) return std::nullopt;

  std::vector<double> x(n);
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(series[i].count);
    mean += x[i];
  }
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double& v : x) {
    v -= mean;
    var += v * v;
  }
  if (var <= 0.0) return std::nullopt;  // flat series: no period

  auto autocorr = [&](std::size_t lag) {
    double s = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) s += x[i] * x[i + lag];
    return s / var;
  };

  // Any smooth series correlates strongly at tiny lags (the "shoulder");
  // a genuine period shows up as a correlation *re-peak* after the
  // autocorrelation has first dipped. Search for the maximum only from the
  // first dip onward; if the series never dips there is no cycle to find.
  std::size_t first_dip = 0;
  for (std::size_t lag = 1; lag <= n / 2; ++lag) {
    if (autocorr(lag) < min_confidence / 2.0) {
      first_dip = lag;
      break;
    }
  }
  if (first_dip == 0) return std::nullopt;

  std::size_t best_lag = 0;
  double best_r = min_confidence;
  for (std::size_t lag = std::max<std::size_t>(first_dip + 1, 2);
       lag <= n / 2; ++lag) {
    double r = autocorr(lag);
    if (r > best_r) {
      best_r = r;
      best_lag = lag;
    }
  }
  if (best_lag == 0) return std::nullopt;

  // Harmonic reduction: if half the lag explains (nearly) as much, it is
  // the fundamental.
  while (best_lag % 2 == 0 && best_lag / 2 >= 2) {
    double half_r = autocorr(best_lag / 2);
    if (half_r < 0.9 * best_r) break;
    best_lag /= 2;
    best_r = std::max(best_r, half_r);
  }

  Duration bucket = series.front().bucket.length();
  return PeriodEstimate{bucket * static_cast<std::int64_t>(best_lag),
                        best_r};
}

struct CameraProfile {
  CameraId camera;
  std::uint64_t total = 0;
  TimeInterval peak_bucket;
  std::uint64_t peak_count = 0;
};

/// Per-camera activity over `region`/`window`, bucketed by `bucket`;
/// sorted by total, busiest first.
inline std::vector<CameraProfile> camera_profiles(
    const QueryExecutorRef& exec, const Rect& region,
    const TimeInterval& window, Duration bucket) {
  std::map<std::uint64_t, CameraProfile> profiles;
  std::uint64_t next_id = 0x5e11e900;
  for (TimePoint t = window.begin; t < window.end; t = t + bucket) {
    TimeInterval span{t, std::min(t + bucket, window.end)};
    QueryResult r = exec.execute(
        Query::count(QueryId(next_id++), region, span, GroupBy::kCamera));
    for (const auto& [camera, n] : r.counts) {
      CameraProfile& p = profiles[camera];
      p.camera = CameraId(camera);
      p.total += n;
      if (n > p.peak_count) {
        p.peak_count = n;
        p.peak_bucket = span;
      }
    }
  }
  std::vector<CameraProfile> out;
  out.reserve(profiles.size());
  for (auto& [camera, p] : profiles) out.push_back(p);
  std::sort(out.begin(), out.end(),
            [](const CameraProfile& a, const CameraProfile& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.camera < b.camera;
            });
  return out;
}

struct HotCell {
  Rect bounds;
  std::uint64_t count = 0;
};

/// Top-k heatmap cells of `region` during `window` at `cell_size`.
inline std::vector<HotCell> busiest_regions(const QueryExecutorRef& exec,
                                            const Rect& region,
                                            const TimeInterval& window,
                                            double cell_size, std::size_t k) {
  Query q = Query::heatmap(QueryId(0x5e11ed00), region, cell_size, window);
  QueryResult r = exec.execute(q);
  CountPairs cells = std::move(r.counts);
  std::sort(cells.begin(), cells.end(), [](auto a, auto b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<HotCell> out;
  std::size_t cols = q.heatmap_cols();
  for (std::size_t i = 0; i < cells.size() && i < k; ++i) {
    std::uint64_t cell = cells[i].first;
    auto cx = static_cast<double>(cell % cols);
    auto cy = static_cast<double>(cell / cols);
    Rect bounds{{region.min.x + cx * cell_size, region.min.y + cy * cell_size},
                {region.min.x + (cx + 1) * cell_size,
                 region.min.y + (cy + 1) * cell_size}};
    out.push_back({bounds, cells[i].second});
  }
  return out;
}

}  // namespace stcn
