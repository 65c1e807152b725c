// Per-partition local query execution.
//
// A LocalExecutor answers a Query against one partition's DetectionStore.
// It is pure with respect to the framework: given the store, it computes a
// QueryResult fragment; the coordinator merges fragments across workers.
#pragma once

#include <vector>

#include "common/filter_kernel.h"
#include "index/detection_store.h"
#include "query/query.h"
#include "query/result.h"

namespace stcn {

/// EXPLAIN/ANALYZE accounting for one local execution: how many rows the
/// scan yielded (for counts/heatmaps this exceeds the result rows), and
/// the store's block-scan accounting — zone-map skips, and rows the filter
/// kernels evaluated vs selected (the gap is the work the zone-map fast
/// paths and selectivity-ordered evaluation avoided).
struct ScanStats {
  std::uint64_t rows_scanned = 0;
  MorselStats store;
};

class LocalExecutor {
 public:
  /// The rows of `store` a row-returning query (range, circle, k-NN,
  /// trajectory, camera window) selects, in scan order; empty for count
  /// and heatmap. Block-scan accounting accumulates into `ms`. Workers
  /// write these rows to the wire straight from the store
  /// (encode_rows_response).
  [[nodiscard]] static std::vector<DetectionRef> select(
      const DetectionStore& store, const Query& query, MorselStats& ms) {
    switch (query.kind) {
      case QueryKind::kRange:
        return store.scan_range(query.region, query.interval, &ms);
      case QueryKind::kCircle:
        return store.scan_circle(query.circle, query.interval, &ms);
      case QueryKind::kKnn:
        return store.scan_knn(query.circle.center, query.k, query.interval,
                              &ms);
      case QueryKind::kTrajectory:
        return store.scan_object(query.object, query.interval, &ms);
      case QueryKind::kCameraWindow:
        return store.scan_camera(query.camera, query.interval, &ms);
      case QueryKind::kCount:
      case QueryKind::kHeatmap:
        break;
    }
    return {};
  }

  /// Executes `query` against `store`, producing a partial result: select()
  /// with each row materialized, or the aggregate. When `stats` is given,
  /// scan accounting accumulates into it. Aggregates (count, group-by,
  /// heatmap) consume the selection vectors in place.
  [[nodiscard]] static QueryResult execute(const DetectionStore& store,
                                           const Query& query,
                                           ScanStats* stats = nullptr) {
    QueryResult result;
    result.query = query.id;
    std::uint64_t scanned = 0;
    MorselStats ms;  // block-scan accounting for this execution
    if (query.kind == QueryKind::kCount) {
      scanned = count_from_store(store, query, result, ms);
    } else if (query.kind == QueryKind::kHeatmap) {
      if (query.cell_size > 0.0) {
        scanned = heatmap_from_store(store, query, result, ms);
      }
    } else {
      std::vector<DetectionRef> refs = select(store, query, ms);
      scanned = refs.size();
      result.detections.reserve(refs.size());
      for (DetectionRef ref : refs) result.detections.push_back(store.get(ref));
    }
    if (stats != nullptr) {
      stats->rows_scanned += scanned;
      stats->store.merge(ms);
    }
    return result;
  }

 private:
  /// Count / group-by-camera straight off the vectorized block scan: no
  /// DetectionRef vector is materialized; each morsel's selection vector
  /// is consumed in place (per-camera counts read the camera column by
  /// selected row id).
  static std::uint64_t count_from_store(const DetectionStore& store,
                                        const Query& query,
                                        QueryResult& result, MorselStats& ms) {
    if (query.region.is_empty() || query.interval.empty()) {
      if (query.group_by != GroupBy::kCamera) result.counts[0] = 0;
      return 0;
    }
    MorselStats local;
    std::vector<std::uint32_t> sel(kDetectionBlockRows);
    bool by_camera = query.group_by == GroupBy::kCamera;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < store.block_count(); ++b) {
      std::uint32_t n = store.scan_range_block(b, query.region, query.interval,
                                               sel.data(), local);
      total += n;
      if (by_camera && n > 0) {
        // Per-block view: hot blocks read the store columns, cold blocks
        // this thread's decode scratch (still valid — scan_range_block on
        // a cold block just decoded it).
        DetectionStore::BlockColumnsView v = store.block_columns(b);
        for (std::uint32_t i = 0; i < n; ++i) {
          ++result.counts[v.cameras[sel[i] - v.base]];
        }
      }
    }
    if (!by_camera) result.counts[0] = total;
    store.note_scan(local);
    ms.merge(local);
    return total;
  }

  /// Heatmap aggregation from selection vectors into a dense cell array
  /// (one index computation + increment per selected row), folded into the
  /// sparse result map at the end. Grids too large to hold densely fall
  /// back to per-row map inserts — same results, no memory blowup.
  static std::uint64_t heatmap_from_store(const DetectionStore& store,
                                          const Query& query,
                                          QueryResult& result,
                                          MorselStats& ms) {
    if (query.region.is_empty() || query.interval.empty()) return 0;
    MorselStats local;
    std::vector<std::uint32_t> sel(kDetectionBlockRows);
    std::size_t cols = query.heatmap_cols();
    std::size_t rows = query.heatmap_rows();
    constexpr std::size_t kMaxDenseCells = std::size_t{1} << 22;  // 32 MiB
    std::uint64_t total = 0;
    if (cols > 0 && rows > 0 && cols <= kMaxDenseCells / rows) {
      std::vector<std::uint64_t> cells(cols * rows, 0);
      for (std::size_t b = 0; b < store.block_count(); ++b) {
        std::uint32_t n = store.scan_range_block(
            b, query.region, query.interval, sel.data(), local);
        total += n;
        if (n == 0) continue;
        DetectionStore::BlockColumnsView v = store.block_columns(b);
        heatmap_accumulate(v.xs, v.ys, v.base, sel.data(), n,
                           query.region.min, query.cell_size, cols,
                           cells.data());
      }
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c] != 0) result.counts[c] += cells[c];
      }
    } else {
      for (std::size_t b = 0; b < store.block_count(); ++b) {
        std::uint32_t n = store.scan_range_block(
            b, query.region, query.interval, sel.data(), local);
        total += n;
        if (n == 0) continue;
        DetectionStore::BlockColumnsView v = store.block_columns(b);
        for (std::uint32_t i = 0; i < n; ++i) {
          std::uint32_t row = sel[i] - v.base;
          ++result.counts[query.heatmap_cell(Point{v.xs[row], v.ys[row]})];
        }
      }
    }
    store.note_scan(local);
    ms.merge(local);
    return total;
  }
};

}  // namespace stcn
