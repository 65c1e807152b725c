// Per-partition local query execution.
//
// A LocalExecutor answers a Query against one partition's DetectionStore.
// It is pure with respect to the framework: given the store, it computes a
// QueryResult fragment; the coordinator merges fragments across workers.
// An AggregateFold answers a count or heatmap over every partition a
// worker holds, so a fragment carries one aggregate, not one per partition.
#pragma once

#include <algorithm>
#include <unordered_map>
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

/// Folds one count, group-by or heatmap query over any number of stores
/// into one accumulator, straight off the vectorized block scan (each
/// morsel's selection vector is consumed in place): an ungrouped count is
/// one u64, a group-by a hash tally per camera, and a heatmap one dense
/// cols × rows array filled by heatmap_accumulate. A grid above
/// kMaxDenseCells keeps one (cell, 1) pair per row instead, sorted and
/// summed once. take() emits the answer once, in key order.
class AggregateFold {
 public:
  /// Largest heatmap grid folded densely (32 MiB of counters).
  static constexpr std::size_t kMaxDenseCells = std::size_t{1} << 22;

  /// `query` must outlive the fold.
  explicit AggregateFold(const Query& query) : query_(query) {}

  /// Adds the rows of `store` the query selects and returns their number.
  /// Block-scan accounting accumulates into `ms`.
  std::uint64_t add(const DetectionStore& store, MorselStats& ms) {
    added_ = true;
    bool heatmap = query_.kind == QueryKind::kHeatmap;
    if (query_.region.is_empty() || query_.interval.empty() ||
        (heatmap && query_.cell_size <= 0.0)) {
      return 0;
    }
    std::size_t cols = query_.heatmap_cols();
    std::size_t rows = query_.heatmap_rows();
    bool dense = cols > 0 && rows > 0 && cols <= kMaxDenseCells / rows;
    if (heatmap && dense && cells_.empty()) cells_.assign(cols * rows, 0);
    bool by_camera = !heatmap && query_.group_by == GroupBy::kCamera;
    sel_.resize(kDetectionBlockRows);
    MorselStats local;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < store.block_count(); ++b) {
      std::uint32_t n = store.scan_range_block(b, query_.region,
                                               query_.interval, sel_.data(),
                                               local);
      total += n;
      if (n == 0 || (!heatmap && !by_camera)) continue;
      // Per-block view: hot blocks read the store columns, cold blocks
      // this thread's decode scratch (still valid — scan_range_block on a
      // cold block just decoded it).
      DetectionStore::BlockColumnsView v = store.block_columns(b);
      if (by_camera) {
        for (std::uint32_t i = 0; i < n; ++i) {
          ++cameras_[v.cameras[sel_[i] - v.base]];
        }
      } else if (dense) {
        heatmap_accumulate(v.xs, v.ys, v.base, sel_.data(), n,
                           query_.region.min, query_.cell_size, cols, rows,
                           cells_.data());
      } else {
        for (std::uint32_t i = 0; i < n; ++i) {
          std::uint32_t row = sel_[i] - v.base;
          spill_.emplace_back(
              query_.heatmap_cell(Point{v.xs[row], v.ys[row]}), 1);
        }
      }
    }
    total_ += total;
    store.note_scan(local);
    ms.merge(local);
    return total;
  }

  /// The answer over the stores added: key 0 → total for an ungrouped
  /// count (none when no store was added), else the non-zero cameras or
  /// cells, keys ascending.
  [[nodiscard]] CountPairs take() {
    CountPairs out;
    if (query_.kind == QueryKind::kHeatmap) {
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        if (cells_[c] != 0) out.emplace_back(c, cells_[c]);
      }
      if (!spill_.empty()) {
        out = std::move(spill_);
        sort_and_sum(out);
      }
    } else if (query_.group_by == GroupBy::kCamera) {
      out.assign(cameras_.begin(), cameras_.end());
      std::sort(out.begin(), out.end());
    } else if (added_) {
      out.emplace_back(0, total_);
    }
    return out;
  }

 private:
  const Query& query_;
  bool added_ = false;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> cells_;
  std::unordered_map<std::uint64_t, std::uint64_t> cameras_;
  CountPairs spill_;
  std::vector<std::uint32_t> sel_;
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
  /// with each row materialized, or the aggregate (AggregateFold over this
  /// one store). When `stats` is given, scan accounting accumulates into it.
  [[nodiscard]] static QueryResult execute(const DetectionStore& store,
                                           const Query& query,
                                           ScanStats* stats = nullptr) {
    QueryResult result;
    result.query = query.id;
    std::uint64_t scanned = 0;
    MorselStats ms;  // block-scan accounting for this execution
    if (query.kind == QueryKind::kCount || query.kind == QueryKind::kHeatmap) {
      AggregateFold fold(query);
      scanned = fold.add(store, ms);
      result.counts = fold.take();
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
};

}  // namespace stcn
