// Per-worker local query execution.
//
// A LocalExecutor answers a Query against one worker's indexes. It is pure
// with respect to the framework: given the store and indexes, it computes a
// QueryResult fragment; the coordinator merges fragments across workers.
#pragma once

#include <vector>

#include "common/filter_kernel.h"
#include "index/detection_store.h"
#include "index/trajectory_store.h"
#include "query/query.h"
#include "query/result.h"

namespace stcn {

/// The bundle of per-worker storage a query executes against: the columnar
/// store, which answers every spatial, camera and aggregate query by
/// zone-map block scan, and the per-object trajectories.
struct WorkerIndexes {
  DetectionStore store;
  TrajectoryStore trajectories;

  /// Ingest one detection into the store and every index.
  DetectionRef ingest(Detection d) {
    DetectionRef ref = store.append(std::move(d));
    index_rows_from(to_index(ref));
    return ref;
  }

  /// Indexes store rows [first, size()) — the one place that lists the
  /// per-row index inserts. Callers that append to `store` directly (bulk
  /// copies, snapshot installs) call this afterwards.
  void index_rows_from(std::size_t first) {
    for (std::size_t i = first; i < store.size(); ++i) {
      trajectories.insert(store, static_cast<DetectionRef>(i));
    }
  }

  /// Retention compaction: rebuilds the store and every index keeping only
  /// detections with time >= `horizon`. Returns the number evicted.
  /// DetectionRefs issued before a compaction are invalidated.
  ///
  /// Block-wise: a block whose zone map proves every row older than the
  /// horizon is evicted wholesale; a block proven entirely fresh is copied
  /// column-to-column in one bulk append_rows (which recomputes the
  /// destination zone maps tightly from the surviving rows — merged blocks
  /// must not inherit stale-wide source bounds, or block skipping degrades
  /// after every compaction). Mixed blocks fall back to per-row
  /// append_copy; no path materializes Detection records.
  std::size_t compact(TimePoint horizon) {
    WorkerIndexes fresh;
    // Propagate tiering before any rows land: surviving whole cold blocks
    // then adopt verbatim (no decode/re-quantization) and surviving hot
    // rows re-demote at the same watermark.
    fresh.store.set_tier_config(store.tier_config());
    std::size_t evicted = 0;
    for (std::size_t b = 0; b < store.block_count(); ++b) {
      const DetectionBlockZone& z = store.zone(b);
      auto [first, last] = store.block_rows(b);
      if (TimePoint(z.t_max) < horizon) {  // whole block expired
        evicted += last - first;
        continue;
      }
      std::size_t first_new = fresh.size();
      if (TimePoint(z.t_min) >= horizon) {  // whole block fresh: bulk copy
        (void)fresh.store.append_rows(store, first, last);
      } else {
        for (std::uint32_t i = first; i < last; ++i) {
          auto old_ref = static_cast<DetectionRef>(i);
          if (store.time_of(old_ref) < horizon) {
            ++evicted;
            continue;
          }
          (void)fresh.store.append_copy(store, old_ref);
        }
      }
      fresh.index_rows_from(first_new);
    }
    *this = std::move(fresh);
    return evicted;
  }

  [[nodiscard]] std::size_t size() const { return store.size(); }
};

/// EXPLAIN/ANALYZE accounting for one local execution: how many rows the
/// indexes yielded (for counts/heatmaps this exceeds the result rows), and
/// the store's block-scan accounting — zone-map skips, and rows the filter
/// kernels evaluated vs selected (the gap is the work the zone-map fast
/// paths and selectivity-ordered evaluation avoided).
struct ScanStats {
  std::uint64_t rows_scanned = 0;
  MorselStats store;
};

class LocalExecutor {
 public:
  /// Executes `query` against `indexes`, producing a partial result. When
  /// `stats` is given, scan accounting accumulates into it. Every kind but
  /// trajectories reads the store's zone-map block scans; aggregates (count,
  /// group-by, heatmap) consume the selection vectors in place.
  [[nodiscard]] static QueryResult execute(const WorkerIndexes& indexes,
                                           const Query& query,
                                           ScanStats* stats = nullptr) {
    QueryResult result;
    result.query = query.id;
    std::uint64_t scanned = 0;
    MorselStats ms;  // block-scan accounting for this execution
    std::vector<DetectionRef> refs;  // row-returning kinds
    const DetectionStore& store = indexes.store;
    switch (query.kind) {
      case QueryKind::kRange:
        refs = store.scan_range(query.region, query.interval, &ms);
        break;
      case QueryKind::kCircle:
        refs = store.scan_circle(query.circle, query.interval, &ms);
        break;
      case QueryKind::kKnn:
        refs = store.scan_knn(query.circle.center, query.k, query.interval,
                              &ms);
        break;
      case QueryKind::kTrajectory:
        refs = indexes.trajectories.query(query.object, query.interval);
        break;
      case QueryKind::kCameraWindow:
        refs = store.scan_camera(query.camera, query.interval, &ms);
        break;
      case QueryKind::kCount:
        scanned = count_from_store(store, query, result, ms);
        break;
      case QueryKind::kHeatmap:
        if (query.cell_size <= 0.0) break;
        scanned = heatmap_from_store(store, query, result, ms);
        break;
    }
    scanned += refs.size();
    result.detections.reserve(refs.size());
    for (DetectionRef ref : refs) result.detections.push_back(store.get(ref));
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
