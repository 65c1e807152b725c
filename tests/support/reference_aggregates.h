// Reference aggregates over DetectionStores, for differential tests.
//
// These are the map-based count, group-by and heatmap paths that
// AggregateFold and the sorted-pair ResultMerger replaced: each partition
// answers into its own std::map (a dense grid folded into the map, or
// per-row map inserts for grids too large to hold densely), and fragments
// merge by summing map entries. Wire pairs decode by summing into a map,
// so any pair order and any repeated key is accepted.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/filter_kernel.h"
#include "index/detection_store.h"
#include "query/query.h"
#include "query/result.h"

namespace stcn {

using CountMap = std::map<std::uint64_t, std::uint64_t>;

/// One partition's count, group-by or heatmap answer as a map.
[[nodiscard]] inline CountMap reference_aggregate(const DetectionStore& store,
                                                  const Query& query) {
  CountMap out;
  bool heatmap = query.kind == QueryKind::kHeatmap;
  if (heatmap && query.cell_size <= 0.0) return out;
  bool by_camera = !heatmap && query.group_by == GroupBy::kCamera;
  if (query.region.is_empty() || query.interval.empty()) {
    if (!heatmap && !by_camera) out[0] = 0;
    return out;
  }
  MorselStats ms;
  std::vector<std::uint32_t> sel(kDetectionBlockRows);
  std::size_t cols = query.heatmap_cols();
  std::size_t rows = query.heatmap_rows();
  constexpr std::size_t kMaxDenseCells = std::size_t{1} << 22;
  bool dense = cols > 0 && rows > 0 && cols <= kMaxDenseCells / rows;
  std::vector<std::uint64_t> cells(heatmap && dense ? cols * rows : 0, 0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    std::uint32_t n = store.scan_range_block(b, query.region, query.interval,
                                             sel.data(), ms);
    total += n;
    if (n == 0) continue;
    DetectionStore::BlockColumnsView v = store.block_columns(b);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t row = sel[i] - v.base;
      if (by_camera) {
        ++out[v.cameras[row]];
      } else if (heatmap && dense) {
        ++cells[query.heatmap_cell(Point{v.xs[row], v.ys[row]})];
      } else if (heatmap) {
        ++out[query.heatmap_cell(Point{v.xs[row], v.ys[row]})];
      }
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c] != 0) out[c] += cells[c];
  }
  if (!heatmap && !by_camera) out[0] = total;
  return out;
}

/// Sums fragment answers into one map, as the map-keyed merger did.
[[nodiscard]] inline CountMap reference_merge_counts(
    const std::vector<CountMap>& fragments) {
  CountMap out;
  for (const CountMap& f : fragments) {
    for (const auto& [key, n] : f) out[key] += n;
  }
  return out;
}

[[nodiscard]] inline CountPairs to_pairs(const CountMap& counts) {
  return CountPairs(counts.begin(), counts.end());
}

}  // namespace stcn
