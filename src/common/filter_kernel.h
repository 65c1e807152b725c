// Branch-free filter kernels over columnar data.
//
// The vectorized scan path evaluates predicates over whole 4096-row blocks
// ("morsels") instead of row-at-a-time callbacks. Each kernel walks one
// contiguous column and emits the surviving row ids into a `uint32_t`
// selection vector using the standard data-parallel compaction idiom
//
//   out[n] = i;  n += predicate(i);
//
// — an unconditional store plus a predicated increment, no branches in the
// loop body, so the compiler can vectorize the comparisons and the hot loop
// never mispredicts on selectivity transitions. `filter_*` kernels scan a
// full row range; `refine_*` kernels compact an existing selection vector
// in place, so multi-predicate evaluation runs the most selective predicate
// over the full morsel once and every later predicate only over survivors
// (selectivity-ordered evaluation, see DetectionBlockZone selectivity
// estimates).
//
// Aggregation kernels consume selection vectors directly: heatmap cells
// accumulate into a dense per-cell array (one multiply-free index
// computation + increment per row) instead of a per-row ordered-map insert.
// Decode-fused variants (suffix `_decode`) run the same compaction idiom
// directly over cold-tier FOR/quantized code arrays (common/codec.h): one
// pass decodes a morsel's column into caller-provided scratch *and* tests
// the predicate, so a cold block is never materialized wholesale before
// filtering. Their `refine_*_decode` counterparts gather-decode only the
// survivors of an earlier predicate. All fused kernels work in block-local
// row ids [0, n); callers translate to global ids with offset_sel once at
// the end.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/codec.h"
#include "common/geometry.h"

namespace stcn {

/// Emits every row id in [first, last) — the fully-inside zone-map fast
/// path, where predicate evaluation is skipped entirely.
inline std::uint32_t fill_identity(std::uint32_t first, std::uint32_t last,
                                   std::uint32_t* out) {
  std::uint32_t n = 0;
  for (std::uint32_t i = first; i < last; ++i) out[n++] = i;
  return n;
}

/// Rows in [first, last) with times[i] in [t0, t1).
inline std::uint32_t filter_time(const std::int64_t* times,
                                 std::uint32_t first, std::uint32_t last,
                                 std::int64_t t0, std::int64_t t1,
                                 std::uint32_t* out) {
  std::uint32_t n = 0;
  for (std::uint32_t i = first; i < last; ++i) {
    out[n] = i;
    n += static_cast<std::uint32_t>(times[i] >= t0) &
         static_cast<std::uint32_t>(times[i] < t1);
  }
  return n;
}

/// In-place compaction of `sel` to rows with times in [t0, t1).
inline std::uint32_t refine_time(const std::int64_t* times, std::int64_t t0,
                                 std::int64_t t1, std::uint32_t* sel,
                                 std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    sel[m] = row;
    m += static_cast<std::uint32_t>(times[row] >= t0) &
         static_cast<std::uint32_t>(times[row] < t1);
  }
  return m;
}

/// Rows in [first, last) with (xs[i], ys[i]) inside `region` (half-open max
/// edges, matching Rect::contains).
inline std::uint32_t filter_rect(const double* xs, const double* ys,
                                 std::uint32_t first, std::uint32_t last,
                                 const Rect& region, std::uint32_t* out) {
  std::uint32_t n = 0;
  for (std::uint32_t i = first; i < last; ++i) {
    out[n] = i;
    n += static_cast<std::uint32_t>(xs[i] >= region.min.x) &
         static_cast<std::uint32_t>(xs[i] < region.max.x) &
         static_cast<std::uint32_t>(ys[i] >= region.min.y) &
         static_cast<std::uint32_t>(ys[i] < region.max.y);
  }
  return n;
}

/// In-place compaction of `sel` to rows inside `region`.
inline std::uint32_t refine_rect(const double* xs, const double* ys,
                                 const Rect& region, std::uint32_t* sel,
                                 std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    sel[m] = row;
    m += static_cast<std::uint32_t>(xs[row] >= region.min.x) &
         static_cast<std::uint32_t>(xs[row] < region.max.x) &
         static_cast<std::uint32_t>(ys[row] >= region.min.y) &
         static_cast<std::uint32_t>(ys[row] < region.max.y);
  }
  return m;
}

/// Rows in [first, last) within distance `radius` of `center` (inclusive,
/// matching Circle::contains).
inline std::uint32_t filter_circle(const double* xs, const double* ys,
                                   std::uint32_t first, std::uint32_t last,
                                   Point center, double radius,
                                   std::uint32_t* out) {
  double r2 = radius * radius;
  std::uint32_t n = 0;
  for (std::uint32_t i = first; i < last; ++i) {
    double dx = xs[i] - center.x;
    double dy = ys[i] - center.y;
    out[n] = i;
    n += static_cast<std::uint32_t>(dx * dx + dy * dy <= r2);
  }
  return n;
}

/// In-place compaction of `sel` to rows within the circle.
inline std::uint32_t refine_circle(const double* xs, const double* ys,
                                   Point center, double radius,
                                   std::uint32_t* sel, std::uint32_t n) {
  double r2 = radius * radius;
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    double dx = xs[row] - center.x;
    double dy = ys[row] - center.y;
    sel[m] = row;
    m += static_cast<std::uint32_t>(dx * dx + dy * dy <= r2);
  }
  return m;
}

/// Rows in [first, last) whose id equals `value` (camera or object column).
inline std::uint32_t filter_eq(const std::uint64_t* ids, std::uint32_t first,
                               std::uint32_t last, std::uint64_t value,
                               std::uint32_t* out) {
  std::uint32_t n = 0;
  for (std::uint32_t i = first; i < last; ++i) {
    out[n] = i;
    n += static_cast<std::uint32_t>(ids[i] == value);
  }
  return n;
}

/// In-place compaction of `sel` to rows whose id equals `value`.
inline std::uint32_t refine_eq(const std::uint64_t* ids, std::uint64_t value,
                               std::uint32_t* sel, std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    sel[m] = row;
    m += static_cast<std::uint32_t>(ids[row] == value);
  }
  return m;
}

// ------------------------------------------------- decode-fused kernels

/// Adds `base` to the first `n` selection entries — translates block-local
/// row ids from the fused kernels into global row ids.
inline void offset_sel(std::uint32_t* sel, std::uint32_t n,
                       std::uint32_t base) {
  for (std::uint32_t i = 0; i < n; ++i) sel[i] += base;
}

/// Decode+filter fused over a FOR-packed time column: decodes all `n` rows
/// into `times` and emits local ids of rows in [t0, t1).
template <std::size_t W>
inline std::uint32_t filter_time_decode(const std::uint8_t* codes,
                                        std::int64_t base, std::uint32_t n,
                                        std::int64_t t0, std::int64_t t1,
                                        std::int64_t* times,
                                        std::uint32_t* sel) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int64_t t =
        base + static_cast<std::int64_t>(
                   load_code<W>(codes + static_cast<std::size_t>(i) * W));
    times[i] = t;
    sel[m] = i;
    m += static_cast<std::uint32_t>(t >= t0) &
         static_cast<std::uint32_t>(t < t1);
  }
  return m;
}

/// Gather-decode refinement on a FOR-packed time column: compacts `sel`
/// (local ids) to rows whose decoded time lies in [t0, t1).
template <std::size_t W>
inline std::uint32_t refine_time_decode(const std::uint8_t* codes,
                                        std::int64_t base, std::int64_t t0,
                                        std::int64_t t1, std::uint32_t* sel,
                                        std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    std::int64_t t =
        base + static_cast<std::int64_t>(
                   load_code<W>(codes + static_cast<std::size_t>(row) * W));
    sel[m] = row;
    m += static_cast<std::uint32_t>(t >= t0) &
         static_cast<std::uint32_t>(t < t1);
  }
  return m;
}

/// Decode+filter fused over a pair of FOR-quantized position columns:
/// decodes x/y for all rows and emits local ids inside `region`. The
/// predicate reads the *decoded* doubles, so results agree bit-for-bit
/// with any later pass over the same scratch.
template <std::size_t WX, std::size_t WY>
inline std::uint32_t filter_rect_decode(const std::uint8_t* xc, double xbase,
                                        double xq, const std::uint8_t* yc,
                                        double ybase, double yq,
                                        std::uint32_t n, const Rect& region,
                                        double* xs, double* ys,
                                        std::uint32_t* sel) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    double x = xbase + xq * static_cast<double>(load_code<WX>(
                                xc + static_cast<std::size_t>(i) * WX));
    double y = ybase + yq * static_cast<double>(load_code<WY>(
                                yc + static_cast<std::size_t>(i) * WY));
    xs[i] = x;
    ys[i] = y;
    sel[m] = i;
    m += static_cast<std::uint32_t>(x >= region.min.x) &
         static_cast<std::uint32_t>(x < region.max.x) &
         static_cast<std::uint32_t>(y >= region.min.y) &
         static_cast<std::uint32_t>(y < region.max.y);
  }
  return m;
}

template <std::size_t WX, std::size_t WY>
inline std::uint32_t refine_rect_decode(const std::uint8_t* xc, double xbase,
                                        double xq, const std::uint8_t* yc,
                                        double ybase, double yq,
                                        const Rect& region, std::uint32_t* sel,
                                        std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    double x = xbase + xq * static_cast<double>(load_code<WX>(
                                xc + static_cast<std::size_t>(row) * WX));
    double y = ybase + yq * static_cast<double>(load_code<WY>(
                                yc + static_cast<std::size_t>(row) * WY));
    sel[m] = row;
    m += static_cast<std::uint32_t>(x >= region.min.x) &
         static_cast<std::uint32_t>(x < region.max.x) &
         static_cast<std::uint32_t>(y >= region.min.y) &
         static_cast<std::uint32_t>(y < region.max.y);
  }
  return m;
}

template <std::size_t WX, std::size_t WY>
inline std::uint32_t filter_circle_decode(const std::uint8_t* xc,
                                          double xbase, double xq,
                                          const std::uint8_t* yc,
                                          double ybase, double yq,
                                          std::uint32_t n, Point center,
                                          double radius, double* xs,
                                          double* ys, std::uint32_t* sel) {
  double r2 = radius * radius;
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    double x = xbase + xq * static_cast<double>(load_code<WX>(
                                xc + static_cast<std::size_t>(i) * WX));
    double y = ybase + yq * static_cast<double>(load_code<WY>(
                                yc + static_cast<std::size_t>(i) * WY));
    xs[i] = x;
    ys[i] = y;
    double dx = x - center.x;
    double dy = y - center.y;
    sel[m] = i;
    m += static_cast<std::uint32_t>(dx * dx + dy * dy <= r2);
  }
  return m;
}

template <std::size_t WX, std::size_t WY>
inline std::uint32_t refine_circle_decode(const std::uint8_t* xc,
                                          double xbase, double xq,
                                          const std::uint8_t* yc,
                                          double ybase, double yq,
                                          Point center, double radius,
                                          std::uint32_t* sel,
                                          std::uint32_t n) {
  double r2 = radius * radius;
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    double x = xbase + xq * static_cast<double>(load_code<WX>(
                                xc + static_cast<std::size_t>(row) * WX));
    double y = ybase + yq * static_cast<double>(load_code<WY>(
                                yc + static_cast<std::size_t>(row) * WY));
    double dx = x - center.x;
    double dy = y - center.y;
    sel[m] = row;
    m += static_cast<std::uint32_t>(dx * dx + dy * dy <= r2);
  }
  return m;
}

/// Equality filter straight in dictionary-code space (no decode at all):
/// emits local ids of rows whose packed code equals `target`. Exact for
/// dictionary columns, since the value↔code mapping is a bijection.
template <std::size_t W>
inline std::uint32_t filter_code_eq(const std::uint8_t* codes,
                                    std::uint64_t target, std::uint32_t n,
                                    std::uint32_t* sel) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sel[m] = i;
    m += static_cast<std::uint32_t>(
        load_code<W>(codes + static_cast<std::size_t>(i) * W) == target);
  }
  return m;
}

template <std::size_t W>
inline std::uint32_t refine_code_eq(const std::uint8_t* codes,
                                    std::uint64_t target, std::uint32_t* sel,
                                    std::uint32_t n) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i];
    sel[m] = row;
    m += static_cast<std::uint32_t>(
        load_code<W>(codes + static_cast<std::size_t>(row) * W) == target);
  }
  return m;
}

// ---------------------------------------------------------- aggregation

/// Accumulates heatmap cell counts for the selected rows into the dense
/// `cells` array (size cols × rows of the heatmap grid). `xs`/`ys` are
/// block-local column views whose element 0 is global row `base`; `sel`
/// holds global row ids. Positions lie inside the heatmap region (the
/// preceding filter), but one within rounding of its far edge can divide
/// out to `cols` or `rows`; it is clamped into the last column or row.
/// Divides by `cell` (rather than multiplying by a precomputed reciprocal)
/// so cell assignment is bit-identical to the scalar Query::heatmap_cell.
inline void heatmap_accumulate(const double* xs, const double* ys,
                               std::uint32_t base, const std::uint32_t* sel,
                               std::uint32_t n, Point origin, double cell,
                               std::uint64_t cols, std::uint64_t rows,
                               std::uint64_t* cells) {
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = sel[i] - base;
    auto cx = static_cast<std::uint64_t>((xs[row] - origin.x) / cell);
    auto cy = static_cast<std::uint64_t>((ys[row] - origin.y) / cell);
    ++cells[std::min(cy, rows - 1) * cols + std::min(cx, cols - 1)];
  }
}

}  // namespace stcn
