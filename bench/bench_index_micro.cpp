// E10 — Index micro-benchmarks (table "index microbench").
//
// Three parts:
//  * A before/after "columnar" section comparing the block-skipping
//    DetectionStore scan against a retained reference scan over the
//    array-of-structs layout it replaced, plus the batched appearance
//    kernel against the scalar per-pair dot. Emits speedups and the
//    blocks_skipped_ratio into BENCH_index_micro.json (--quick runs only
//    the report sections, at reduced size, for CI).
//  * A "vectorized" section comparing the morsel-driven vectorized scan
//    and dense heatmap aggregation against the per-row scalar paths they
//    replaced (vectorized_scan_speedup / heatmap_speedup). Each side here,
//    and each of the compression section's hot and cold scans, is the
//    median of interleaved repetitions, so a burst of host load skews one
//    repetition of both sides rather than one side's only timing.
//  * google-benchmark timings of the substrate data structures: the
//    columnar store's range scan and best-first k-NN at several
//    selectivities, its camera-window scan, trajectory lookup, and the
//    wire codecs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/appearance_kernel.h"
#include "common/filter_kernel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/protocol.h"
#include "index/detection_store.h"
#include "index/trajectory_store.h"
#include "obs/json.h"

namespace stcn {
namespace {

Detection random_detection(Rng& rng, std::uint64_t id) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1 + rng.uniform_index(100));
  d.object = ObjectId(1 + rng.uniform_index(500));
  d.time = TimePoint(rng.uniform_int(0, 600'000'000));
  d.position = {rng.uniform(0, 2000), rng.uniform(0, 2000)};
  d.appearance.values.resize(16);
  for (auto& v : d.appearance.values) v = static_cast<float>(rng.normal());
  d.appearance.normalize();
  return d;
}

struct Dataset {
  DetectionStore store;
  std::vector<DetectionRef> refs;
  std::vector<Detection> raw;

  explicit Dataset(std::size_t n) {
    Rng rng(7);
    for (std::uint64_t i = 1; i <= n; ++i) {
      Detection d = random_detection(rng, i);
      raw.push_back(d);
      refs.push_back(store.append(d));
    }
  }
};

Dataset& dataset() {
  static Dataset ds(100'000);
  return ds;
}

void BM_StoreRangeQuery(benchmark::State& state) {
  Dataset& ds = dataset();
  double half = static_cast<double>(state.range(0));
  Rng rng(9);
  for (auto _ : state) {
    Rect region = Rect::centered(
        {rng.uniform(0, 2000), rng.uniform(0, 2000)}, half);
    auto out = ds.store.scan_range(region, TimeInterval::all());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_StoreRangeQuery)->Arg(25)->Arg(100)->Arg(400)->Arg(1000);

void BM_StoreKnn(benchmark::State& state) {
  Dataset& ds = dataset();
  auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  for (auto _ : state) {
    Point center{rng.uniform(0, 2000), rng.uniform(0, 2000)};
    auto out = ds.store.scan_knn(center, k, TimeInterval::all());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_StoreKnn)->Arg(1)->Arg(10)->Arg(100);

void BM_StoreCameraWindow(benchmark::State& state) {
  Dataset& ds = dataset();
  Rng rng(12);
  for (auto _ : state) {
    CameraId cam(1 + rng.uniform_index(100));
    TimePoint begin(rng.uniform_int(0, 500'000'000));
    auto out = ds.store.scan_camera(
        cam, {begin, begin + Duration::seconds(60)});
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_StoreCameraWindow);

void BM_TrajectoryQuery(benchmark::State& state) {
  Dataset& ds = dataset();
  TrajectoryStore trajectories;
  for (DetectionRef r : ds.refs) trajectories.insert(ds.store, r);
  Rng rng(13);
  for (auto _ : state) {
    ObjectId obj(1 + rng.uniform_index(500));
    auto out = trajectories.query(obj, TimeInterval::all());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_TrajectoryQuery);

void BM_DetectionEncode(benchmark::State& state) {
  Dataset& ds = dataset();
  std::size_t i = 0;
  for (auto _ : state) {
    BinaryWriter w;
    serialize(w, ds.raw[i++ % ds.raw.size()]);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_DetectionEncode);

void BM_DetectionDecode(benchmark::State& state) {
  Dataset& ds = dataset();
  BinaryWriter w;
  serialize(w, ds.raw[0]);
  auto bytes = w.take();
  for (auto _ : state) {
    BinaryReader r(bytes);
    Detection d = deserialize_detection(r);
    benchmark::DoNotOptimize(d.id);
  }
}
BENCHMARK(BM_DetectionDecode);

// ------------------------------------------------------ columnar section
//
// Before/after comparison against the layout the columnar store replaced:
// an array-of-structs vector<Detection> scanned record by record. The
// workload is selective range queries (narrow time window over
// near-time-ordered ingest), where zone maps skip most blocks wholesale.

struct ColumnarReport {
  double ref_ms = 0;
  double col_ms = 0;
  double scan_speedup = 0;
  double blocks_skipped_ratio = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  double kernel_scalar_ms = 0;
  double kernel_batched_ms = 0;
  double kernel_speedup = 0;
  std::size_t rows = 0;
  std::size_t queries = 0;
  std::size_t matched = 0;
};

ColumnarReport run_columnar_section() {
  ColumnarReport rep;
  rep.rows = bench::quick() ? 16 * kDetectionBlockRows
                            : 64 * kDetectionBlockRows;
  rep.queries = bench::quick() ? 200 : 500;
  const std::int64_t time_span = 600'000'000;  // 10 simulated minutes
  const std::int64_t step = time_span / static_cast<std::int64_t>(rep.rows);

  // Near-time-ordered ingest (the realistic arrival pattern: bounded
  // reordering from network jitter), random positions.
  Rng rng(7);
  DetectionStore store;
  std::vector<Detection> reference;  // the pre-change AoS layout, retained
  reference.reserve(rep.rows);
  for (std::size_t i = 0; i < rep.rows; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1 + rng.uniform_index(100));
    d.object = ObjectId(1 + rng.uniform_index(500));
    d.time = TimePoint(static_cast<std::int64_t>(i) * step +
                       rng.uniform_int(0, 4 * step));
    d.position = {rng.uniform(0, 2000), rng.uniform(0, 2000)};
    d.appearance.values.resize(16);
    for (auto& v : d.appearance.values) v = static_cast<float>(rng.normal());
    d.appearance.normalize();
    reference.push_back(d);
    (void)store.append(d);
  }

  // Selective workload: ~1% time window, 400 m square — the "find what
  // happened near X in that minute" query shape.
  std::vector<Rect> regions;
  std::vector<TimeInterval> windows;
  Rng qrng(21);
  for (std::size_t q = 0; q < rep.queries; ++q) {
    regions.push_back(Rect::centered(
        {qrng.uniform(200, 1800), qrng.uniform(200, 1800)}, 200));
    std::int64_t begin = qrng.uniform_int(0, time_span - time_span / 100);
    windows.push_back(
        {TimePoint(begin), TimePoint(begin + time_span / 100)});
  }

  // Before: naive reference scan over the AoS records.
  std::size_t ref_matched = 0;
  bench::WallTimer ref_timer;
  for (std::size_t q = 0; q < rep.queries; ++q) {
    for (const Detection& d : reference) {
      if (regions[q].contains(d.position) && windows[q].contains(d.time)) {
        ++ref_matched;
      }
    }
  }
  rep.ref_ms = ref_timer.elapsed_ms();

  // After: columnar scan with zone-map block skipping.
  std::size_t col_matched = 0;
  bench::WallTimer col_timer;
  for (std::size_t q = 0; q < rep.queries; ++q) {
    col_matched += store.scan_range(regions[q], windows[q]).size();
  }
  rep.col_ms = col_timer.elapsed_ms();
  if (col_matched != ref_matched) {
    std::fprintf(stderr, "MISMATCH: columnar %zu vs reference %zu\n",
                 col_matched, ref_matched);
  }
  rep.matched = col_matched;
  rep.scan_speedup = rep.col_ms > 0 ? rep.ref_ms / rep.col_ms : 0;
  rep.blocks_scanned = store.blocks_scanned();
  rep.blocks_skipped = store.blocks_skipped();
  std::uint64_t visited = rep.blocks_scanned + rep.blocks_skipped;
  rep.blocks_skipped_ratio =
      visited > 0 ? static_cast<double>(rep.blocks_skipped) /
                        static_cast<double>(visited)
                  : 0;

  // Kernel before/after: scalar per-pair similarity vs one batched pass
  // over the candidates (the re-id scoring hot loop).
  const std::size_t dim = 16;
  const std::size_t rounds = bench::quick() ? 20 : 50;
  AppearanceFeature probe = reference[0].appearance;
  double scalar_sum = 0;
  bench::WallTimer scalar_timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Detection& d : reference) {
      scalar_sum += probe.similarity(d.appearance);
    }
  }
  rep.kernel_scalar_ms = scalar_timer.elapsed_ms();
  std::vector<const float*> ptrs;
  ptrs.reserve(reference.size());
  for (const Detection& d : reference) {
    ptrs.push_back(d.appearance.values.data());
  }
  std::vector<double> sims(reference.size());
  double batched_sum = 0;
  bench::WallTimer batched_timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    appearance_score_batch(probe.values.data(), dim, ptrs.data(),
                           ptrs.size(), sims.data());
    for (double s : sims) batched_sum += s;
  }
  rep.kernel_batched_ms = batched_timer.elapsed_ms();
  if (std::abs(scalar_sum - batched_sum) >
      1e-6 * static_cast<double>(rounds * reference.size())) {
    std::fprintf(stderr, "KERNEL MISMATCH: %f vs %f\n", scalar_sum,
                 batched_sum);
  }
  rep.kernel_speedup = rep.kernel_batched_ms > 0
                           ? rep.kernel_scalar_ms / rep.kernel_batched_ms
                           : 0;
  return rep;
}

// ---------------------------------------------------- vectorized section
//
// Before/after comparison inside the columnar store itself: the per-row
// scalar block scan this change replaced (retained as scan_range_scalar,
// the differential-test reference) against the morsel-driven vectorized
// scan, and the old per-row std::map heatmap aggregation (the executor's
// previous behaviour: materialize refs, then tree-insert per row) against
// the selection-vector dense-grid aggregation the executor now uses.
//
// The scan workload is zone-selective (time windows prune ~3/4 of blocks
// over near-time-ordered ingest) with an unpredictable spatial residue,
// so surviving morsels split between the fully-inside fast path and the
// branch-free filter kernels.

/// Interleaved repetitions per side in the vectorized section.
constexpr std::size_t kRepetitions = 7;

struct VectorizedReport {
  std::size_t rows = 0;
  std::size_t scan_queries = 0;
  std::size_t heatmap_queries = 0;
  std::size_t matched = 0;
  double scalar_scan_ms = 0;
  double vectorized_scan_ms = 0;
  double vectorized_scan_speedup = 0;
  double heatmap_map_ms = 0;
  double heatmap_dense_ms = 0;
  double heatmap_speedup = 0;
  std::uint64_t rows_evaluated = 0;
  std::uint64_t rows_selected = 0;
  std::uint64_t zone_fast_path = 0;
  std::uint64_t morsels = 0;
  std::uint64_t heatmap_rows = 0;
};

VectorizedReport run_vectorized_section() {
  VectorizedReport rep;
  const std::size_t blocks = bench::quick() ? 16 : 64;
  rep.rows = blocks * kDetectionBlockRows;
  rep.scan_queries = bench::quick() ? 150 : 400;
  rep.heatmap_queries = bench::quick() ? 20 : 50;
  const std::int64_t time_span = 600'000'000;
  const std::int64_t step = time_span / static_cast<std::int64_t>(rep.rows);
  const Rect world{{0, 0}, {2000, 2000}};

  // Same near-time-ordered arrival pattern as the columnar section; the
  // scan path never touches appearance features, so none are generated.
  Rng rng(7);
  DetectionStore store;
  for (std::size_t i = 0; i < rep.rows; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1 + rng.uniform_index(100));
    d.object = ObjectId(1 + rng.uniform_index(500));
    d.time = TimePoint(static_cast<std::int64_t>(i) * step +
                       rng.uniform_int(0, 4 * step));
    d.position = {rng.uniform(0, 2000), rng.uniform(0, 2000)};
    (void)store.append(d);
  }

  // Zone-selective scan workload: time windows covering 1/4 of the span,
  // so zone maps skip ~3/4 of blocks either way. Two in three queries
  // carry a random sub-rect whose per-row pass rate (~10–80%) the scalar
  // scan's per-row branch cannot predict — the selectivity regime the
  // branch-free kernels serve — and every third query is spatially
  // unbounded, exercising the fully-inside fast path.
  const std::int64_t width = time_span / 4;
  std::vector<Rect> regions;
  std::vector<TimeInterval> windows;
  Rng qrng(33);
  for (std::size_t q = 0; q < rep.scan_queries; ++q) {
    std::int64_t begin = qrng.uniform_int(0, time_span - width);
    windows.push_back({TimePoint(begin), TimePoint(begin + width)});
    if (q % 3 == 0) {
      regions.push_back(world);
    } else {
      regions.push_back(Rect::centered(
          {qrng.uniform(400, 1600), qrng.uniform(400, 1600)},
          qrng.uniform(300, 900)));
    }
  }
  const std::size_t warmup = std::min<std::size_t>(8, rep.scan_queries);
  for (std::size_t q = 0; q < warmup; ++q) {
    (void)store.scan_range_scalar(regions[q], windows[q]).size();
    (void)store.scan_range(regions[q], windows[q]).size();
  }

  // Before: the per-row scalar block scan (pre-change code path). After:
  // the morsel-driven vectorized scan. Repetitions alternate the two; the
  // first one also supplies the match counts and morsel accounting.
  QuantileRecorder scalar_ms;
  QuantileRecorder vec_ms;
  std::size_t scalar_matched = 0;
  std::size_t vec_matched = 0;
  MorselStats ms;
  for (std::size_t r = 0; r < kRepetitions; ++r) {
    std::size_t matched = 0;
    bench::WallTimer scalar_timer;
    for (std::size_t q = 0; q < rep.scan_queries; ++q) {
      matched += store.scan_range_scalar(regions[q], windows[q]).size();
    }
    scalar_ms.add(scalar_timer.elapsed_ms());
    if (r == 0) scalar_matched = matched;

    matched = 0;
    MorselStats pass;
    bench::WallTimer vec_timer;
    for (std::size_t q = 0; q < rep.scan_queries; ++q) {
      matched += store.scan_range(regions[q], windows[q], &pass).size();
    }
    vec_ms.add(vec_timer.elapsed_ms());
    if (r == 0) {
      vec_matched = matched;
      ms = pass;
    }
  }
  rep.scalar_scan_ms = scalar_ms.median();
  rep.vectorized_scan_ms = vec_ms.median();
  if (vec_matched != scalar_matched) {
    std::fprintf(stderr, "VECTORIZED MISMATCH: %zu vs scalar %zu\n",
                 vec_matched, scalar_matched);
  }
  rep.matched = vec_matched;
  rep.vectorized_scan_speedup =
      rep.vectorized_scan_ms > 0 ? rep.scalar_scan_ms / rep.vectorized_scan_ms
                                 : 0;
  rep.rows_evaluated = ms.rows_evaluated;
  rep.rows_selected = ms.rows_selected;
  rep.zone_fast_path = ms.zone_fast_path;
  rep.morsels = ms.morsels;

  // Heatmap workload: broad aggregations (full world, 25% time windows)
  // into a 40x40 cell grid — the query shape the dense selection-vector
  // aggregation serves.
  const double cell = 50.0;
  const std::uint64_t cols = 40;
  const std::uint64_t grid_rows = 40;
  std::vector<TimeInterval> hwindows;
  for (std::size_t q = 0; q < rep.heatmap_queries; ++q) {
    std::int64_t begin = qrng.uniform_int(0, time_span - time_span / 4);
    hwindows.push_back({TimePoint(begin), TimePoint(begin + time_span / 4)});
  }
  std::span<const double> xs = store.x_column();
  std::span<const double> ys = store.y_column();

  // Before: materialize refs, then per-row tree inserts into a std::map
  // keyed by cell (the executor's previous aggregation). After:
  // block-granular scan into selection vectors, accumulated into a dense
  // cell grid, folded to the sparse result at the end. Interleaved
  // repetitions as above; every repetition checks parity.
  bool heatmap_parity = true;
  std::vector<std::uint64_t> dense(cols * grid_rows);
  std::uint32_t sel[kDetectionBlockRows];
  QuantileRecorder map_ms;
  QuantileRecorder dense_ms;
  for (std::size_t r = 0; r < kRepetitions; ++r) {
    std::vector<std::map<std::uint64_t, std::uint64_t>> map_results;
    bench::WallTimer map_timer;
    for (std::size_t q = 0; q < rep.heatmap_queries; ++q) {
      std::map<std::uint64_t, std::uint64_t> counts;
      for (DetectionRef ref : store.scan_range_scalar(world, hwindows[q])) {
        std::size_t row = to_index(ref);
        auto cx = static_cast<std::uint64_t>(xs[row] / cell);
        auto cy = static_cast<std::uint64_t>(ys[row] / cell);
        ++counts[cy * cols + cx];
      }
      map_results.push_back(std::move(counts));
    }
    map_ms.add(map_timer.elapsed_ms());

    std::uint64_t heatmap_rows = 0;
    bench::WallTimer dense_timer;
    for (std::size_t q = 0; q < rep.heatmap_queries; ++q) {
      std::fill(dense.begin(), dense.end(), 0);
      MorselStats hms;
      for (std::size_t b = 0; b < store.block_count(); ++b) {
        std::uint32_t n =
            store.scan_range_block(b, world, hwindows[q], sel, hms);
        heatmap_accumulate(xs.data(), ys.data(), 0, sel, n, {0, 0}, cell,
                           cols, dense.data());
      }
      std::map<std::uint64_t, std::uint64_t> counts;
      for (std::uint64_t c = 0; c < dense.size(); ++c) {
        if (dense[c] != 0) {
          counts[c] = dense[c];
          heatmap_rows += dense[c];
        }
      }
      heatmap_parity = heatmap_parity && counts == map_results[q];
    }
    dense_ms.add(dense_timer.elapsed_ms());
    rep.heatmap_rows = heatmap_rows;
  }
  rep.heatmap_map_ms = map_ms.median();
  rep.heatmap_dense_ms = dense_ms.median();
  if (!heatmap_parity) {
    std::fprintf(stderr, "HEATMAP MISMATCH: dense != map aggregation\n");
  }
  rep.heatmap_speedup = rep.heatmap_dense_ms > 0
                            ? rep.heatmap_map_ms / rep.heatmap_dense_ms
                            : 0;
  return rep;
}

// --------------------------------------------------- compression section
//
// The tiered cold path: how much smaller a sealed block gets once encoded
// (FOR/dictionary/quantized columns + int8 embeddings), what decode-fused
// scans cost relative to the same scan over hot columns, and what the int8
// appearance kernel buys over decode-to-float + float dot — with its error
// against the exact float scores and the documented bound those errors
// must stay inside.

struct CompressionReport {
  std::size_t rows = 0;
  std::size_t dim = 0;
  double raw_bytes_per_row = 0;
  double cold_bytes_per_row = 0;
  double compression_ratio = 0;
  std::size_t scan_queries = 0;
  std::size_t matched = 0;
  double hot_scan_ms = 0;
  double cold_scan_ms = 0;
  double cold_hot_scan_ratio = 0;
  std::uint64_t cold_blocks_scanned = 0;
  std::uint64_t cold_blocks_skipped = 0;
  std::uint64_t decode_morsels = 0;
  double float_score_ms = 0;      // decode embeddings, then float dots
  double quantized_score_ms = 0;  // int8 dots on the stored codes
  double quantized_speedup = 0;
  double quantized_rmse = 0;
  double quantized_max_err = 0;
  double quantized_bound = 0;  // largest documented per-pair bound
};

CompressionReport run_compression_section() {
  CompressionReport rep;
  const std::size_t blocks = bench::quick() ? 8 : 32;
  rep.rows = blocks * kDetectionBlockRows;
  rep.dim = 64;  // production re-id feature width; the embedding arena
                 // dominates the raw footprint at this dim
  rep.scan_queries = bench::quick() ? 150 : 400;
  const std::int64_t step = 1000;  // ~1 ms between detections
  const std::int64_t time_span = static_cast<std::int64_t>(rep.rows) * step;

  // Same near-time-ordered arrival as the sections above; one copy kept
  // raw for exact-score references, one store left hot, one demoted cold.
  Rng rng(7);
  std::vector<Detection> raws;
  raws.reserve(rep.rows);
  DetectionStore hot_store;
  DetectionStore cold_store;
  for (std::size_t i = 0; i < rep.rows; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1 + rng.uniform_index(100));
    d.object = ObjectId(1 + rng.uniform_index(500));
    d.time = TimePoint(static_cast<std::int64_t>(i) * step +
                       rng.uniform_int(0, 4 * step));
    d.position = {rng.uniform(0, 2000), rng.uniform(0, 2000)};
    d.confidence = rng.uniform(0, 1);
    d.appearance.values.resize(rep.dim);
    for (auto& v : d.appearance.values) v = static_cast<float>(rng.normal());
    d.appearance.normalize();
    raws.push_back(d);
    (void)hot_store.append(d);
    (void)cold_store.append(d);
  }
  cold_store.set_tier_config({true, 0});  // demote every sealed block
  if (cold_store.cold_block_count() != blocks) {
    std::fprintf(stderr, "COLD TIER MISMATCH: %zu blocks cold, want %zu\n",
                 cold_store.cold_block_count(), blocks);
  }

  // Footprint: live hot bytes per row (columns + embedding arena + zones,
  // no allocator slack) against the encoded block bytes per row.
  double raw_live =
      static_cast<double>(rep.rows) * (8.0 * sizeof(std::uint64_t) +
                                       static_cast<double>(rep.dim) *
                                           sizeof(float)) +
      static_cast<double>(hot_store.block_count() *
                          sizeof(DetectionBlockZone));
  rep.raw_bytes_per_row = raw_live / static_cast<double>(rep.rows);
  rep.cold_bytes_per_row = static_cast<double>(cold_store.compressed_bytes()) /
                           static_cast<double>(rep.rows);
  rep.compression_ratio = rep.raw_bytes_per_row / rep.cold_bytes_per_row;

  // Selective scans (~1% time window, 400 m square) over identical zone
  // maps: the cold store pays decode-fused kernels on the blocks that
  // survive skipping, the hot store scans its columns directly.
  std::vector<Rect> regions;
  std::vector<TimeInterval> windows;
  Rng qrng(21);
  for (std::size_t q = 0; q < rep.scan_queries; ++q) {
    regions.push_back(Rect::centered(
        {qrng.uniform(200, 1800), qrng.uniform(200, 1800)}, 200));
    std::int64_t begin = qrng.uniform_int(0, time_span - time_span / 100);
    windows.push_back(
        {TimePoint(begin), TimePoint(begin + time_span / 100)});
  }
  const std::size_t warmup = std::min<std::size_t>(8, rep.scan_queries);
  for (std::size_t q = 0; q < warmup; ++q) {
    (void)hot_store.scan_range(regions[q], windows[q]).size();
    (void)cold_store.scan_range(regions[q], windows[q]).size();
  }
  // Interleaved repetitions as in the vectorized section; the first one
  // also supplies the match counts and cold-block accounting.
  QuantileRecorder hot_ms;
  QuantileRecorder cold_ms;
  std::size_t hot_matched = 0;
  std::size_t cold_matched = 0;
  MorselStats ms;
  for (std::size_t r = 0; r < kRepetitions; ++r) {
    std::size_t matched = 0;
    bench::WallTimer hot_timer;
    for (std::size_t q = 0; q < rep.scan_queries; ++q) {
      matched += hot_store.scan_range(regions[q], windows[q]).size();
    }
    hot_ms.add(hot_timer.elapsed_ms());
    if (r == 0) hot_matched = matched;

    matched = 0;
    MorselStats pass;
    bench::WallTimer cold_timer;
    for (std::size_t q = 0; q < rep.scan_queries; ++q) {
      matched += cold_store.scan_range(regions[q], windows[q], &pass).size();
    }
    cold_ms.add(cold_timer.elapsed_ms());
    if (r == 0) {
      cold_matched = matched;
      ms = pass;
    }
  }
  rep.hot_scan_ms = hot_ms.median();
  rep.cold_scan_ms = cold_ms.median();
  // Positions requantize at ~1 µm; a differing match count would mean a
  // detection sitting within that of a query border, which these random
  // queries cannot produce.
  if (cold_matched != hot_matched) {
    std::fprintf(stderr, "COLD SCAN MISMATCH: %zu vs hot %zu\n",
                 cold_matched, hot_matched);
  }
  rep.matched = cold_matched;
  rep.cold_hot_scan_ratio =
      rep.hot_scan_ms > 0 ? rep.cold_scan_ms / rep.hot_scan_ms : 0;
  rep.cold_blocks_scanned = ms.cold_blocks_scanned;
  rep.cold_blocks_skipped = ms.cold_blocks_skipped;
  rep.decode_morsels = ms.decode_morsels;

  // Appearance scoring on cold rows: the pre-change path decodes each
  // block's int8 arena back to floats and runs the float kernel; the
  // quantized path dots the stored codes directly (int8×int8 in int32,
  // closed-form cross terms).
  const std::size_t rounds = bench::quick() ? 10 : 25;
  const AppearanceFeature& probe = raws[0].appearance;
  std::vector<std::int8_t> probe_codes(rep.dim);
  EmbeddingQuantParams probe_q =
      quantize_embedding(probe.values.data(), rep.dim, probe_codes.data());
  std::vector<float> decoded(kDetectionBlockRows * rep.dim);
  std::vector<double> sims(kDetectionBlockRows);
  double float_sum = 0;
  bench::WallTimer float_timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const CompressedBlock& cb = cold_store.cold_block(b);
      for (std::uint32_t i = 0; i < cb.rows; ++i) {
        cb.decode_embedding(i, decoded.data() + i * rep.dim);
      }
      appearance_score_batch_contiguous(probe.values.data(), rep.dim,
                                        decoded.data(), cb.rows, sims.data());
      for (std::uint32_t i = 0; i < cb.rows; ++i) float_sum += sims[i];
    }
  }
  rep.float_score_ms = float_timer.elapsed_ms();

  double quant_sum = 0;
  bench::WallTimer quant_timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const CompressedBlock& cb = cold_store.cold_block(b);
      const std::int8_t* codes = cb.emb_codes.data();
      for (std::uint32_t i = 0; i < cb.rows; ++i) {
        quant_sum += quantized_dot(probe_codes.data(), probe_q,
                                   codes + cb.emb_begin(i),
                                   cb.quant_params(i), rep.dim);
      }
    }
  }
  rep.quantized_score_ms = quant_timer.elapsed_ms();
  rep.quantized_speedup = rep.quantized_score_ms > 0
                              ? rep.float_score_ms / rep.quantized_score_ms
                              : 0;
  if (std::abs(float_sum - quant_sum) >
      0.1 * static_cast<double>(rounds * rep.rows)) {
    std::fprintf(stderr, "QUANTIZED SUM DIVERGED: %f vs %f\n", quant_sum,
                 float_sum);
  }

  // Error accounting against the exact float dot on the ORIGINAL
  // (pre-quantization) vectors: every per-pair error must sit inside the
  // documented sound bound — that inequality is what makes prefilter +
  // float rescoring exact.
  double sq_err = 0;
  for (std::size_t i = 0; i < rep.rows; ++i) {
    std::size_t b = i / kDetectionBlockRows;
    auto row = static_cast<std::uint32_t>(i % kDetectionBlockRows);
    const CompressedBlock& cb = cold_store.cold_block(b);
    double exact = appearance_dot(probe.values.data(),
                                  raws[i].appearance.values.data(), rep.dim);
    EmbeddingQuantParams p = cb.quant_params(row);
    double approx =
        quantized_dot(probe_codes.data(), probe_q,
                      cb.emb_codes.data() + cb.emb_begin(row), p, rep.dim);
    double bound = quantized_dot_error_bound(probe_q, p, rep.dim);
    double err = std::abs(approx - exact);
    sq_err += err * err;
    rep.quantized_max_err = std::max(rep.quantized_max_err, err);
    rep.quantized_bound = std::max(rep.quantized_bound, bound);
    if (err > bound) {
      std::fprintf(stderr, "QUANTIZED BOUND VIOLATED: row %zu err %g > %g\n",
                   i, err, bound);
    }
  }
  rep.quantized_rmse = std::sqrt(sq_err / static_cast<double>(rep.rows));
  return rep;
}

void write_report(const ColumnarReport& rep, const VectorizedReport& vec,
                  const CompressionReport& comp) {
  bench::print_header("E10", "columnar store vs reference scan");
  std::printf("rows %zu, %zu selective range queries (%zu matches)\n",
              rep.rows, rep.queries, rep.matched);
  std::printf("  reference AoS scan : %9.2f ms\n", rep.ref_ms);
  std::printf("  columnar + zonemap : %9.2f ms   (%.1fx)\n", rep.col_ms,
              rep.scan_speedup);
  std::printf("  blocks scanned %llu / skipped %llu (ratio %.3f)\n",
              static_cast<unsigned long long>(rep.blocks_scanned),
              static_cast<unsigned long long>(rep.blocks_skipped),
              rep.blocks_skipped_ratio);
  std::printf("  kernel scalar %.2f ms vs batched %.2f ms (%.2fx)\n",
              rep.kernel_scalar_ms, rep.kernel_batched_ms,
              rep.kernel_speedup);

  bench::print_header("E10b", "vectorized morsel scan vs scalar block scan");
  std::printf("rows %zu, %zu zone-selective scans (%zu matches)\n", vec.rows,
              vec.scan_queries, vec.matched);
  std::printf("  (median of %zu interleaved repetitions per side)\n",
              kRepetitions);
  std::printf("  scalar block scan  : %9.2f ms\n", vec.scalar_scan_ms);
  std::printf("  vectorized morsels : %9.2f ms   (%.1fx)\n",
              vec.vectorized_scan_ms, vec.vectorized_scan_speedup);
  std::printf("  morsels %llu, fast-path %llu, evaluated %llu / selected %llu\n",
              static_cast<unsigned long long>(vec.morsels),
              static_cast<unsigned long long>(vec.zone_fast_path),
              static_cast<unsigned long long>(vec.rows_evaluated),
              static_cast<unsigned long long>(vec.rows_selected));
  std::printf("  heatmap map %.2f ms vs dense %.2f ms (%.1fx, %zu queries)\n",
              vec.heatmap_map_ms, vec.heatmap_dense_ms, vec.heatmap_speedup,
              vec.heatmap_queries);

  obs::JsonWriter w;
  w.begin_object();
  w.key("rows");
  w.value(static_cast<double>(rep.rows));
  w.key("queries");
  w.value(static_cast<double>(rep.queries));
  w.key("matched");
  w.value(static_cast<double>(rep.matched));
  w.key("reference_scan_ms");
  w.value(rep.ref_ms);
  w.key("columnar_scan_ms");
  w.value(rep.col_ms);
  w.key("scan_speedup");
  w.value(rep.scan_speedup);
  w.key("blocks_scanned");
  w.value(static_cast<double>(rep.blocks_scanned));
  w.key("blocks_skipped");
  w.value(static_cast<double>(rep.blocks_skipped));
  w.key("blocks_skipped_ratio");
  w.value(rep.blocks_skipped_ratio);
  w.key("kernel_scalar_ms");
  w.value(rep.kernel_scalar_ms);
  w.key("kernel_batched_ms");
  w.value(rep.kernel_batched_ms);
  w.key("kernel_speedup");
  w.value(rep.kernel_speedup);
  w.end_object();

  obs::JsonWriter vw;
  vw.begin_object();
  vw.key("rows");
  vw.value(static_cast<double>(vec.rows));
  vw.key("scan_queries");
  vw.value(static_cast<double>(vec.scan_queries));
  vw.key("matched");
  vw.value(static_cast<double>(vec.matched));
  vw.key("repetitions");
  vw.value(static_cast<double>(kRepetitions));
  vw.key("scalar_scan_ms");
  vw.value(vec.scalar_scan_ms);
  vw.key("vectorized_scan_ms");
  vw.value(vec.vectorized_scan_ms);
  vw.key("vectorized_scan_speedup");
  vw.value(vec.vectorized_scan_speedup);
  vw.key("morsels");
  vw.value(static_cast<double>(vec.morsels));
  vw.key("zone_fast_path");
  vw.value(static_cast<double>(vec.zone_fast_path));
  vw.key("rows_evaluated");
  vw.value(static_cast<double>(vec.rows_evaluated));
  vw.key("rows_selected");
  vw.value(static_cast<double>(vec.rows_selected));
  vw.key("heatmap_queries");
  vw.value(static_cast<double>(vec.heatmap_queries));
  vw.key("heatmap_map_ms");
  vw.value(vec.heatmap_map_ms);
  vw.key("heatmap_dense_ms");
  vw.value(vec.heatmap_dense_ms);
  vw.key("heatmap_speedup");
  vw.value(vec.heatmap_speedup);
  vw.end_object();

  bench::print_header("E10c", "tiered compression: cold blocks + int8 path");
  std::printf("rows %zu (dim-%zu embeddings), all blocks demoted cold\n",
              comp.rows, comp.dim);
  std::printf("  raw %.1f B/row -> cold %.1f B/row  (ratio %.2fx)\n",
              comp.raw_bytes_per_row, comp.cold_bytes_per_row,
              comp.compression_ratio);
  std::printf("  selective scans: hot %.2f ms vs cold %.2f ms (%.2fx, "
              "%zu queries, %zu matches)\n",
              comp.hot_scan_ms, comp.cold_scan_ms, comp.cold_hot_scan_ratio,
              comp.scan_queries, comp.matched);
  std::printf("  cold blocks scanned %llu / skipped %llu, decode morsels %llu\n",
              static_cast<unsigned long long>(comp.cold_blocks_scanned),
              static_cast<unsigned long long>(comp.cold_blocks_skipped),
              static_cast<unsigned long long>(comp.decode_morsels));
  std::printf("  scoring: decode+float %.2f ms vs int8 %.2f ms (%.2fx)\n",
              comp.float_score_ms, comp.quantized_score_ms,
              comp.quantized_speedup);
  std::printf("  error: rmse %.2e, max %.2e, documented bound %.2e\n",
              comp.quantized_rmse, comp.quantized_max_err,
              comp.quantized_bound);

  obs::JsonWriter cw;
  cw.begin_object();
  cw.key("rows");
  cw.value(static_cast<double>(comp.rows));
  cw.key("embedding_dim");
  cw.value(static_cast<double>(comp.dim));
  cw.key("raw_bytes_per_row");
  cw.value(comp.raw_bytes_per_row);
  cw.key("cold_bytes_per_row");
  cw.value(comp.cold_bytes_per_row);
  cw.key("compression_ratio");
  cw.value(comp.compression_ratio);
  cw.key("scan_queries");
  cw.value(static_cast<double>(comp.scan_queries));
  cw.key("matched");
  cw.value(static_cast<double>(comp.matched));
  cw.key("hot_scan_ms");
  cw.value(comp.hot_scan_ms);
  cw.key("cold_scan_ms");
  cw.value(comp.cold_scan_ms);
  cw.key("cold_hot_scan_ratio");
  cw.value(comp.cold_hot_scan_ratio);
  cw.key("cold_blocks_scanned");
  cw.value(static_cast<double>(comp.cold_blocks_scanned));
  cw.key("cold_blocks_skipped");
  cw.value(static_cast<double>(comp.cold_blocks_skipped));
  cw.key("decode_morsels");
  cw.value(static_cast<double>(comp.decode_morsels));
  cw.key("float_score_ms");
  cw.value(comp.float_score_ms);
  cw.key("quantized_score_ms");
  cw.value(comp.quantized_score_ms);
  cw.key("quantized_speedup");
  cw.value(comp.quantized_speedup);
  cw.key("quantized_rmse");
  cw.value(comp.quantized_rmse);
  cw.key("quantized_max_err");
  cw.value(comp.quantized_max_err);
  cw.key("quantized_bound");
  cw.value(comp.quantized_bound);
  cw.end_object();

  bench::BenchReport report("index_micro");
  report.set("scan_speedup", rep.scan_speedup);
  report.set("blocks_skipped_ratio", rep.blocks_skipped_ratio);
  report.set("kernel_speedup", rep.kernel_speedup);
  report.set("vectorized_scan_speedup", vec.vectorized_scan_speedup);
  report.set("heatmap_speedup", vec.heatmap_speedup);
  report.set("compression_ratio", comp.compression_ratio);
  report.set("cold_hot_scan_ratio", comp.cold_hot_scan_ratio);
  report.set("quantized_speedup", comp.quantized_speedup);
  report.add_section("columnar", w.take());
  report.add_section("vectorized", vw.take());
  report.add_section("compression", cw.take());
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::write_report(stcn::run_columnar_section(),
                     stcn::run_vectorized_section(),
                     stcn::run_compression_section());
  if (stcn::bench::quick()) return 0;  // CI smoke: skip the gbench suites

  // Strip --quick before handing argv to google-benchmark (it rejects
  // arguments it does not recognize).
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) != "--quick") filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
