// Differential tests for the columnar DetectionStore: zone-map block
// skipping must be invisible to results. A naive reference scan over a
// plain vector<Detection> (the layout the columnar store replaced) defines
// the expected answer for every query shape; the store must agree exactly,
// including on adversarial inputs — out-of-order arrival times (zone maps
// cannot assume sorted blocks) and positions clamped to the region borders
// (half-open edge semantics). k-NN answers are compared id for id against
// a brute-force (squared distance, detection id) sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/appearance_kernel.h"
#include "common/rng.h"
#include "index/detection_store.h"
#include "query/executor.h"

namespace stcn {
namespace {

constexpr double kWorld = 1000.0;

Detection random_detection(Rng& rng, std::uint64_t id) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1 + rng.uniform_index(40));
  d.object = ObjectId(1 + rng.uniform_index(200));
  // Out-of-order arrival: time is independent of append order.
  d.time = TimePoint(rng.uniform_int(0, 1'000'000));
  d.position = {rng.uniform(0, kWorld), rng.uniform(0, kWorld)};
  // A slice of positions clamped exactly onto the borders, where the
  // half-open contains() semantics bite.
  if (rng.uniform_index(10) == 0) {
    d.position.x = rng.uniform_index(2) == 0 ? 0.0 : kWorld;
  }
  if (rng.uniform_index(10) == 0) {
    d.position.y = rng.uniform_index(2) == 0 ? 0.0 : kWorld;
  }
  d.confidence = rng.uniform(0, 1);
  return d;
}

std::set<std::uint64_t> ids_of(const DetectionStore& store,
                               const std::vector<DetectionRef>& refs) {
  std::set<std::uint64_t> out;
  for (DetectionRef r : refs) out.insert(store.id_of(r).value());
  return out;
}

/// The ids `scan_knn` returns, in its order.
std::vector<std::uint64_t> knn_ids(const DetectionStore& store, Point center,
                                   std::size_t k, const TimeInterval& interval,
                                   MorselStats* stats = nullptr) {
  std::vector<std::uint64_t> out;
  for (DetectionRef r : store.scan_knn(center, k, interval, stats)) {
    out.push_back(store.id_of(r).value());
  }
  return out;
}

/// Brute-force k-NN: the ids of the first k rows in `interval` sorted by
/// (squared distance to `center`, detection id).
std::vector<std::uint64_t> knn_reference(const std::vector<Detection>& rows,
                                         Point center, std::size_t k,
                                         const TimeInterval& interval) {
  std::vector<std::pair<double, std::uint64_t>> hits;
  for (const Detection& d : rows) {
    if (interval.contains(d.time)) {
      hits.emplace_back(squared_distance(d.position, center), d.id.value());
    }
  }
  std::sort(hits.begin(), hits.end());
  if (hits.size() > k) hits.resize(k);
  std::vector<std::uint64_t> ids;
  for (const auto& hit : hits) ids.push_back(hit.second);
  return ids;
}

class ColumnarDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    for (std::uint64_t i = 1; i <= 10'000; ++i) {
      Detection d = random_detection(rng, i);
      reference_.push_back(d);
      (void)store_.append(d);
    }
  }

  DetectionStore store_;
  std::vector<Detection> reference_;  // naive row-store mirror
};

TEST_P(ColumnarDifferential, RangeMatchesReferenceScan) {
  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 30; ++trial) {
    Rect region =
        Rect::spanning({rng.uniform(0, kWorld), rng.uniform(0, kWorld)},
                       {rng.uniform(0, kWorld), rng.uniform(0, kWorld)});
    if (trial % 5 == 0) region = Rect{{0, 0}, {kWorld, kWorld}};  // full
    TimeInterval interval{TimePoint(rng.uniform_int(0, 500'000)),
                          TimePoint(rng.uniform_int(500'000, 1'000'000))};
    std::set<std::uint64_t> expected;
    for (const Detection& d : reference_) {
      if (region.contains(d.position) && interval.contains(d.time)) {
        expected.insert(d.id.value());
      }
    }
    EXPECT_EQ(ids_of(store_, store_.scan_range(region, interval)), expected)
        << "trial " << trial;
  }
}

TEST_P(ColumnarDifferential, CircleMatchesReferenceScan) {
  Rng rng(GetParam() + 31);
  for (int trial = 0; trial < 30; ++trial) {
    Circle circle{{rng.uniform(0, kWorld), rng.uniform(0, kWorld)},
                  rng.uniform(5, 200)};
    TimeInterval interval{TimePoint(rng.uniform_int(0, 500'000)),
                          TimePoint(rng.uniform_int(500'000, 1'000'000))};
    std::set<std::uint64_t> expected;
    for (const Detection& d : reference_) {
      if (circle.contains(d.position) && interval.contains(d.time)) {
        expected.insert(d.id.value());
      }
    }
    EXPECT_EQ(ids_of(store_, store_.scan_circle(circle, interval)), expected)
        << "trial " << trial;
  }
}

TEST_P(ColumnarDifferential, CameraMatchesReferenceScan) {
  Rng rng(GetParam() + 47);
  for (int trial = 0; trial < 30; ++trial) {
    CameraId camera(1 + rng.uniform_index(40));
    TimeInterval interval{TimePoint(rng.uniform_int(0, 500'000)),
                          TimePoint(rng.uniform_int(500'000, 1'000'000))};
    std::set<std::uint64_t> expected;
    for (const Detection& d : reference_) {
      if (d.camera == camera && interval.contains(d.time)) {
        expected.insert(d.id.value());
      }
    }
    EXPECT_EQ(ids_of(store_, store_.scan_camera(camera, interval)), expected)
        << "trial " << trial;
  }
}

TEST_P(ColumnarDifferential, KnnMatchesReferenceScan) {
  Rng rng(GetParam() + 63);
  for (int trial = 0; trial < 30; ++trial) {
    Point center{rng.uniform(-50, kWorld + 50), rng.uniform(-50, kWorld + 50)};
    std::size_t k = 1 + rng.uniform_index(25);
    // A third all-time; the rest windowed, half of those narrow enough
    // (~2 rows) to hold fewer than k.
    TimeInterval interval = TimeInterval::all();
    if (trial % 3 != 0) {
      std::int64_t begin = rng.uniform_int(0, 1'000'000);
      std::int64_t width = trial % 3 == 1 ? 200 : 400'000;
      interval = {TimePoint(begin), TimePoint(begin + width)};
    }
    EXPECT_EQ(knn_ids(store_, center, k, interval),
              knn_reference(reference_, center, k, interval))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferential,
                         ::testing::Values(7, 99, 20260806));

// ---------------------------------------------------------------- k-NN

Detection at(std::uint64_t id, Point pos, std::int64_t t) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1);
  d.object = ObjectId(1);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

TEST(DetectionStore, AppendAndGet) {
  DetectionStore store;
  EXPECT_TRUE(store.empty());
  DetectionRef a = store.append(at(1, {0, 0}, 0));
  DetectionRef b = store.append(at(2, {1, 1}, 1));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get(a).id, DetectionId(1));
  EXPECT_EQ(store.get(b).id, DetectionId(2));
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(DetectionStore, RangeScanEdgeCases) {
  DetectionStore store;
  (void)store.append(at(1, {50, 50}, 300));
  (void)store.append(at(2, {50, 50}, 100));  // arrives late
  (void)store.append(at(3, {50, 50}, 200));
  Rect all{{0, 0}, {100, 100}};
  EXPECT_TRUE(store.scan_range(Rect::empty(), TimeInterval::all()).empty());
  EXPECT_TRUE(store.scan_range(all, {TimePoint(5), TimePoint(5)}).empty());
  // Half-open: t=100 is inside, t=200 is not.
  EXPECT_EQ(ids_of(store, store.scan_range(all, {TimePoint(100),
                                                 TimePoint(200)})),
            (std::set<std::uint64_t>{2}));
}

TEST(StoreKnn, EmptyStoreReturnsNothing) {
  DetectionStore store;
  EXPECT_TRUE(store.scan_knn({50, 50}, 3, TimeInterval::all()).empty());
}

TEST(StoreKnn, ReturnsNearestInOrder) {
  DetectionStore store;
  (void)store.append(at(1, {10, 10}, 100));
  (void)store.append(at(2, {20, 10}, 100));
  (void)store.append(at(3, {90, 90}, 100));
  (void)store.append(at(4, {11, 10}, 100));
  (void)store.append(at(5, {-20, -20}, 100));  // no world bounds to clamp to
  EXPECT_EQ(knn_ids(store, {10, 10}, 3, TimeInterval::all()),
            (std::vector<std::uint64_t>{1, 4, 2}));
  EXPECT_EQ(knn_ids(store, {-30, -30}, 1, TimeInterval::all()),
            (std::vector<std::uint64_t>{5}));
}

TEST(StoreKnn, ZeroKAndEmptyIntervalAreEmpty) {
  DetectionStore store;
  (void)store.append(at(1, {10, 10}, 100));
  EXPECT_TRUE(store.scan_knn({0, 0}, 0, TimeInterval::all()).empty());
  EXPECT_TRUE(
      store.scan_knn({0, 0}, 3, {TimePoint(100), TimePoint(100)}).empty());
  EXPECT_TRUE(
      store.scan_knn({0, 0}, 3, {TimePoint(200), TimePoint(100)}).empty());
}

TEST(StoreKnn, KLargerThanPopulationReturnsEveryRowInWindow) {
  DetectionStore store;
  (void)store.append(at(1, {10, 10}, 100));
  (void)store.append(at(2, {20, 20}, 100));
  (void)store.append(at(3, {12, 10}, 500));
  EXPECT_EQ(knn_ids(store, {0, 0}, 10, TimeInterval::all()),
            (std::vector<std::uint64_t>{1, 3, 2}));
  EXPECT_EQ(knn_ids(store, {10, 10}, 10, {TimePoint(400), TimePoint(600)}),
            (std::vector<std::uint64_t>{3}));
}

TEST(StoreKnn, IntervalIsHalfOpen) {
  DetectionStore store;
  (void)store.append(at(1, {10, 10}, 100));  // at begin: inside
  (void)store.append(at(2, {10, 10}, 200));  // at end: outside
  (void)store.append(at(3, {50, 50}, 150));
  EXPECT_EQ(knn_ids(store, {10, 10}, 2, {TimePoint(100), TimePoint(200)}),
            (std::vector<std::uint64_t>{1, 3}));
}

// Lattice positions make exact distance ties common, and shuffled ids make
// arrival order disagree with id order, across several blocks: the k-th
// place must go to the smaller id every time.
TEST(StoreKnn, TiesAcrossBlocksBreakByDetectionId) {
  DetectionStore store;
  std::vector<Detection> reference;
  Rng rng(37);
  std::vector<std::uint64_t> ids(3 * kDetectionBlockRows);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.uniform_index(i + 1)]);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Detection d = at(ids[i],
                     {static_cast<double>(rng.uniform_index(20)),
                      static_cast<double>(rng.uniform_index(20))},
                     static_cast<std::int64_t>(rng.uniform_index(1000)));
    reference.push_back(d);
    (void)store.append(d);
  }
  for (int trial = 0; trial < 40; ++trial) {
    Point center{static_cast<double>(rng.uniform_index(20)),
                 static_cast<double>(rng.uniform_index(20))};
    std::size_t k = 1 + rng.uniform_index(60);
    std::int64_t begin = static_cast<std::int64_t>(rng.uniform_index(900));
    TimeInterval interval = trial % 2 == 0
                                ? TimeInterval::all()
                                : TimeInterval{TimePoint(begin),
                                               TimePoint(begin + 100)};
    EXPECT_EQ(knn_ids(store, center, k, interval),
              knn_reference(reference, center, k, interval))
        << "trial " << trial;
  }
}

// Each block covers its own 250 m strip of x, so best-first order and the
// k-th-distance cut-off really prune. Answers must stay exact, hot and
// cold, and far strips must be counted skipped.
TEST(StoreKnn, BestFirstSkipsFarBlocksAndStaysExact) {
  for (bool tiered : {false, true}) {
    DetectionStore store;
    Rng rng(41);
    for (std::uint64_t i = 0; i < 4 * kDetectionBlockRows; ++i) {
      double strip = static_cast<double>(i / kDetectionBlockRows) * 250.0;
      (void)store.append(at(i + 1,
                            {strip + rng.uniform(0, 250), rng.uniform(0, 250)},
                            rng.uniform_int(0, 1'000'000)));
    }
    if (tiered) store.set_tier_config({true, 0});  // every sealed block cold
    std::vector<Detection> reference;  // decoded values once demoted
    for (std::uint32_t i = 0; i < store.size(); ++i) {
      reference.push_back(store.get(static_cast<DetectionRef>(i)));
    }
    MorselStats ms;
    for (int trial = 0; trial < 20; ++trial) {
      Point center{rng.uniform(0, 1000), rng.uniform(0, 250)};
      std::size_t k = 1 + rng.uniform_index(30);
      TimeInterval interval = TimeInterval::all();
      if (trial % 2 == 1) {
        std::int64_t begin = rng.uniform_int(0, 900'000);
        interval = {TimePoint(begin), TimePoint(begin + 100'000)};
      }
      EXPECT_EQ(knn_ids(store, center, k, interval, &ms),
                knn_reference(reference, center, k, interval))
          << "tiered " << tiered << " trial " << trial;
    }
    EXPECT_GT(ms.blocks_skipped, 0u) << "tiered " << tiered;
    EXPECT_GT(ms.blocks_scanned, 0u) << "tiered " << tiered;
    EXPECT_GE(ms.rows_evaluated, ms.rows_selected);
    if (tiered) {
      EXPECT_GT(ms.cold_blocks_skipped, 0u);
    }
  }
}

// Zone maps must actually fire: near-time-ordered ingest (the realistic
// arrival pattern) plus a selective time window leaves most blocks provably
// outside the window.
TEST(ColumnarStore, SelectiveScanSkipsBlocks) {
  DetectionStore store;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 8 * kDetectionBlockRows; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1 + i % 16);
    d.object = ObjectId(1);
    d.time = TimePoint(static_cast<std::int64_t>(i * 100) +
                       rng.uniform_int(0, 50));
    d.position = {rng.uniform(0, 100), rng.uniform(0, 100)};
    (void)store.append(d);
  }
  ASSERT_EQ(store.block_count(), 8u);
  // A window covering ~1/8 of the time axis.
  TimeInterval narrow{TimePoint(0), TimePoint(100 * kDetectionBlockRows)};
  auto refs = store.scan_range(Rect{{0, 0}, {100, 100}}, narrow);
  EXPECT_GT(refs.size(), 0u);
  EXPECT_GT(store.blocks_skipped(), 0u);
  EXPECT_LT(store.blocks_scanned(), store.block_count());
}

TEST(ColumnarStore, MemoryAccountingIsExact) {
  DetectionStore store;
  Rng rng(11);
  constexpr std::size_t kRows = 5000;
  constexpr std::size_t kDim = 32;
  for (std::uint64_t i = 1; i <= kRows; ++i) {
    Detection d = random_detection(rng, i);
    d.appearance.values.assign(kDim, 0.5f);
    (void)store.append(d);
  }
  auto m = store.memory_breakdown();
  EXPECT_EQ(store.memory_bytes(), m.total());
  // Lower bounds from live data alone (capacity ≥ size): 8 u64/i64/double
  // columns, the float arena, and one zone per block.
  EXPECT_GE(m.column_bytes, kRows * 8 * sizeof(std::uint64_t));
  EXPECT_GE(m.arena_bytes, kRows * kDim * sizeof(float));
  EXPECT_GE(m.zone_bytes, store.block_count() * sizeof(DetectionBlockZone));
  // And the total is not wildly above the live data (allocator slack from
  // doubling is at most ~2x).
  std::size_t live = kRows * 8 * sizeof(std::uint64_t) +
                     kRows * kDim * sizeof(float) +
                     store.block_count() * sizeof(DetectionBlockZone);
  EXPECT_LE(m.total(), 2 * live + 4096);
}

TEST(ColumnarStore, AppendCopyPreservesRows) {
  DetectionStore src;
  Rng rng(13);
  std::vector<Detection> originals;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    Detection d = random_detection(rng, i);
    d.appearance.values = {0.1f * static_cast<float>(i), 0.5f, -0.25f};
    originals.push_back(d);
    (void)src.append(d);
  }
  DetectionStore dst;
  for (std::uint32_t i = 0; i < 100; ++i) {
    DetectionRef ref = dst.append_copy(src, static_cast<DetectionRef>(i));
    EXPECT_EQ(dst.get(ref), originals[i]);
  }
}

TEST(ColumnarStore, AppendRowsPreservesRowsAndRecomputesZonesTightly) {
  DetectionStore src;
  Rng rng(19);
  std::vector<Detection> originals;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    Detection d = random_detection(rng, i);
    d.appearance.values = {0.25f * static_cast<float>(i % 7), -1.5f};
    // Rows 100..199 sit in a narrow time/position band; the rest are wide.
    if (i >= 100 && i < 200) {
      d.time = TimePoint(500'000 + static_cast<std::int64_t>(i));
      d.position = {400.0 + static_cast<double>(i % 50), 250.0};
    }
    originals.push_back(d);
    (void)src.append(d);
  }
  DetectionStore dst;
  DetectionRef first_ref = dst.append_rows(src, 99, 199);
  ASSERT_EQ(dst.size(), 100u);
  EXPECT_EQ(to_index(first_ref), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dst.get(static_cast<DetectionRef>(i)), originals[99 + i]);
  }
  // The destination zone must be recomputed tightly from the copied rows,
  // not inherited from the source block (whose bounds span the full wide
  // distribution).
  std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t t_max = std::numeric_limits<std::int64_t>::min();
  double x_min = 1e18;
  double x_max = -1e18;
  for (std::uint32_t i = 99; i < 199; ++i) {
    const Detection& d = originals[i];
    t_min = std::min(t_min, d.time.micros_since_origin());
    t_max = std::max(t_max, d.time.micros_since_origin());
    x_min = std::min(x_min, d.position.x);
    x_max = std::max(x_max, d.position.x);
  }
  ASSERT_EQ(dst.block_count(), 1u);
  EXPECT_EQ(dst.zone(0).t_min, t_min);
  EXPECT_EQ(dst.zone(0).t_max, t_max);
  EXPECT_DOUBLE_EQ(dst.zone(0).x_min, x_min);
  EXPECT_DOUBLE_EQ(dst.zone(0).x_max, x_max);
}

// Retention compaction must not degrade block skipping: the rebuilt
// store's zone maps are recomputed from the surviving rows, so a selective
// scan skips the same fraction of blocks before and after a no-op
// compaction (and still skips after a real eviction).
TEST(ColumnarStore, CompactionKeepsSkipRatioParity) {
  WorkerIndexes indexes;
  Rng rng(23);
  for (std::uint64_t i = 0; i < 8 * kDetectionBlockRows; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1 + i % 16);
    d.object = ObjectId(1 + i % 64);
    d.time = TimePoint(static_cast<std::int64_t>(i * 100) +
                       rng.uniform_int(0, 50));
    d.position = {rng.uniform(0, 100), rng.uniform(0, 100)};
    (void)indexes.ingest(d);
  }
  ASSERT_EQ(indexes.store.block_count(), 8u);
  TimeInterval narrow{TimePoint(0), TimePoint(100 * kDetectionBlockRows)};
  Rect all{{0, 0}, {100, 100}};

  MorselStats before;
  auto refs_before = indexes.store.scan_range(all, narrow, &before);
  ASSERT_GT(before.blocks_skipped, 0u);

  // No-op compaction (horizon before every row): same rows, rebuilt blocks.
  ASSERT_EQ(indexes.compact(TimePoint(0)), 0u);
  MorselStats after;
  auto refs_after = indexes.store.scan_range(all, narrow, &after);
  EXPECT_EQ(ids_of(indexes.store, refs_after),
            ids_of(indexes.store, refs_before));
  EXPECT_EQ(after.blocks_skipped, before.blocks_skipped);
  EXPECT_EQ(after.blocks_scanned, before.blocks_scanned);

  // Real eviction: drop the first half of the time axis, then a window over
  // the evicted range must skip every remaining block.
  TimePoint horizon(100 * 4 * static_cast<std::int64_t>(kDetectionBlockRows));
  std::size_t evicted = indexes.compact(horizon);
  EXPECT_GT(evicted, 0u);
  MorselStats stale;
  auto refs_stale = indexes.store.scan_range(
      all, TimeInterval{TimePoint(0), TimePoint(100)}, &stale);
  EXPECT_TRUE(refs_stale.empty());
  EXPECT_EQ(stale.blocks_scanned, 0u);
  EXPECT_EQ(stale.blocks_skipped, indexes.store.block_count());
}

// Positions clamped exactly onto the world border, probed with circles
// whose fully-inside fast path would wrongly fire if the containment check
// compared bounding boxes instead of testing the zone's corners against
// the circle. The AoS reference defines truth; the vectorized scan and the
// scalar block scan must both match it.
TEST(ColumnarStore, CircleFastPathExcludesClampedBorderPositions) {
  constexpr double kW = 1000.0;
  DetectionStore store;
  std::vector<Detection> reference;
  Rng rng(29);
  for (std::uint64_t i = 1; i <= 6000; ++i) {
    Detection d;
    d.id = DetectionId(i);
    d.camera = CameraId(1 + i % 8);
    d.object = ObjectId(1 + i % 32);
    d.time = TimePoint(static_cast<std::int64_t>(i));
    // Every position sits exactly on a clamp boundary: x pinned to 0 or
    // kW, y uniform (and a slice with y pinned too).
    d.position.x = (i % 2 == 0) ? 0.0 : kW;
    d.position.y = rng.uniform(0, kW);
    if (i % 10 == 0) d.position.y = (i % 20 == 0) ? 0.0 : kW;
    reference.push_back(d);
    (void)store.append(d);
  }
  // Circles centered on and near the border, radii chosen so some zones
  // are fully inside (legitimate fast path), some straddle the boundary
  // (fast path must NOT fire), and the boundary rows land exactly on the
  // radius (Circle::contains is inclusive).
  std::vector<Circle> circles = {
      {{kW, kW / 2}, kW / 4},   {{0.0, kW / 2}, kW / 4},
      {{kW, kW}, 1.0},          {{kW / 2, kW / 2}, kW / 2},
      {{kW, kW / 2}, kW / 2},   {{kW / 2, kW / 2}, std::sqrt(2.0) * kW / 2},
  };
  for (const Circle& circle : circles) {
    for (TimeInterval interval :
         {TimeInterval::all(),
          TimeInterval{TimePoint(1000), TimePoint(4000)}}) {
      std::set<std::uint64_t> expected;
      for (const Detection& d : reference) {
        if (circle.contains(d.position) && interval.contains(d.time)) {
          expected.insert(d.id.value());
        }
      }
      EXPECT_EQ(ids_of(store, store.scan_circle(circle, interval)), expected)
          << "vectorized, circle (" << circle.center.x << ","
          << circle.center.y << ") r=" << circle.radius;
      EXPECT_EQ(ids_of(store, store.scan_circle_scalar(circle, interval)),
                expected)
          << "scalar, circle (" << circle.center.x << "," << circle.center.y
          << ") r=" << circle.radius;
    }
  }
}

// Batched kernel vs the scalar AppearanceFeature::similarity: identical to
// well under the 1e-6 differential budget (both accumulate in double).
TEST(AppearanceKernel, BatchedMatchesScalar) {
  Rng rng(17);
  for (std::size_t dim : {1u, 3u, 4u, 7u, 31u, 128u, 257u}) {
    AppearanceFeature query;
    query.values.resize(dim);
    for (float& v : query.values) v = static_cast<float>(rng.normal(0, 1));
    query.normalize();
    constexpr std::size_t kN = 64;
    std::vector<AppearanceFeature> candidates(kN);
    std::vector<const float*> ptrs(kN);
    std::vector<float> contiguous;
    for (std::size_t c = 0; c < kN; ++c) {
      candidates[c].values.resize(dim);
      for (float& v : candidates[c].values) {
        v = static_cast<float>(rng.normal(0, 1));
      }
      candidates[c].normalize();
      ptrs[c] = candidates[c].values.data();
      contiguous.insert(contiguous.end(), candidates[c].values.begin(),
                        candidates[c].values.end());
    }
    std::vector<double> batched(kN);
    appearance_score_batch(query.values.data(), dim, ptrs.data(), kN,
                           batched.data());
    std::vector<double> dense(kN);
    appearance_score_batch_contiguous(query.values.data(), dim,
                                      contiguous.data(), kN, dense.data());
    for (std::size_t c = 0; c < kN; ++c) {
      double scalar = query.similarity(candidates[c]);
      EXPECT_NEAR(batched[c], scalar, 1e-6) << "dim " << dim << " cand " << c;
      EXPECT_NEAR(dense[c], scalar, 1e-6) << "dim " << dim << " cand " << c;
      EXPECT_NEAR(appearance_dot(query.values.data(), ptrs[c], dim), scalar,
                  1e-6);
    }
  }
}

}  // namespace
}  // namespace stcn
