// Differential tests for the vectorized morsel-driven scan layer.
//
// The scalar row-at-a-time scans (scan_*_scalar, support/reference_scans.h)
// define the expected answer; the vectorized selection-vector path and the
// executor's selection-vector aggregation must agree exactly — on randomized
// data, on block-edge time ranges (queries starting/ending exactly on a
// 4096-row morsel boundary), on empty-selection morsels (zone overlaps,
// zero survivors), and on positions clamped to region borders. Morsel
// accounting (zone fast path, rows evaluated vs selected) is pinned on
// deterministic layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "index/detection_store.h"
#include "query/executor.h"
#include "support/reference_scans.h"

namespace stcn {
namespace {

constexpr double kWorld = 1000.0;

Detection random_detection(Rng& rng, std::uint64_t id) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1 + rng.uniform_index(40));
  d.object = ObjectId(1 + rng.uniform_index(200));
  d.time = TimePoint(rng.uniform_int(0, 1'000'000));
  d.position = {rng.uniform(0, kWorld), rng.uniform(0, kWorld)};
  if (rng.uniform_index(10) == 0) {
    d.position.x = rng.uniform_index(2) == 0 ? 0.0 : kWorld;
  }
  if (rng.uniform_index(10) == 0) {
    d.position.y = rng.uniform_index(2) == 0 ? 0.0 : kWorld;
  }
  d.confidence = rng.uniform(0, 1);
  return d;
}

class VectorizedDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    for (std::uint64_t i = 1; i <= 12'000; ++i) {
      (void)store_.append(random_detection(rng, i));
    }
  }

  DetectionStore store_;
};

TEST_P(VectorizedDifferential, RangeMatchesScalar) {
  Rng rng(GetParam() + 101);
  for (int trial = 0; trial < 40; ++trial) {
    Rect region =
        Rect::spanning({rng.uniform(0, kWorld), rng.uniform(0, kWorld)},
                       {rng.uniform(0, kWorld), rng.uniform(0, kWorld)});
    if (trial % 7 == 0) region = Rect{{0, 0}, {kWorld, kWorld}};
    TimeInterval interval{TimePoint(rng.uniform_int(0, 900'000)),
                          TimePoint(rng.uniform_int(100'000, 1'000'000))};
    auto expected = scan_range_scalar(store_, region, interval);
    MorselStats ms;
    auto vectorized = store_.scan_range(region, interval, &ms);
    EXPECT_TRUE(vectorized == expected) << "trial " << trial;
    EXPECT_EQ(ms.rows_selected, expected.size()) << "trial " << trial;
  }
}

TEST_P(VectorizedDifferential, CircleMatchesScalar) {
  Rng rng(GetParam() + 211);
  for (int trial = 0; trial < 40; ++trial) {
    Circle circle{{rng.uniform(-100, kWorld + 100),
                   rng.uniform(-100, kWorld + 100)},
                  rng.uniform(5, 800)};
    TimeInterval interval{TimePoint(rng.uniform_int(0, 900'000)),
                          TimePoint(rng.uniform_int(100'000, 1'000'000))};
    auto expected = scan_circle_scalar(store_, circle, interval);
    auto vectorized = store_.scan_circle(circle, interval);
    EXPECT_TRUE(vectorized == expected) << "trial " << trial;
  }
}

TEST_P(VectorizedDifferential, CameraMatchesScalar) {
  Rng rng(GetParam() + 307);
  for (int trial = 0; trial < 40; ++trial) {
    CameraId camera(1 + rng.uniform_index(40));
    TimeInterval interval{TimePoint(rng.uniform_int(0, 900'000)),
                          TimePoint(rng.uniform_int(100'000, 1'000'000))};
    auto expected = scan_camera_scalar(store_, camera, interval);
    auto vectorized = store_.scan_camera(camera, interval);
    EXPECT_TRUE(vectorized == expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedDifferential,
                         ::testing::Values(3, 41, 20260807));

// Deterministic layout for morsel-boundary accounting: row i has time i,
// x = i mod 100, one camera per block. Three full blocks.
class MorselBoundary : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t i = 0; i < 3 * kDetectionBlockRows; ++i) {
      Detection d;
      d.id = DetectionId(i + 1);
      d.camera = CameraId(1 + i / kDetectionBlockRows);
      d.object = ObjectId(1);
      d.time = TimePoint(static_cast<std::int64_t>(i));
      d.position = {static_cast<double>(i % 100), 50.0};
      (void)store_.append(d);
    }
  }

  static TimeInterval window(std::int64_t t0, std::int64_t t1) {
    return {TimePoint(t0), TimePoint(t1)};
  }

  DetectionStore store_;
  Rect all_{{0, 0}, {100, 100}};
};

TEST_F(MorselBoundary, IntervalExactlyOnBlockEdgesUsesFastPathOnly) {
  constexpr auto kB = static_cast<std::int64_t>(kDetectionBlockRows);
  MorselStats ms;
  auto refs = store_.scan_range(all_, window(kB, 2 * kB), &ms);
  ASSERT_EQ(refs.size(), kDetectionBlockRows);
  EXPECT_EQ(to_index(refs.front()), kDetectionBlockRows);
  EXPECT_EQ(to_index(refs.back()), 2 * kDetectionBlockRows - 1);
  // Block 1 is provably fully inside both predicates: emitted wholesale
  // with zero per-row evaluations; blocks 0 and 2 are provably outside.
  EXPECT_EQ(ms.zone_fast_path, 1u);
  EXPECT_EQ(ms.blocks_scanned, 1u);
  EXPECT_EQ(ms.blocks_skipped, 2u);
  EXPECT_EQ(ms.rows_evaluated, 0u);
  EXPECT_EQ(ms.rows_selected, kDetectionBlockRows);

  EXPECT_TRUE(scan_range_scalar(store_, all_, window(kB, 2 * kB)) == refs);
}

TEST_F(MorselBoundary, IntervalEndingJustPastBlockEdgeEvaluatesNextBlock) {
  constexpr auto kB = static_cast<std::int64_t>(kDetectionBlockRows);
  MorselStats ms;
  auto refs = store_.scan_range(all_, window(0, kB + 1), &ms);
  EXPECT_EQ(refs.size(), kDetectionBlockRows + 1);
  EXPECT_EQ(ms.zone_fast_path, 1u);   // block 0 wholesale
  EXPECT_EQ(ms.blocks_scanned, 2u);   // block 1 filtered
  EXPECT_EQ(ms.blocks_skipped, 1u);
  // Block 1 is time-sorted: two binary searches over its 4096 rows cut it
  // to its first row, 13 probes each, and the region is proven by the zone.
  EXPECT_EQ(ms.rows_evaluated, 2u * 13u);
  EXPECT_TRUE(scan_range_scalar(store_, all_, window(0, kB + 1)) == refs);
}

TEST_F(MorselBoundary, IntervalEndingJustPastUnsortedBlockEdgeFiltersNextBlock) {
  constexpr auto kB = static_cast<std::int64_t>(kDetectionBlockRows);
  // The same layout with two rows of block 1 swapped in time: the block is
  // no longer time-sorted, so the window runs the time filter over it.
  DetectionStore store;
  for (std::uint32_t i = 0; i < store_.size(); ++i) {
    Detection d = store_.get(static_cast<DetectionRef>(i));
    if (i == kB + 10 || i == kB + 11) d.time = TimePoint(2 * kB + 21 - i);
    (void)store.append(d);
  }
  ASSERT_TRUE(store.zone(0).time_sorted);
  ASSERT_FALSE(store.zone(1).time_sorted);
  MorselStats ms;
  auto refs = store.scan_range(all_, window(0, kB + 1), &ms);
  EXPECT_EQ(refs.size(), kDetectionBlockRows + 1);
  EXPECT_EQ(ms.zone_fast_path, 1u);
  EXPECT_EQ(ms.blocks_scanned, 2u);
  EXPECT_EQ(ms.blocks_skipped, 1u);
  EXPECT_EQ(ms.rows_evaluated, kDetectionBlockRows);  // one filtered morsel
  EXPECT_TRUE(scan_range_scalar(store, all_, window(0, kB + 1)) == refs);
}

TEST_F(MorselBoundary, EmptySelectionMorselEvaluatesButSelectsNothing) {
  // x values are integers 0..99; a region strip between them lies inside
  // every zone bbox (so no block can be skipped) yet selects no rows.
  Rect strip{{50.25, 0}, {50.75, 100}};
  MorselStats ms;
  auto refs = store_.scan_range(strip, TimeInterval::all(), &ms);
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(ms.blocks_scanned, 3u);
  EXPECT_EQ(ms.blocks_skipped, 0u);
  EXPECT_EQ(ms.zone_fast_path, 0u);
  EXPECT_GT(ms.rows_evaluated, 0u);
  EXPECT_EQ(ms.rows_selected, 0u);
  EXPECT_TRUE(scan_range_scalar(store_, strip, TimeInterval::all()).empty());
}

TEST_F(MorselBoundary, CameraFastPathFiresOnSingleCameraBlocks) {
  constexpr auto kB = static_cast<std::int64_t>(kDetectionBlockRows);
  MorselStats ms;
  auto refs = store_.scan_camera(CameraId(2), window(0, 3 * kB), &ms);
  ASSERT_EQ(refs.size(), kDetectionBlockRows);
  EXPECT_EQ(to_index(refs.front()), kDetectionBlockRows);
  // Block 1 holds camera 2 exclusively and the window covers it entirely:
  // wholesale emission. Blocks 0/2 cannot contain camera 2.
  EXPECT_EQ(ms.zone_fast_path, 1u);
  EXPECT_EQ(ms.rows_evaluated, 0u);
  EXPECT_TRUE(scan_camera_scalar(store_, CameraId(2), window(0, 3 * kB)) ==
              refs);
}

// Executor aggregation from selection vectors vs brute force over the raw
// detections — count, group-by-camera, heatmap — over broad and small
// regions.
class VectorizedExecutor : public ::testing::TestWithParam<std::uint64_t> {
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
  std::vector<Detection> reference_;
};

TEST_P(VectorizedExecutor, CountMatchesBruteForce) {
  Rng rng(GetParam() + 401);
  for (int trial = 0; trial < 20; ++trial) {
    // Alternate broad and small regions.
    Rect region;
    if (trial % 2 == 0) {
      region = Rect{{0, 0}, {rng.uniform(kWorld * 0.8, kWorld), kWorld}};
    } else {
      Point c{rng.uniform(100, kWorld - 100), rng.uniform(100, kWorld - 100)};
      region = Rect::centered(c, rng.uniform(20, 80));
    }
    TimeInterval interval{TimePoint(rng.uniform_int(0, 500'000)),
                          TimePoint(rng.uniform_int(500'000, 1'000'000))};
    std::uint64_t expected = 0;
    std::map<std::uint64_t, std::uint64_t> expected_by_camera;
    for (const Detection& d : reference_) {
      if (region.contains(d.position) && interval.contains(d.time)) {
        ++expected;
        ++expected_by_camera[d.camera.value()];
      }
    }

    ScanStats stats;
    QueryResult plain = LocalExecutor::execute(
        store_, Query::count(QueryId(1), region, interval), &stats);
    ASSERT_EQ(plain.counts.size(), 1u) << "trial " << trial;
    EXPECT_EQ(plain.count_of(0), expected) << "trial " << trial;
    EXPECT_GT(stats.store.morsels, 0u) << "trial " << trial;
    EXPECT_GE(stats.store.rows_evaluated, stats.store.rows_selected);
    EXPECT_EQ(stats.store.rows_selected, expected);

    QueryResult grouped = LocalExecutor::execute(
        store_,
        Query::count(QueryId(2), region, interval, GroupBy::kCamera));
    EXPECT_EQ(grouped.counts, CountPairs(expected_by_camera.begin(),
                                         expected_by_camera.end()))
        << "trial " << trial;
  }
}

TEST_P(VectorizedExecutor, HeatmapMatchesBruteForce) {
  Rng rng(GetParam() + 503);
  for (int trial = 0; trial < 20; ++trial) {
    Rect region = trial % 2 == 0
                      ? Rect{{0, 0}, {kWorld, kWorld}}
                      : Rect::centered({rng.uniform(200, kWorld - 200),
                                        rng.uniform(200, kWorld - 200)},
                                       rng.uniform(30, 120));
    double cell = rng.uniform(10, 100);
    TimeInterval interval{TimePoint(rng.uniform_int(0, 500'000)),
                          TimePoint(rng.uniform_int(500'000, 1'000'000))};
    Query query = Query::heatmap(QueryId(3), region, cell, interval);
    std::map<std::uint64_t, std::uint64_t> expected;
    for (const Detection& d : reference_) {
      if (region.contains(d.position) && interval.contains(d.time)) {
        ++expected[query.heatmap_cell(d.position)];
      }
    }
    ScanStats stats;
    QueryResult result = LocalExecutor::execute(store_, query, &stats);
    EXPECT_EQ(result.counts, CountPairs(expected.begin(), expected.end()))
        << "trial " << trial;
    EXPECT_GT(stats.store.morsels, 0u) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedExecutor,
                         ::testing::Values(11, 20260807));

}  // namespace
}  // namespace stcn
