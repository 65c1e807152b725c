// Trajectory reconstruction on the columnar store: DetectionStore's
// scan_object, the executor's kTrajectory path through ResultMerger, and
// the per-partition object filter a worker keeps beside the store.
//
// The differential compares scan_object against scan_object_brute
// (support/reference_scans.h), which reads every row through the per-row
// accessors and uses no zone map or dictionary, on hot and tiered stores
// filled out of time order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/worker.h"
#include "index/detection_store.h"
#include "query/executor.h"
#include "query/result.h"
#include "support/reference_scans.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, std::uint64_t object,
                         std::int64_t t) {
  Detection d;
  d.id = DetectionId(id);
  d.object = ObjectId(object);
  d.camera = CameraId(1);
  d.time = TimePoint(t);
  return d;
}

std::vector<std::uint64_t> ids_of(const DetectionStore& store,
                                  const std::vector<DetectionRef>& refs) {
  std::vector<std::uint64_t> ids;
  for (DetectionRef ref : refs) ids.push_back(store.id_of(ref).value());
  return ids;
}

TEST(TrajectoryScan, EmptyStoreReturnsNothing) {
  DetectionStore store;
  MorselStats ms;
  EXPECT_TRUE(store.scan_object(ObjectId(1), TimeInterval::all(), &ms).empty());
  EXPECT_EQ(ms.blocks_scanned + ms.blocks_skipped, 0u);
}

TEST(TrajectoryScan, ReturnsOnlyRequestedObject) {
  DetectionStore store;
  store.append(make_detection(1, 100, 10));
  store.append(make_detection(2, 200, 20));
  store.append(make_detection(3, 100, 30));
  EXPECT_EQ(
      ids_of(store, store.scan_object(ObjectId(100), TimeInterval::all())),
      (std::vector<std::uint64_t>{1, 3}));
  EXPECT_TRUE(store.scan_object(ObjectId(300), TimeInterval::all()).empty());
}

TEST(TrajectoryScan, IntervalFilterHalfOpen) {
  DetectionStore store;
  store.append(make_detection(1, 7, 100));
  store.append(make_detection(2, 7, 200));
  store.append(make_detection(3, 7, 300));
  EXPECT_EQ(ids_of(store, store.scan_object(ObjectId(7),
                                            {TimePoint(100), TimePoint(300)})),
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(
      store.scan_object(ObjectId(7), {TimePoint(300), TimePoint(300)}).empty());
  EXPECT_TRUE(
      store.scan_object(ObjectId(7), {TimePoint(300), TimePoint(100)}).empty());
}

// The scan yields rows in arrival order; the executor's result goes
// through ResultMerger, which puts a trajectory in time order.
TEST(TrajectoryScan, MergedResultIsTimeOrderedDespiteOutOfOrderArrival) {
  DetectionStore store;
  store.append(make_detection(1, 7, 300));
  store.append(make_detection(2, 7, 100));
  store.append(make_detection(3, 7, 200));
  Query q = Query::trajectory(QueryId(1), ObjectId(7), TimeInterval::all());
  ResultMerger merger(q);
  ScanStats stats;
  merger.add(LocalExecutor::execute(store, q, &stats));
  QueryResult r = merger.take();
  ASSERT_EQ(r.detections.size(), 3u);
  EXPECT_EQ(r.detections[0].time, TimePoint(100));
  EXPECT_EQ(r.detections[1].time, TimePoint(200));
  EXPECT_EQ(r.detections[2].time, TimePoint(300));
  // Trajectory work is counted like every other scan's.
  EXPECT_EQ(stats.store.blocks_scanned, 1u);
  EXPECT_EQ(stats.store.rows_selected, 3u);
  EXPECT_GT(stats.store.rows_evaluated, 0u);
}

// A worker's object filter holds every object it has rows of, and a
// compaction rebuilds it from the surviving rows.
TEST(TrajectoryScan, ObjectFilterFollowsTheStore) {
  WorkerIndexes indexes;
  indexes.ingest(make_detection(1, 7, 100));
  indexes.ingest(make_detection(2, 8, 100));
  indexes.ingest(make_detection(3, 7, 200));
  EXPECT_TRUE(indexes.objects.may_contain(7));
  EXPECT_TRUE(indexes.objects.may_contain(8));
  ASSERT_EQ(indexes.compact(TimePoint(150)), 2u);
  EXPECT_TRUE(indexes.objects.may_contain(7));
  EXPECT_FALSE(indexes.objects.may_contain(8));
}

// Seeded differential: ~5 blocks of rows arriving out of time order (each
// row's time is its arrival slot plus up to ~400 slots of jitter), so block
// time ranges overlap their neighbours' but narrow windows still skip
// blocks. Most rows belong to one of 300 objects spread over the whole
// store; a tenth belong to short-lived objects that each live in about
// 1,000 consecutive rows, so their cold blocks are skipped on the
// dictionary while other blocks hold them.
class TrajectoryDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {
 protected:
  static constexpr std::int64_t kSpan = 1'000'000;
  static constexpr std::uint64_t kAbsent = 999'999;

  void SetUp() override {
    auto [seed, tiered] = GetParam();
    if (tiered) store_.set_tier_config({true, 1});
    Rng rng(seed);
    for (std::uint64_t i = 0; i < 5 * kDetectionBlockRows - 123; ++i) {
      std::uint64_t object = rng.uniform_index(10) == 0
                                 ? 5'000 + i / 1'000
                                 : 1 + rng.uniform_index(300);
      std::int64_t t = static_cast<std::int64_t>(i) * 48 +
                       rng.uniform_int(0, 20'000);
      (void)store_.append(make_detection(i + 1, object, t));
    }
    if (tiered) {
      ASSERT_EQ(store_.cold_block_count(), 3u);
    }
  }

  /// An object of the store, chosen by row: common or short-lived.
  ObjectId object_at_random_row(Rng& rng) const {
    return store_.object_of(
        static_cast<DetectionRef>(rng.uniform_index(store_.size())));
  }

  /// Sorted times of `object`'s rows.
  std::vector<TimePoint> times_of(ObjectId object) const {
    std::vector<TimePoint> times;
    for (DetectionRef ref :
         scan_object_brute(store_, object, TimeInterval::all())) {
      times.push_back(store_.time_of(ref));
    }
    std::sort(times.begin(), times.end());
    return times;
  }

  void expect_matches(ObjectId object, const TimeInterval& window,
                      int trial) const {
    MorselStats ms;
    auto got = store_.scan_object(object, window, &ms);
    auto expected = scan_object_brute(store_, object, window);
    EXPECT_TRUE(got == expected)
        << "trial " << trial << ": object " << object.value() << " got "
        << got.size() << " rows, expected " << expected.size();
    EXPECT_EQ(ms.rows_selected, expected.size()) << "trial " << trial;
    EXPECT_EQ(ms.blocks_scanned + ms.blocks_skipped, store_.block_count());
  }

  DetectionStore store_;
};

TEST_P(TrajectoryDifferential, AllTimeWindows) {
  // The smallest and largest ids sit at the ends of every cold block's
  // object dictionary (codes 0 and size − 1).
  std::uint64_t last_short_lived = 5'000 + (store_.size() - 1) / 1'000;
  for (std::uint64_t edge : {std::uint64_t{1}, std::uint64_t{300},
                             std::uint64_t{5'000}, last_short_lived}) {
    expect_matches(ObjectId(edge), TimeInterval::all(), -1);
  }
  Rng rng(std::get<0>(GetParam()) + 1);
  for (int trial = 0; trial < 30; ++trial) {
    expect_matches(object_at_random_row(rng), TimeInterval::all(), trial);
  }
}

TEST_P(TrajectoryDifferential, NarrowWindows) {
  Rng rng(std::get<0>(GetParam()) + 2);
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId object = object_at_random_row(rng);
    std::vector<TimePoint> times = times_of(object);
    TimePoint t = times[rng.uniform_index(times.size())];
    // About two rows' worth of the whole store around one of its rows.
    expect_matches(object, {t - Duration::micros(60), t + Duration::micros(60)},
                   trial);
  }
}

TEST_P(TrajectoryDifferential, HalfOpenWindowsEdgedOnRowTimes) {
  Rng rng(std::get<0>(GetParam()) + 3);
  int edged = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId object = object_at_random_row(rng);
    std::vector<TimePoint> times = times_of(object);
    if (times.size() < 2) continue;
    std::size_t i = rng.uniform_index(times.size() - 1);
    std::size_t j = i + 1 + rng.uniform_index(times.size() - 1 - i);
    if (times[i] == times[j]) continue;
    TimeInterval window{times[i], times[j]};
    expect_matches(object, window, trial);
    // The begin edge's row is in the answer, the end edge's is not.
    auto got = store_.scan_object(object, window);
    auto has_time = [&](TimePoint t) {
      return std::any_of(got.begin(), got.end(), [&](DetectionRef ref) {
        return store_.time_of(ref) == t;
      });
    };
    EXPECT_TRUE(has_time(times[i])) << "trial " << trial;
    EXPECT_FALSE(has_time(times[j])) << "trial " << trial;
    ++edged;
  }
  EXPECT_GT(edged, 20);
}

TEST_P(TrajectoryDifferential, WideWindows) {
  Rng rng(std::get<0>(GetParam()) + 4);
  for (int trial = 0; trial < 30; ++trial) {
    std::int64_t a = rng.uniform_int(0, kSpan);
    std::int64_t b = rng.uniform_int(0, kSpan);
    expect_matches(object_at_random_row(rng),
                   {TimePoint(std::min(a, b)), TimePoint(std::max(a, b))},
                   trial);
  }
}

// An absent object selects nothing and decodes nothing: every cold block is
// skipped on its dictionary, and hot blocks compare the column and find no
// row.
TEST_P(TrajectoryDifferential, AbsentObjectSkipsEveryColdBlock) {
  const TimeInterval half{TimePoint(0), TimePoint(kSpan / 2)};
  for (TimeInterval window : {TimeInterval::all(), half}) {
    MorselStats ms;
    EXPECT_TRUE(store_.scan_object(ObjectId(kAbsent), window, &ms).empty());
    EXPECT_TRUE(scan_object_brute(store_, ObjectId(kAbsent), window).empty());
    EXPECT_EQ(ms.cold_blocks_skipped, store_.cold_block_count());
    EXPECT_EQ(ms.cold_blocks_scanned, 0u);
    EXPECT_EQ(ms.decode_morsels, 0u);
    EXPECT_EQ(ms.rows_selected, 0u);
  }
}

// A short-lived object's cold blocks are skipped wherever it is absent and
// scanned wherever it is present; hot blocks carry no object summary, so
// each is compared.
TEST_P(TrajectoryDifferential, ShortLivedObjectSkipsOnlyColdBlocksWithoutIt) {
  ObjectId object(5'000);  // rows 0..999: block 0 only
  MorselStats ms;
  auto got = store_.scan_object(object, TimeInterval::all(), &ms);
  EXPECT_TRUE(got == scan_object_brute(store_, object, TimeInterval::all()));
  EXPECT_FALSE(got.empty());
  std::size_t cold = store_.cold_block_count();
  EXPECT_EQ(ms.cold_blocks_scanned, cold > 0 ? 1u : 0u);
  EXPECT_EQ(ms.cold_blocks_skipped, cold > 0 ? cold - 1 : 0u);
  EXPECT_EQ(ms.blocks_skipped - ms.cold_blocks_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTiers, TrajectoryDifferential,
    ::testing::Combine(::testing::Values(5, 77, 20261019),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_tiered" : "_hot");
    });

}  // namespace
}  // namespace stcn
