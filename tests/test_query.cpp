#include "query/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/executor.h"
#include "query/result.h"
#include "support/reference_aggregates.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t,
                         std::uint64_t object = 1, std::uint64_t camera = 1) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(camera);
  d.object = ObjectId(object);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

class ExecutorFixture : public ::testing::Test {
 protected:
  ExecutorFixture() {
    // A small fixed dataset exercised by every query kind.
    store_.append(make_detection(1, {10, 10}, 100, /*object=*/1, /*camera=*/1));
    store_.append(make_detection(2, {20, 20}, 200, 1, 2));
    store_.append(make_detection(3, {80, 80}, 300, 2, 3));
    store_.append(make_detection(4, {15, 15}, 400, 2, 1));
    store_.append(make_detection(5, {50, 50}, 500, 3, 2));
  }

  DetectionStore store_;
};

TEST_F(ExecutorFixture, RangeQuery) {
  Query q = Query::range(QueryId(1), {{0, 0}, {30, 30}}, TimeInterval::all());
  QueryResult r = LocalExecutor::execute(store_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 4}));
}

TEST_F(ExecutorFixture, RangeQueryWithTimeFilter) {
  Query q = Query::range(QueryId(1), {{0, 0}, {30, 30}},
                         {TimePoint(150), TimePoint(450)});
  QueryResult r = LocalExecutor::execute(store_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{2, 4}));
}

TEST_F(ExecutorFixture, CircleQuery) {
  Query q = Query::circle_query(QueryId(1), {{12, 12}, 5.0},
                                TimeInterval::all());
  QueryResult r = LocalExecutor::execute(store_, q);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 4}));
}

TEST_F(ExecutorFixture, KnnQuery) {
  Query q = Query::knn(QueryId(1), {10, 10}, 2, TimeInterval::all());
  QueryResult r = LocalExecutor::execute(store_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 4}));
}

TEST_F(ExecutorFixture, TrajectoryQuery) {
  Query q = Query::trajectory(QueryId(1), ObjectId(2), TimeInterval::all());
  QueryResult r = LocalExecutor::execute(store_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  EXPECT_EQ(r.detections[0].id, DetectionId(3));
  EXPECT_EQ(r.detections[1].id, DetectionId(4));
}

TEST_F(ExecutorFixture, CountQueryUngrouped) {
  Query q = Query::count(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = LocalExecutor::execute(store_, q);
  EXPECT_TRUE(r.detections.empty());
  EXPECT_EQ(r.total_count(), 5u);
}

TEST_F(ExecutorFixture, CountQueryGroupedByCamera) {
  Query q = Query::count(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all(), GroupBy::kCamera);
  QueryResult r = LocalExecutor::execute(store_, q);
  EXPECT_EQ(r.count_of(1), 2u);
  EXPECT_EQ(r.count_of(2), 2u);
  EXPECT_EQ(r.count_of(3), 1u);
  EXPECT_EQ(r.total_count(), 5u);
}

TEST_F(ExecutorFixture, CameraWindowQuery) {
  Query q = Query::camera_window(QueryId(1), CameraId(1),
                                 {TimePoint(0), TimePoint(450)});
  QueryResult r = LocalExecutor::execute(store_, q);
  ASSERT_EQ(r.detections.size(), 2u);
  EXPECT_EQ(r.detections[0].id, DetectionId(1));
  EXPECT_EQ(r.detections[1].id, DetectionId(4));
}

std::vector<std::uint64_t> camera_window_ids(const DetectionStore& store,
                                             CameraId camera,
                                             TimeInterval window) {
  Query q = Query::camera_window(QueryId(1), camera, window);
  ResultMerger merger(q);
  merger.add(LocalExecutor::execute(store, q));
  std::vector<std::uint64_t> ids;
  for (const Detection& d : merger.take().detections) {
    ids.push_back(d.id.value());
  }
  return ids;
}

TEST_F(ExecutorFixture, CameraWindowOutOfOrderArrival) {
  // Late arrivals for camera 1: rows land after newer detections.
  store_.append(make_detection(6, {12, 12}, 250, 4, 1));
  store_.append(make_detection(7, {14, 14}, 50, 4, 1));
  EXPECT_EQ(camera_window_ids(store_, CameraId(1), TimeInterval::all()),
            (std::vector<std::uint64_t>{7, 1, 6, 4}));
  EXPECT_EQ(camera_window_ids(store_, CameraId(1),
                              {TimePoint(60), TimePoint(300)}),
            (std::vector<std::uint64_t>{1, 6}));
}

TEST_F(ExecutorFixture, CameraWindowHalfOpen) {
  // [begin, end): a detection at `begin` is in, one at `end` is out.
  EXPECT_EQ(camera_window_ids(store_, CameraId(1),
                              {TimePoint(100), TimePoint(400)}),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(camera_window_ids(store_, CameraId(1),
                              {TimePoint(101), TimePoint(401)}),
            (std::vector<std::uint64_t>{4}));
}

TEST_F(ExecutorFixture, CameraWindowUnknownCameraAndEmptyWindow) {
  EXPECT_TRUE(
      camera_window_ids(store_, CameraId(99), TimeInterval::all()).empty());
  EXPECT_TRUE(camera_window_ids(store_, CameraId(1),
                                {TimePoint(100), TimePoint(100)})
                  .empty());
  EXPECT_TRUE(camera_window_ids(store_, CameraId(1),
                                {TimePoint(400), TimePoint(100)})
                  .empty());
}

// k-NN runs on the store and reports its block work like the other scans:
// with the first blocks far away along x, a k-NN at the far end scans the
// near block and counts the early ones skipped.
TEST(LocalExecutorKnn, FarQuerySkipsEarlyBlocksInScanStats) {
  DetectionStore store;
  for (std::uint64_t i = 0; i < 3 * kDetectionBlockRows; ++i) {
    double x = static_cast<double>(i / kDetectionBlockRows) * 1000.0 +
               static_cast<double>(i % 100);
    store.append(
        make_detection(i + 1, {x, 50}, static_cast<std::int64_t>(i)));
  }
  ASSERT_EQ(store.block_count(), 3u);
  ScanStats stats;
  QueryResult r = LocalExecutor::execute(
      store, Query::knn(QueryId(1), {2050, 50}, 5, TimeInterval::all()),
      &stats);
  ASSERT_EQ(r.detections.size(), 5u);
  for (const Detection& d : r.detections) {
    EXPECT_GE(d.position.x, 2000.0);
  }
  EXPECT_EQ(stats.store.blocks_scanned, 1u);
  EXPECT_EQ(stats.store.blocks_skipped, 2u);
  EXPECT_GT(stats.store.rows_evaluated, 0u);
  EXPECT_EQ(stats.rows_scanned, 5u);
}

TEST(ResultMerger, DedupsDuplicateDetections) {
  Query q = Query::range(QueryId(9), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  ResultMerger merger(q);
  QueryResult a;
  a.query = q.id;
  a.detections = {make_detection(1, {1, 1}, 100),
                  make_detection(2, {2, 2}, 200)};
  QueryResult b;
  b.query = q.id;
  b.detections = {make_detection(2, {2, 2}, 200),   // duplicate
                  make_detection(3, {3, 3}, 50)};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  ASSERT_EQ(merged.detections.size(), 3u);
  // Time-ordered.
  EXPECT_EQ(merged.detections[0].id, DetectionId(3));
  EXPECT_EQ(merged.detections[1].id, DetectionId(1));
  EXPECT_EQ(merged.detections[2].id, DetectionId(2));
}

TEST(ResultMerger, KnnKeepsGlobalTopK) {
  Query q = Query::knn(QueryId(9), {0, 0}, 2, TimeInterval::all());
  ResultMerger merger(q);
  QueryResult a;
  a.detections = {make_detection(1, {10, 0}, 0), make_detection(2, {1, 0}, 0)};
  QueryResult b;
  b.detections = {make_detection(3, {5, 0}, 0), make_detection(4, {20, 0}, 0)};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  ASSERT_EQ(merged.detections.size(), 2u);
  EXPECT_EQ(merged.detections[0].id, DetectionId(2));  // distance 1
  EXPECT_EQ(merged.detections[1].id, DetectionId(3));  // distance 5
}

TEST(ResultMerger, SumsCounts) {
  Query q = Query::count(QueryId(9), {{0, 0}, {1, 1}}, TimeInterval::all(),
                         GroupBy::kCamera);
  ResultMerger merger(q);
  QueryResult a;
  a.counts = {{1, 5}, {2, 3}};
  QueryResult b;
  b.counts = {{2, 2}, {3, 7}};
  merger.add(a);
  merger.add(b);
  QueryResult merged = merger.take();
  EXPECT_EQ(merged.count_of(1), 5u);
  EXPECT_EQ(merged.count_of(2), 5u);
  EXPECT_EQ(merged.count_of(3), 7u);
  EXPECT_EQ(merged.total_count(), 17u);
}

// A copy of one row from a holder whose block is already demoted carries a
// position off by the cold tier's quantum. A row between the two copies in
// distance must not keep both of them in a k-NN answer.
TEST(ResultMerger, KnnDropsDuplicateWithRequantizedPosition) {
  Query q = Query::knn(QueryId(9), {0, 0}, 3, TimeInterval::all());
  ResultMerger merger(q);
  QueryResult hot;
  hot.detections = {make_detection(5, {3, 4}, 0), make_detection(7, {4, 3}, 0)};
  QueryResult cold;
  cold.detections = {make_detection(5, {3 + 0x1p-21, 4}, 0),
                     make_detection(9, {10, 0}, 0)};
  merger.add(std::move(hot));
  merger.add(std::move(cold));
  std::vector<std::uint64_t> ids;
  for (const Detection& d : merger.take().detections) {
    ids.push_back(d.id.value());
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{5, 7, 9}));
}

// --------------------------------------- merger vs a reference union

/// The merge written without ResultMerger: a first-seen hash-set union of
/// the fragments in arrival order, then the query's sort and cut.
QueryResult reference_merge(const Query& q,
                            const std::vector<QueryResult>& fragments) {
  QueryResult out;
  out.query = q.id;
  std::unordered_set<std::uint64_t> seen;
  CountMap counts;
  for (const QueryResult& f : fragments) {
    for (const Detection& d : f.detections) {
      if (seen.insert(d.id.value()).second) out.detections.push_back(d);
    }
    for (const auto& [key, n] : f.counts) counts[key] += n;
  }
  out.counts = to_pairs(counts);
  auto& ds = out.detections;
  if (q.kind == QueryKind::kKnn) {
    Point c = q.circle.center;
    std::sort(ds.begin(), ds.end(), [c](const Detection& a, const Detection& b) {
      double da = squared_distance(a.position, c);
      double db = squared_distance(b.position, c);
      return da != db ? da < db : a.id < b.id;
    });
    if (ds.size() > q.k) ds.resize(q.k);
  } else {
    std::sort(ds.begin(), ds.end(), [](const Detection& a, const Detection& b) {
      return a.time != b.time ? a.time < b.time : a.id < b.id;
    });
    if (q.limit > 0 && ds.size() > q.limit) ds.resize(q.limit);
  }
  return out;
}

/// Rows on a small lattice around the origin with few distinct times, so
/// both orders have many ties; each row has its own embedding.
std::vector<Detection> lattice_rows(Rng& rng, std::size_t n) {
  std::vector<Detection> rows;
  for (std::size_t i = 0; i < n; ++i) {
    Point p{static_cast<double>(rng.uniform_int(-3, 3)),
            static_cast<double>(rng.uniform_int(-3, 3))};
    Detection d = make_detection(1000 - i, p, rng.uniform_int(0, 5) * 100,
                                 i % 7, 1 + i % 3);
    d.appearance.values = {static_cast<float>(rng.uniform()),
                           static_cast<float>(rng.uniform())};
    rows.push_back(std::move(d));
  }
  return rows;
}

/// 1–5 fragments drawn from `rows`: some empty, each with in-fragment
/// repeats, overlapping each other, and carrying a few group counts.
std::vector<QueryResult> random_fragments(Rng& rng, const Query& q,
                                          const std::vector<Detection>& rows) {
  std::vector<QueryResult> fragments(1 + rng.uniform_index(5));
  for (QueryResult& f : fragments) {
    f.query = q.id;
    if (rng.bernoulli(0.15)) continue;
    std::size_t n = rng.uniform_index(rows.size() + 1);
    for (std::size_t i = 0; i < n; ++i) {
      f.detections.push_back(rows[rng.uniform_index(rows.size())]);
      if (rng.bernoulli(0.1)) f.detections.push_back(f.detections.back());
    }
    CountMap counts;
    for (int g = 0; g < 3; ++g) counts[rng.uniform_index(4)] += 1;
    f.counts = to_pairs(counts);
  }
  return fragments;
}

QueryResult merge_moving(const Query& q, std::vector<QueryResult> fragments) {
  ResultMerger merger(q);
  for (QueryResult& f : fragments) merger.add(std::move(f));
  return merger.take();
}

TEST(ResultMergerDifferential, TimeOrderWithAndWithoutLimit) {
  Rng rng(19);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Detection> rows = lattice_rows(rng, 1 + rng.uniform_index(40));
    Query q = Query::range(QueryId(trial), {{-5, -5}, {5, 5}},
                           TimeInterval::all());
    if (trial % 2 == 1) {
      q = q.with_limit(static_cast<std::uint32_t>(1 + rng.uniform_index(12)));
    }
    std::vector<QueryResult> fragments = random_fragments(rng, q, rows);
    QueryResult expected = reference_merge(q, fragments);
    QueryResult merged = merge_moving(q, fragments);
    ASSERT_EQ(merged.detections, expected.detections) << "trial " << trial;
    ASSERT_EQ(merged.counts, expected.counts) << "trial " << trial;
    ASSERT_EQ(merged.query, q.id);
  }
}

TEST(ResultMergerDifferential, KnnTiesAndDuplicateAtTheCut) {
  Rng rng(23);
  int tie_trials = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Detection> rows = lattice_rows(rng, 2 + rng.uniform_index(40));
    Query q = Query::knn(QueryId(trial), {0, 0}, 1, TimeInterval::all());
    std::vector<QueryResult> fragments = random_fragments(rng, q, rows);
    // Choose k so the k-th and (k+1)-th rows of the union tie on distance
    // when the union has such a pair, and send the k-th row once more in a
    // fragment of its own.
    q.k = 1'000'000;
    std::vector<Detection> all = reference_merge(q, fragments).detections;
    q.k = static_cast<std::uint32_t>(1 + rng.uniform_index(all.size() + 1));
    for (std::size_t i = 0; i + 1 < all.size(); ++i) {
      if (squared_distance(all[i].position, q.circle.center) ==
          squared_distance(all[i + 1].position, q.circle.center)) {
        q.k = static_cast<std::uint32_t>(i + 1);
        ++tie_trials;
        break;
      }
    }
    if (q.k <= all.size()) {
      QueryResult dup;
      dup.query = q.id;
      dup.detections = {all[q.k - 1]};
      fragments.insert(
          fragments.begin() +
              static_cast<std::ptrdiff_t>(rng.uniform_index(fragments.size())),
          dup);
    }
    QueryResult expected = reference_merge(q, fragments);
    QueryResult merged = merge_moving(q, fragments);
    ASSERT_EQ(merged.detections, expected.detections) << "trial " << trial;
    ASSERT_EQ(merged.counts, expected.counts) << "trial " << trial;
  }
  EXPECT_GT(tie_trials, 200);
}

TEST(ResultMergerDifferential, MovedFromAndEmptyFragmentsAddNothing) {
  Query q = Query::range(QueryId(4), {{-5, -5}, {5, 5}}, TimeInterval::all());
  QueryResult a;
  a.detections = {make_detection(2, {1, 1}, 200),
                  make_detection(1, {0, 0}, 100)};
  a.counts = {{0, 2}};
  QueryResult b;
  b.detections = {make_detection(3, {2, 2}, 50)};
  b.counts = {{0, 1}};
  QueryResult expected = reference_merge(q, {a, b});

  // An empty fragment first: the next one is adopted, not appended to.
  ResultMerger merger(q);
  merger.add(QueryResult{});
  merger.add(std::move(a));
  merger.add(std::move(a));  // moved-from: no rows, no counts
  merger.add(QueryResult{});
  merger.add(b);
  merger.add(std::move(b));  // the same rows again, as a duplicated answer
  merger.add(std::move(b));
  QueryResult merged = merger.take();
  EXPECT_EQ(merged.detections, expected.detections);
  EXPECT_EQ(merged.counts, (CountPairs{{0, 4}}));
  EXPECT_EQ(merged.query, q.id);

  ResultMerger none(q);
  none.add(QueryResult{});
  QueryResult empty = none.take();
  EXPECT_TRUE(empty.detections.empty());
  EXPECT_TRUE(empty.counts.empty());
  EXPECT_EQ(empty.query, q.id);
}

// ------------------------------- aggregates vs the map-based reference

/// 0–3 blocks of rows on a 100 × 100 world over 10 s, cameras drawn from a
/// few small ids and a few just below 2^64; older blocks sometimes demoted
/// to the cold tier.
DetectionStore random_partition(Rng& rng, std::uint64_t& next_id) {
  static constexpr std::uint64_t kCameras[] = {
      1, 2, 3, 17, ~0ull, ~0ull - 1, ~0ull - 40};
  DetectionStore store;
  std::size_t n = rng.uniform_index(3 * kDetectionBlockRows + 1);
  for (std::size_t i = 0; i < n; ++i) {
    Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    auto t = static_cast<std::int64_t>(i * 10'000'000 / n);
    (void)store.append(make_detection(
        next_id++, p, t, 1, kCameras[rng.uniform_index(std::size(kCameras))]));
  }
  if (rng.bernoulli(0.5)) store.demote_older_than(TimePoint(5'000'000));
  return store;
}

Query random_aggregate(Rng& rng, QueryId id) {
  Rect region = rng.bernoulli(0.3)
                    ? Rect{{0, 0}, {100, 100}}
                    : Rect::centered({rng.uniform(0, 100), rng.uniform(0, 100)},
                                     rng.uniform(1, 60));
  TimeInterval interval =
      rng.bernoulli(0.3)
          ? TimeInterval::all()
          : TimeInterval{TimePoint(rng.uniform_int(0, 6'000'000)),
                         TimePoint(rng.uniform_int(4'000'000, 11'000'000))};
  switch (rng.uniform_index(3)) {
    case 0:
      return Query::count(id, region, interval);
    case 1:
      return Query::count(id, region, interval, GroupBy::kCamera);
    default:
      return Query::heatmap(id, region, rng.uniform(0.5, 30), interval);
  }
}

/// Folds `stores` into fragments as workers would (stores dealt to
/// `workers` folds, one AggregateFold each, some holding none), sends each
/// fragment through the wire codec and merges them at the coordinator.
/// Also checks each store's LocalExecutor answer and the fragments against
/// the reference.
CountPairs fold_and_merge(const Query& q, const std::vector<DetectionStore>& stores,
                          std::size_t workers, Rng& rng) {
  std::vector<AggregateFold> folds;
  for (std::size_t w = 0; w < workers; ++w) folds.emplace_back(q);
  std::vector<std::vector<CountMap>> held(workers);
  for (const DetectionStore& store : stores) {
    std::size_t w = rng.uniform_index(workers);
    MorselStats ms;
    std::uint64_t scanned = folds[w].add(store, ms);
    CountMap reference = reference_aggregate(store, q);
    held[w].push_back(reference);
    QueryResult alone = LocalExecutor::execute(store, q);
    EXPECT_EQ(alone.counts, to_pairs(reference));
    EXPECT_EQ(scanned, alone.total_count());
  }
  ResultMerger merger(q);
  for (std::size_t w = 0; w < workers; ++w) {
    QueryResult fragment{q.id, {}, folds[w].take()};
    EXPECT_EQ(fragment.counts, to_pairs(reference_merge_counts(held[w])));
    BinaryWriter writer;
    serialize(writer, fragment);
    BinaryReader reader(writer.bytes());
    QueryResult decoded = deserialize_query_result(reader);
    EXPECT_TRUE(reader.at_end());
    merger.add(std::move(decoded));
  }
  return merger.take().counts;
}

TEST(AggregateMerge, RandomFragmentsMatchMapMerge) {
  Rng rng(31);
  std::uint64_t next_id = 1;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<DetectionStore> stores;
    std::size_t partitions = rng.uniform_index(6);
    for (std::size_t p = 0; p < partitions; ++p) {
      stores.push_back(random_partition(rng, next_id));
    }
    std::vector<CountMap> all;
    for (int k = 0; k < 4; ++k) {
      Query q = random_aggregate(rng, QueryId(trial * 4 + k));
      all.clear();
      for (const DetectionStore& s : stores) {
        all.push_back(reference_aggregate(s, q));
      }
      CountPairs merged = fold_and_merge(q, stores, 1 + rng.uniform_index(4), rng);
      ASSERT_EQ(merged, to_pairs(reference_merge_counts(all)))
          << "trial " << trial << " " << query_kind_name(q.kind);
    }
  }
}

TEST(AggregateMerge, UngroupedCountOfZeroKeepsKeyZero) {
  Rng rng(37);
  std::uint64_t next_id = 1;
  std::vector<DetectionStore> stores;
  stores.push_back(random_partition(rng, next_id));
  stores.emplace_back();  // an empty partition
  stores.push_back(random_partition(rng, next_id));
  for (Query q : {Query::count(QueryId(1), {{200, 200}, {300, 300}},
                               TimeInterval::all()),
                  Query::count(QueryId(2), {{0, 0}, {100, 100}},
                               {TimePoint(50'000'000), TimePoint(60'000'000)}),
                  Query::count(QueryId(3), Rect::empty(), TimeInterval::all())}) {
    EXPECT_EQ(LocalExecutor::execute(stores.front(), q).counts,
              (CountPairs{{0, 0}}));
    EXPECT_EQ(fold_and_merge(q, stores, 3, rng), (CountPairs{{0, 0}}));
  }
  // A worker that holds none of the partitions answers no pairs at all.
  Query q = Query::count(QueryId(4), {{0, 0}, {100, 100}}, TimeInterval::all());
  EXPECT_TRUE(AggregateFold(q).take().empty());
}

TEST(AggregateMerge, GroupByCameraIdsNearTopOfRange) {
  DetectionStore a;
  DetectionStore b;
  std::uint64_t cams[] = {~0ull, 0, ~0ull - 1, 1ull << 63, ~0ull, 5};
  for (std::uint64_t i = 0; i < 6; ++i) {
    (void)a.append(make_detection(i + 1, {10, 10}, 100, 1, cams[i]));
    (void)b.append(make_detection(i + 11, {20, 20}, 200, 1, cams[5 - i]));
  }
  Query q = Query::count(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all(), GroupBy::kCamera);
  AggregateFold fold(q);
  MorselStats ms;
  EXPECT_EQ(fold.add(a, ms), 6u);
  EXPECT_EQ(fold.add(b, ms), 6u);
  CountPairs expected = {
      {0, 2}, {5, 2}, {1ull << 63, 2}, {~0ull - 1, 2}, {~0ull, 4}};
  EXPECT_EQ(fold.take(), expected);
  Rng rng(41);
  std::vector<DetectionStore> stores;
  stores.push_back(std::move(a));
  stores.push_back(std::move(b));
  EXPECT_EQ(fold_and_merge(q, stores, 2, rng), expected);
}

TEST(AggregateMerge, OversizedHeatmapGridTakesPairFallback) {
  Rng rng(43);
  std::uint64_t next_id = 1;
  std::vector<DetectionStore> stores;
  for (int p = 0; p < 3; ++p) stores.push_back(random_partition(rng, next_id));
  // 2,500 × 2,500 cells: above the dense limit.
  Query q = Query::heatmap(QueryId(1), {{0, 0}, {100, 100}}, 0.04,
                           TimeInterval::all());
  ASSERT_GT(q.heatmap_cols() * q.heatmap_rows(), AggregateFold::kMaxDenseCells);
  std::vector<CountMap> all;
  for (const DetectionStore& s : stores) all.push_back(reference_aggregate(s, q));
  CountPairs expected = to_pairs(reference_merge_counts(all));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(fold_and_merge(q, stores, 2, rng), expected);
  // Coarse cells so rows share cells and the fallback has sums to make.
  Query coarse = Query::heatmap(QueryId(2), {{0, 0}, {8'200, 4'100}}, 2.0,
                                TimeInterval::all());
  ASSERT_GT(coarse.heatmap_cols() * coarse.heatmap_rows(),
            AggregateFold::kMaxDenseCells);
  all.clear();
  for (const DetectionStore& s : stores) {
    all.push_back(reference_aggregate(s, coarse));
  }
  expected = to_pairs(reference_merge_counts(all));
  std::uint64_t max_count = 0;
  for (auto [cell, n] : expected) max_count = std::max(max_count, n);
  EXPECT_GT(max_count, 1u);
  EXPECT_EQ(fold_and_merge(coarse, stores, 2, rng), expected);
}

TEST(AggregateMerge, WireKeysOutOfOrderOrRepeatedMergeLikeMaps) {
  Rng rng(47);
  Query q = Query::count(QueryId(5), {{0, 0}, {1, 1}}, TimeInterval::all(),
                         GroupBy::kCamera);
  for (int trial = 0; trial < 200; ++trial) {
    ResultMerger merger(q);
    std::vector<CountMap> fragments(1 + rng.uniform_index(5));
    for (CountMap& f : fragments) {
      // Pairs in arbitrary order with repeated keys, written raw.
      CountPairs wire;
      std::size_t n = rng.uniform_index(12);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t key = rng.bernoulli(0.2) ? ~0ull - rng.uniform_index(3)
                                               : rng.uniform_index(8);
        std::uint64_t count = rng.uniform_index(1000);
        wire.emplace_back(key, count);
        f[key] += count;
      }
      BinaryWriter w;
      w.write_id(q.id);
      w.write_u32(0);
      w.write_u32(static_cast<std::uint32_t>(wire.size()));
      for (auto [key, count] : wire) {
        w.write_u64(key);
        w.write_u64(count);
      }
      BinaryReader r(w.bytes());
      QueryResult decoded = deserialize_query_result(r);
      ASSERT_TRUE(r.at_end());
      ASSERT_EQ(decoded.counts, to_pairs(f)) << "trial " << trial;
      merger.add(std::move(decoded));
    }
    ASSERT_EQ(merger.take().counts, to_pairs(reference_merge_counts(fragments)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace stcn
