// Cross-cutting property tests: invariants that must hold for the whole
// pipeline across randomized scenarios (parameterized over seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baseline/centralized.h"
#include "common/rng.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

TraceConfig config_for_seed(std::uint64_t seed) {
  TraceConfig c;
  c.roads.grid_cols = 6;
  c.roads.grid_rows = 6;
  c.roads.seed = seed;
  c.cameras.camera_count = 18;
  c.cameras.seed = seed + 1;
  c.mobility.object_count = 15;
  c.mobility.seed = seed + 2;
  c.duration = Duration::minutes(3);
  c.seed = seed + 3;
  return c;
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Property 1: every detection ingested is retrievable — the whole-world
// whole-time range query returns exactly the trace.
TEST_P(PipelineProperty, NoDetectionLostEndToEnd) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  QueryResult all = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  EXPECT_EQ(all.detections.size(), trace.detections.size());
}

// Property 2: query results are independent of worker count.
TEST_P(PipelineProperty, ResultsIndependentOfWorkerCount) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  Rng rng(GetParam() * 31);
  Rect region = Rect::centered(
      {rng.uniform(world.min.x, world.max.x),
       rng.uniform(world.min.y, world.max.y)},
      300.0);

  auto run = [&](std::size_t workers) {
    ClusterConfig config;
    config.worker_count = workers;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
        config);
    cluster.ingest_all(trace.detections);
    QueryResult r = cluster.execute(
        Query::range(cluster.next_query_id(), region, TimeInterval::all()));
    std::set<std::uint64_t> ids;
    for (const Detection& d : r.detections) ids.insert(d.id.value());
    return ids;
  };
  auto one = run(1);
  auto four = run(4);
  auto nine = run(9);
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, nine);
}

// Property 3: count queries and range queries agree.
TEST_P(PipelineProperty, CountEqualsRangeCardinality) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config;
  config.worker_count = 4;
  Cluster cluster(world, std::make_unique<HashStrategy>(8), config);
  cluster.ingest_all(trace.detections);

  Rng rng(GetParam() * 17);
  for (int trial = 0; trial < 5; ++trial) {
    Rect region = Rect::centered(
        {rng.uniform(world.min.x, world.max.x),
         rng.uniform(world.min.y, world.max.y)},
        rng.uniform(50.0, 400.0));
    TimeInterval interval{TimePoint(0),
                          TimePoint(rng.uniform_int(1, 180'000'000))};
    QueryResult range = cluster.execute(
        Query::range(cluster.next_query_id(), region, interval));
    QueryResult count = cluster.execute(
        Query::count(cluster.next_query_id(), region, interval));
    EXPECT_EQ(count.total_count(), range.detections.size());
  }
}

// Property 4: trajectory queries return each object's detections exactly,
// partitioned across objects (no leakage between objects), and a bounded
// window returns exactly the object's trace rows inside it, in (time, id)
// order — including windows whose edges sit on the object's own row times.
TEST_P(PipelineProperty, TrajectoriesPartitionTheTrace) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  std::size_t total = 0;
  std::set<std::uint64_t> seen;
  for (std::uint64_t obj = 1; obj <= 15; ++obj) {
    QueryResult r = cluster.execute(Query::trajectory(
        cluster.next_query_id(), ObjectId(obj), TimeInterval::all()));
    for (const Detection& d : r.detections) {
      EXPECT_EQ(d.object, ObjectId(obj));
      EXPECT_TRUE(seen.insert(d.id.value()).second);
    }
    total += r.detections.size();
  }
  EXPECT_EQ(total, trace.detections.size());

  auto trace_filter = [&](ObjectId obj, const TimeInterval& window) {
    std::vector<std::pair<TimePoint, std::uint64_t>> rows;
    for (const Detection& d : trace.detections) {
      if (d.object == obj && window.contains(d.time)) {
        rows.emplace_back(d.time, d.id.value());
      }
    }
    std::sort(rows.begin(), rows.end());
    std::vector<std::uint64_t> ids;
    for (const auto& row : rows) ids.push_back(row.second);
    return ids;
  };
  Rng rng(GetParam() * 31);
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId obj(1 + rng.uniform_index(15));
    TimeInterval window;
    if (trial % 2 == 0) {
      std::int64_t a = rng.uniform_int(0, 180'000'000);
      window = {TimePoint(a), TimePoint(a + rng.uniform_int(1, 60'000'000))};
    } else {
      // Edged on two of the object's own detection times: the row at the
      // begin edge is in, the row at the end edge is out.
      std::vector<TimePoint> times;
      for (const Detection& d : trace.detections) {
        if (d.object == obj) times.push_back(d.time);
      }
      if (times.size() < 2) continue;
      std::sort(times.begin(), times.end());
      std::size_t i = rng.uniform_index(times.size() - 1);
      std::size_t j = i + 1 + rng.uniform_index(times.size() - 1 - i);
      window = {times[i], times[j]};
    }
    QueryResult r = cluster.execute(
        Query::trajectory(cluster.next_query_id(), obj, window));
    std::vector<std::uint64_t> ids;
    for (const Detection& d : r.detections) ids.push_back(d.id.value());
    EXPECT_EQ(ids, trace_filter(obj, window)) << "trial " << trial;
  }
}

// Property 5: k-NN results grow monotonically with k and are prefix-stable.
TEST_P(PipelineProperty, KnnMonotoneInK) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  CentralizedIndex index(world);
  index.ingest_all(trace.detections);

  Point center = world.center();
  std::vector<double> prev_distances;
  for (std::uint32_t k : {1u, 3u, 8u, 20u}) {
    QueryResult r = index.execute(
        Query::knn(QueryId(k), center, k, TimeInterval::all()));
    ASSERT_LE(r.detections.size(), k);
    std::vector<double> distances;
    for (const Detection& d : r.detections) {
      distances.push_back(distance(d.position, center));
    }
    for (std::size_t i = 1; i < distances.size(); ++i) {
      EXPECT_LE(distances[i - 1], distances[i]);
    }
    // Previous k's distance sequence must be a prefix of this one's.
    for (std::size_t i = 0; i < prev_distances.size(); ++i) {
      ASSERT_LT(i, distances.size());
      EXPECT_DOUBLE_EQ(prev_distances[i], distances[i]);
    }
    prev_distances = distances;
  }
}

// Property 6: the wire codecs survive every message produced by a run
// (exercised implicitly end-to-end; here, explicit fuzz of random queries).
TEST_P(PipelineProperty, QueryCodecFuzz) {
  Rng rng(GetParam() * 101);
  for (int i = 0; i < 200; ++i) {
    Query q;
    q.id = QueryId(rng.next_u64());
    q.kind = static_cast<QueryKind>(rng.uniform_index(6));
    q.interval = {TimePoint(rng.uniform_int(-1000, 1000)),
                  TimePoint(rng.uniform_int(-1000, 1000))};
    q.region = Rect::spanning({rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)},
                              {rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)});
    q.circle = {{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)},
                rng.uniform(0.0, 1e6)};
    q.k = static_cast<std::uint32_t>(rng.uniform_index(1000));
    q.object = ObjectId(rng.next_u64());
    q.camera = CameraId(rng.next_u64());
    BinaryWriter w;
    serialize(w, q);
    BinaryReader r(w.bytes());
    Query back = deserialize_query(r);
    ASSERT_FALSE(r.failed());
    ASSERT_EQ(back.id, q.id);
    ASSERT_EQ(back.kind, q.kind);
    ASSERT_EQ(back.k, q.k);
    ASSERT_EQ(back.region, q.region);
  }
}

// Property 7: a distributed camera-window answer is exactly the raw trace
// filtered by camera and half-open window, in (time, id) order — checked by
// brute force rather than against the oracle, which runs the same executor.
TEST_P(PipelineProperty, CameraWindowsMatchBruteForce) {
  Trace trace = TraceGenerator::generate(config_for_seed(GetParam()));
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  // Window edges sit on detection times so both half-open bounds bite.
  std::vector<TimePoint> times;
  for (const Detection& d : trace.detections) times.push_back(d.time);
  std::sort(times.begin(), times.end());
  ASSERT_GE(times.size(), 4u);
  TimePoint q1 = times[times.size() / 4];
  TimePoint mid = times[times.size() / 2];
  TimePoint q3 = times[3 * times.size() / 4];
  std::vector<TimeInterval> windows = {
      {times.front(), q1}, {q1, mid}, {mid, q3 + Duration::seconds(1)}};

  std::size_t matched = 0;
  for (const Camera& cam : trace.cameras.cameras()) {
    for (const TimeInterval& window : windows) {
      std::vector<const Detection*> expected;
      for (const Detection& d : trace.detections) {
        if (d.camera == cam.id && d.time >= window.begin &&
            d.time < window.end) {
          expected.push_back(&d);
        }
      }
      std::sort(expected.begin(), expected.end(),
                [](const Detection* a, const Detection* b) {
                  if (a->time != b->time) return a->time < b->time;
                  return a->id < b->id;
                });
      QueryResult r = cluster.execute(
          Query::camera_window(cluster.next_query_id(), cam.id, window));
      ASSERT_EQ(r.detections.size(), expected.size())
          << "camera " << cam.id.value();
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.detections[i].id, expected[i]->id);
      }
      matched += expected.size();
    }
  }
  EXPECT_GT(matched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace stcn
