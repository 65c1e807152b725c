// Time-ordered block scans against a reference that shares nothing with
// the store.
//
// A block whose zone proves its rows time-sorted answers a window with two
// binary searches on the time column instead of a time filter. The
// CentralizedIndex oracle runs the same store scans, so a wrong cut or a
// stale time_sorted flag would agree with itself there. The reference here
// is a plain loop over a Detection vector: no zones, no blocks, no store
// scans. Every query kind (range, circle, k-NN, trajectory, camera window,
// count with and without group-by, heatmap) is checked on stores that are
// sorted, sorted with runs of equal times, out of order at a block's first,
// middle or last row, tiered, compacted, round-tripped through a
// PartitionSnapshot, and installed by a worker that then replays — over
// windows that start or end exactly on a row time or a block edge, and
// empty, negative, all-time and past-the-end windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/worker.h"
#include "index/detection_store.h"
#include "query/executor.h"

namespace stcn {
namespace {

constexpr double kWorld = 1000.0;
constexpr std::size_t kB = kDetectionBlockRows;
constexpr std::size_t kRows = 3 * kB + 1500;
constexpr std::uint64_t kCameras = 12;
constexpr std::uint64_t kObjects = 30;

/// How a store's rows are laid out in time.
enum class Order {
  kSorted,      // strictly increasing times
  kEqualRuns,   // non-decreasing, with runs of equal times
  kFirstRow,    // block 1's first row later than the rows after it
  kMiddleRow,   // one row in the middle of block 1 earlier than its predecessor
  kLastRow,     // block 1's last row earlier than its predecessor
};

std::string order_name(Order o) {
  switch (o) {
    case Order::kSorted: return "Sorted";
    case Order::kEqualRuns: return "EqualRuns";
    case Order::kFirstRow: return "FirstRow";
    case Order::kMiddleRow: return "MiddleRow";
    case Order::kLastRow: return "LastRow";
  }
  return "?";
}

Detection make_row(Rng& rng, std::uint64_t id, std::int64_t t) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1 + rng.uniform_index(kCameras));
  d.object = ObjectId(1 + rng.uniform_index(kObjects));
  d.time = TimePoint(t);
  d.position = {rng.uniform(0, kWorld), rng.uniform(0, kWorld)};
  d.confidence = rng.uniform(0, 1);
  d.appearance.values = {static_cast<float>(rng.uniform(-1, 1)),
                         static_cast<float>(rng.uniform(-1, 1))};
  return d;
}

/// `n` rows laid out as `order` says. In kEqualRuns each block holds one
/// camera, so camera windows also take the zone-proven identity path.
std::vector<Detection> rows_in(Order order, std::size_t n,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Detection> rows;
  std::int64_t t = 5'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    bool step = order != Order::kEqualRuns || rng.uniform_index(4) == 0;
    if (step) t += 1 + static_cast<std::int64_t>(rng.uniform_index(40));
    rows.push_back(make_row(rng, i + 1, t));
    if (order == Order::kEqualRuns) rows.back().camera = CameraId(1 + i / kB);
  }
  auto time_of = [&](std::size_t i) { return rows[i].time; };
  switch (order) {
    case Order::kFirstRow:
      rows[kB].time = time_of(kB + 3) + Duration::micros(1);
      break;
    case Order::kMiddleRow:
      rows[kB + kB / 2].time =
          time_of(kB + kB / 2 - 1) - Duration::micros(200);
      break;
    case Order::kLastRow:
      rows[2 * kB - 1].time = time_of(2 * kB - 2) - Duration::micros(1);
      break;
    default:
      break;
  }
  return rows;
}

DetectionStore build(const std::vector<Detection>& rows, bool tiered) {
  DetectionStore store;
  if (tiered) store.set_tier_config({true, 1});
  for (const Detection& d : rows) (void)store.append(d);
  return store;
}

/// The store's rows read back one at a time (cold rows decode to their
/// quantized positions, which is what every scan sees).
std::vector<Detection> rows_of(const DetectionStore& store) {
  std::vector<Detection> out;
  out.reserve(store.size());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    out.push_back(store.get(static_cast<DetectionRef>(i)));
  }
  return out;
}

// ------------------------------------------------------ brute-force answers

template <typename Keep>
std::vector<std::uint32_t> brute(const std::vector<Detection>& rows,
                                 const TimeInterval& interval, Keep keep) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    if (interval.contains(rows[i].time) && keep(rows[i])) out.push_back(i);
  }
  return out;
}

std::vector<std::uint64_t> brute_knn(const std::vector<Detection>& rows,
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
  for (const auto& [d2, id] : hits) ids.push_back(id);
  return ids;
}

CountPairs tally(const std::map<std::uint64_t, std::uint64_t>& counts) {
  return {counts.begin(), counts.end()};
}

std::vector<std::uint32_t> indices(const std::vector<DetectionRef>& refs) {
  std::vector<std::uint32_t> out;
  for (DetectionRef r : refs) out.push_back(to_index(r));
  return out;
}

/// Windows aimed at the cut's edges: exactly on row times and block edges,
/// one microsecond either side of them, empty, negative, all-time, before
/// the first row and past the last.
std::vector<TimeInterval> windows_for(const std::vector<Detection>& rows,
                                      std::uint64_t seed) {
  auto t = [&](std::size_t i) { return rows[i].time; };
  auto [lo_it, hi_it] = std::minmax_element(
      rows.begin(), rows.end(),
      [](const Detection& a, const Detection& b) { return a.time < b.time; });
  TimePoint first = lo_it->time;
  TimePoint last = hi_it->time;
  const Duration us = Duration::micros(1);
  std::vector<TimeInterval> out = {
      TimeInterval::all(),
      {first, last + us},
      {first, last},
      {last + us, last + Duration::seconds(1)},     // past the end
      {first - Duration::seconds(1), first},        // ends on the first row
      {first - Duration::seconds(1), first + us},   // holds the first time
      {last, last + us},                            // the last time only
  };
  for (std::size_t edge = kB; edge < rows.size(); edge += kB) {
    TimePoint before = t(edge - 1);
    TimePoint at = t(edge);
    out.push_back({first, at});
    out.push_back({at, last + us});
    out.push_back({before, at});
    out.push_back({before, at + us});
    out.push_back({at, at + us});
    out.push_back({before + us, at});
    out.push_back({t(edge - kB / 2), t(edge + 7 < rows.size() ? edge + 7
                                                              : edge)});
  }
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    std::size_t a = rng.uniform_index(rows.size());
    std::size_t b = rng.uniform_index(rows.size());
    if (t(a) > t(b)) std::swap(a, b);
    out.push_back({t(a), t(b)});
    out.push_back({t(a), t(a) + us});
    out.push_back({t(a), t(a)});                 // empty
    out.push_back({t(b) + us, t(a)});            // negative
    out.push_back({t(a) + us, t(b) - us});
    out.push_back({t(a) - us, t(b) + us});
  }
  return out;
}

/// Checks every query kind on `store` against brute force over its rows,
/// for every window. `what` names the store in failure messages.
void check_store(const DetectionStore& store, const std::string& what,
                 std::uint64_t seed) {
  std::vector<Detection> rows = rows_of(store);
  ASSERT_FALSE(rows.empty()) << what;

  // The zone's flag says exactly whether the block's times never decrease.
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    auto [first, last] = store.block_rows(b);
    bool sorted = std::is_sorted(
        rows.begin() + first, rows.begin() + last,
        [](const Detection& a, const Detection& c) { return a.time < c.time; });
    ASSERT_EQ(store.zone(b).time_sorted, sorted) << what << " block " << b;
  }

  Rng rng(seed);
  Rect region = Rect::spanning({rng.uniform(0, 400), rng.uniform(0, 400)},
                               {rng.uniform(500, kWorld),
                                rng.uniform(500, kWorld)});
  Rect everywhere{{-1, -1}, {kWorld + 1, kWorld + 1}};
  Circle circle{{rng.uniform(200, 800), rng.uniform(200, 800)},
                rng.uniform(150, 450)};
  Circle covering{{kWorld / 2, kWorld / 2}, kWorld};
  CameraId camera(1 + rng.uniform_index(kCameras));
  ObjectId object(1 + rng.uniform_index(kObjects));
  Point center{rng.uniform(0, kWorld), rng.uniform(0, kWorld)};
  double cell = 125.0;

  std::vector<TimeInterval> windows = windows_for(rows, seed + 1);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const TimeInterval& iv = windows[w];
    std::string where = what + " window " + std::to_string(w);

    for (const Rect& r : {region, everywhere}) {
      auto want = brute(rows, iv, [&](const Detection& d) {
        return r.contains(d.position);
      });
      MorselStats ms;
      EXPECT_EQ(indices(store.scan_range(r, iv, &ms)),
                iv.empty() ? std::vector<std::uint32_t>{} : want)
          << where << " range";
      // Block by block, with no early exit for an empty or negative window.
      std::vector<std::uint32_t> got;
      std::uint32_t sel[kDetectionBlockRows];
      MorselStats bs;
      for (std::size_t b = 0; b < store.block_count(); ++b) {
        std::uint32_t n = store.scan_range_block(b, r, iv, sel, bs);
        got.insert(got.end(), sel, sel + n);
      }
      EXPECT_EQ(got, want) << where << " range blocks";
      EXPECT_EQ(bs.rows_selected, want.size()) << where;
    }

    for (const Circle& c : {circle, covering}) {
      auto want = brute(rows, iv, [&](const Detection& d) {
        return c.contains(d.position);
      });
      EXPECT_EQ(indices(store.scan_circle(c, iv)),
                iv.empty() ? std::vector<std::uint32_t>{} : want)
          << where << " circle";
      std::vector<std::uint32_t> got;
      std::uint32_t sel[kDetectionBlockRows];
      MorselStats bs;
      for (std::size_t b = 0; b < store.block_count(); ++b) {
        std::uint32_t n = store.scan_circle_block(b, c, iv, sel, bs);
        got.insert(got.end(), sel, sel + n);
      }
      EXPECT_EQ(got, want) << where << " circle blocks";
    }

    if (iv.empty()) {
      EXPECT_TRUE(store.scan_camera(camera, iv).empty()) << where;
      EXPECT_TRUE(store.scan_object(object, iv).empty()) << where;
      EXPECT_TRUE(store.scan_knn(center, 5, iv).empty()) << where;
      continue;
    }

    for (CameraId cam : {camera, rows[rows.size() / 2].camera}) {
      EXPECT_EQ(indices(store.scan_camera(cam, iv)),
                brute(rows, iv,
                      [&](const Detection& d) { return d.camera == cam; }))
          << where << " camera " << cam.value();
    }
    EXPECT_EQ(indices(store.scan_object(object, iv)),
              brute(rows, iv,
                    [&](const Detection& d) { return d.object == object; }))
        << where << " trajectory";

    for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
      std::vector<std::uint64_t> got;
      for (DetectionRef r : store.scan_knn(center, k, iv)) {
        got.push_back(store.id_of(r).value());
      }
      EXPECT_EQ(got, brute_knn(rows, center, k, iv))
          << where << " knn k=" << k;
    }

    auto in_region = brute(rows, iv, [&](const Detection& d) {
      return region.contains(d.position);
    });
    std::map<std::uint64_t, std::uint64_t> by_camera;
    std::map<std::uint64_t, std::uint64_t> by_cell;
    Query heatmap = Query::heatmap(QueryId(3), region, cell, iv);
    for (std::uint32_t i : in_region) {
      ++by_camera[rows[i].camera.value()];
      ++by_cell[heatmap.heatmap_cell(rows[i].position)];
    }
    EXPECT_EQ(LocalExecutor::execute(store, Query::count(QueryId(1), region,
                                                         iv))
                  .counts,
              (CountPairs{{0, in_region.size()}}))
        << where << " count";
    EXPECT_EQ(LocalExecutor::execute(
                  store, Query::count(QueryId(2), region, iv, GroupBy::kCamera))
                  .counts,
              tally(by_camera))
        << where << " count by camera";
    EXPECT_EQ(LocalExecutor::execute(store, heatmap).counts, tally(by_cell))
        << where << " heatmap";
  }
}

class TimeOrderedScan
    : public ::testing::TestWithParam<std::tuple<Order, bool>> {
 protected:
  Order order() const { return std::get<0>(GetParam()); }
  bool tiered() const { return std::get<1>(GetParam()); }
  std::uint64_t seed() const {
    return 17 + 101 * static_cast<std::uint64_t>(order()) + (tiered() ? 7 : 0);
  }
  std::string name() const {
    return order_name(order()) + (tiered() ? " tiered" : " hot");
  }
};

TEST_P(TimeOrderedScan, BuiltStoreMatchesBruteForce) {
  DetectionStore store = build(rows_in(order(), kRows, seed()), tiered());
  ASSERT_EQ(store.cold_block_count(), tiered() ? 2u : 0u);
  bool block1_sorted =
      order() == Order::kSorted || order() == Order::kEqualRuns;
  ASSERT_TRUE(store.zone(0).time_sorted);
  ASSERT_EQ(store.zone(1).time_sorted, block1_sorted);
  check_store(store, name(), seed());
}

TEST_P(TimeOrderedScan, CompactedStoreMatchesBruteForce) {
  std::vector<Detection> rows = rows_in(order(), kRows, seed());
  WorkerIndexes indexes;
  indexes.store.set_tier_config({tiered(), 1});
  for (const Detection& d : rows) (void)indexes.store.append(d);
  indexes.index_rows_from(0);
  // A horizon inside block 1: block 0 expires whole, block 1 is cut row by
  // row, and the rest is copied in bulk (cold blocks adopted verbatim).
  TimePoint horizon = rows[kB + 1000].time;
  std::size_t kept = static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(),
                    [&](const Detection& d) { return d.time >= horizon; }));
  (void)indexes.compact(horizon);
  ASSERT_EQ(indexes.store.size(), kept);
  check_store(indexes.store, name() + " compacted", seed() + 1);
}

TEST_P(TimeOrderedScan, SnapshotRoundTripMatchesBruteForce) {
  DetectionStore store = build(rows_in(order(), kRows, seed()), tiered());
  PartitionSnapshot snap;
  (void)snap.capture(store, /*rewrite=*/true);
  DetectionStore restored;
  ASSERT_TRUE(snap.restore(restored));
  ASSERT_EQ(restored.block_count(), store.block_count());
  ASSERT_EQ(restored.cold_block_count(), store.cold_block_count());
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    EXPECT_EQ(restored.zone(b).time_sorted, store.zone(b).time_sorted) << b;
  }
  check_store(restored, name() + " restored", seed() + 2);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersTiers, TimeOrderedScan,
    ::testing::Combine(::testing::Values(Order::kSorted, Order::kEqualRuns,
                                         Order::kFirstRow, Order::kMiddleRow,
                                         Order::kLastRow),
                       ::testing::Bool()),
    [](const auto& info) {
      return order_name(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Tiered" : "Hot");
    });

// ------------------------------------------------- worker install + replay

constexpr NodeId kSource{999};

/// Absorbs whatever the worker under test sends upstream.
class SinkNode final : public NetworkNode {
 public:
  [[nodiscard]] NodeId node_id() const override { return kSource; }
  void handle_message(const Message&, SimNetwork&) override {}
};

/// One worker holding partition 0, fed time-ordered batches from one
/// source. Parameter: tiered storage.
class TimeOrderedScanInstall : public ::testing::TestWithParam<bool> {
 protected:
  TimeOrderedScanInstall() : worker_(WorkerId(1), kSource, config(GetParam())) {
    network_.attach(worker_);
    network_.attach(sink_);
    network_.advance_clock_to(TimePoint(Duration::seconds(100).count_micros()));
    worker_.start(network_);
  }

  static WorkerConfig config(bool tiered) {
    WorkerConfig c;
    c.world = {{0, 0}, {kWorld, kWorld}};
    c.send_heartbeats = false;
    c.snapshot_every_ticks = 0;  // the test decides when snapshots run
    c.tiered_storage = tiered;
    c.hot_sealed_blocks = 1;
    return c;
  }

  /// Sends batch `pbid` of `n` rows timed after every row sent so far,
  /// plus `resend` copies of earlier rows.
  void send(std::uint64_t pbid, std::size_t n, std::size_t resend = 0) {
    IngestBatch batch;
    batch.partition = PartitionId(0);
    batch.pbid = pbid;
    for (std::size_t i = 0; i < n; ++i) {
      clock_ += 1 + static_cast<std::int64_t>(rng_.uniform_index(30));
      sent_.push_back(make_row(rng_, sent_.size() + 1, clock_));
      batch.detections.push_back(sent_.back());
    }
    for (std::size_t i = 0; i < resend && !sent_.empty(); ++i) {
      batch.detections.push_back(sent_[rng_.uniform_index(sent_.size())]);
    }
    network_.send({kSource, worker_.node_id(),
                   static_cast<std::uint32_t>(MsgType::kIngestBatch),
                   encode(batch), network_.now(), {}});
    network_.run_until(network_.now() + Duration::millis(1));
  }

  const DetectionStore& store() const {
    const DetectionStore* s = worker_.store_of(PartitionId(0));
    EXPECT_NE(s, nullptr);
    return *s;
  }

  /// Snapshots with pbid 4 parked ahead of a missing pbid 3, so the image
  /// carries a replay tail; loses state; lands `live` newer rows (plus
  /// resends) before recovery when `live` > 0, so the install merges the
  /// image after them; installs from the vault, which replays the tail;
  /// then the stream goes on.
  void crash_and_install(std::size_t live) {
    send(1, 3000);
    send(2, 3000);
    send(4, 2500);
    worker_.take_snapshots(network_.now());
    ASSERT_FALSE(worker_.snapshot_vault().at(PartitionId(0)).tail.empty());
    std::size_t imaged = store().size();
    worker_.lose_state();
    if (live > 0) send(5, live, 200);
    worker_.start_recovery(0, {{PartitionId(0), NodeId(0)}}, {}, network_);
    ASSERT_EQ(worker_.metrics().counter_value("snapshots_installed"), 1u);
    ASSERT_EQ(store().size(), imaged + live);
    send(6, 2000, 100);
  }

  Rng rng_{20261020};
  std::int64_t clock_ = Duration::seconds(90).count_micros();
  std::vector<Detection> sent_;
  WorkerNode worker_;
  SinkNode sink_;
  SimNetwork network_{[] {
    NetworkConfig nc;
    nc.latency_jitter = Duration::zero();
    return nc;
  }()};
};

TEST_P(TimeOrderedScanInstall, BulkInstallThenReplayMatchesBruteForce) {
  ASSERT_NO_FATAL_FAILURE(crash_and_install(0));
  // The image and the stream after it arrive in time order.
  for (std::size_t b = 0; b < store().block_count(); ++b) {
    EXPECT_TRUE(store().zone(b).time_sorted) << b;
  }
  check_store(store(), GetParam() ? "bulk install tiered" : "bulk install",
              31);
}

TEST_P(TimeOrderedScanInstall, MergeInstallThenReplayMatchesBruteForce) {
  ASSERT_NO_FATAL_FAILURE(crash_and_install(1500));
  // Image rows merged in after newer live rows break a block's order.
  bool any_unsorted = false;
  for (std::size_t b = 0; b < store().block_count(); ++b) {
    any_unsorted |= !store().zone(b).time_sorted;
  }
  EXPECT_TRUE(any_unsorted);
  check_store(store(), GetParam() ? "merge install tiered" : "merge install",
              37);
}

INSTANTIATE_TEST_SUITE_P(Tiers, TimeOrderedScanInstall, ::testing::Bool());

}  // namespace
}  // namespace stcn
