// Differential tests for the tiered DetectionStore: compression must be
// invisible to scan results. Once a block is demoted, its values are the
// decoded (quantized) ones — time, camera, object, and id losslessly,
// positions and confidence to a documented quantum — so the reference
// answer for every query shape is a naive scan over the store's own
// decoded rows. Every kernel (fused scan-on-compressed, zone skipping,
// the store's best-first k-NN, snapshot round-trips, compaction adoption)
// must agree with that reference exactly. The VaultDifferential suite holds
// a worker's incrementally kept snapshot vault to the same standard: every
// install must equal the full-image round trip of the captured store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "baseline/centralized.h"
#include "common/appearance_kernel.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/worker.h"
#include "index/detection_store.h"
#include "reid/reid_engine.h"
#include "trace/generator.h"

namespace stcn {
namespace {

constexpr double kWorld = 1000.0;

Detection random_detection(Rng& rng, std::uint64_t id, std::size_t dim = 8) {
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
  d.appearance.values.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    d.appearance.values[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return d;
}

std::set<std::uint64_t> ids_of(const DetectionStore& store,
                               const std::vector<DetectionRef>& refs) {
  std::set<std::uint64_t> out;
  for (DetectionRef r : refs) out.insert(store.id_of(r).value());
  return out;
}

// Mixed-tier fixture: ~2.6 blocks demoted cold, one sealed block plus a
// partial tail hot. The reference mirror is read back through get() AFTER
// demotion, so it carries the decoded (quantized) values the kernels must
// reproduce.
class TieredDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kRows = 3 * kDetectionBlockRows + 1500;

  void SetUp() override {
    store_.set_tier_config({true, 1});
    Rng rng(GetParam());
    for (std::uint64_t i = 1; i <= kRows; ++i) {
      (void)store_.append(random_detection(rng, i));
    }
    ASSERT_GT(store_.cold_block_count(), 0u);
    ASSERT_LT(store_.cold_rows(), store_.size());  // hot tail remains
    reference_.reserve(store_.size());
    for (std::uint32_t i = 0; i < store_.size(); ++i) {
      reference_.push_back(store_.get(static_cast<DetectionRef>(i)));
    }
  }

  DetectionStore store_;
  std::vector<Detection> reference_;  // decoded mirror
};

TEST_P(TieredDifferential, RangeMatchesReferenceScan) {
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

TEST_P(TieredDifferential, CircleMatchesReferenceScan) {
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

TEST_P(TieredDifferential, CameraMatchesReferenceScan) {
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

TEST_P(TieredDifferential, KnnMatchesReferenceScan) {
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
    // Brute force over the decoded mirror, by (squared distance, id).
    std::vector<std::pair<double, std::uint64_t>> hits;
    for (const Detection& d : reference_) {
      if (interval.contains(d.time)) {
        hits.emplace_back(squared_distance(d.position, center), d.id.value());
      }
    }
    std::sort(hits.begin(), hits.end());
    if (hits.size() > k) hits.resize(k);
    std::vector<std::uint64_t> expected;
    for (const auto& hit : hits) expected.push_back(hit.second);
    std::vector<std::uint64_t> actual;
    for (DetectionRef r : store_.scan_knn(center, k, interval)) {
      actual.push_back(store_.id_of(r).value());
    }
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST_P(TieredDifferential, SnapshotRoundTripPreservesTiersAndRows) {
  BinaryWriter w;
  store_.serialize_to(w);
  BinaryReader r(w.bytes());
  DetectionStore copy = DetectionStore::deserialize_from(r);
  ASSERT_EQ(copy.size(), store_.size());
  EXPECT_EQ(copy.cold_block_count(), store_.cold_block_count());
  EXPECT_EQ(copy.cold_rows(), store_.cold_rows());
  // Cold codes round-trip bit-identically, hot columns verbatim: every
  // decoded row compares equal.
  for (std::uint32_t i = 0; i < store_.size(); ++i) {
    ASSERT_EQ(copy.get(static_cast<DetectionRef>(i)),
              store_.get(static_cast<DetectionRef>(i)))
        << "row " << i;
  }
  // And the decoded copy scans like the original.
  Rect region{{100, 100}, {700, 800}};
  TimeInterval interval{TimePoint(200'000), TimePoint(900'000)};
  EXPECT_EQ(ids_of(copy, copy.scan_range(region, interval)),
            ids_of(store_, store_.scan_range(region, interval)));
}

TEST_P(TieredDifferential, CompactionAdoptsColdBlocksVerbatim) {
  DetectionStore dst;
  dst.set_tier_config(store_.tier_config());
  (void)dst.append_rows(store_, 0, static_cast<std::uint32_t>(store_.size()));
  ASSERT_EQ(dst.size(), store_.size());
  // Full-store compaction starts at a block boundary with an empty
  // destination, so every cold block is adopted (no re-encode, no
  // re-quantization drift): the codes — and the rows they decode to —
  // carry over verbatim.
  EXPECT_EQ(dst.cold_block_count(), store_.cold_block_count());
  EXPECT_EQ(dst.cold_rows(), store_.cold_rows());
  EXPECT_GT(dst.compressed_bytes(), 0u);
  for (std::uint32_t i = 0; i < store_.size(); ++i) {
    ASSERT_EQ(dst.get(static_cast<DetectionRef>(i)),
              store_.get(static_cast<DetectionRef>(i)))
        << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredDifferential,
                         ::testing::Values(7, 99, 20260807));

// Demotion is lossy only to the documented quanta: positions to half the
// power-of-two quantum covering the block's coordinate range at 30 bits,
// confidence at 15 bits, embeddings to half the per-row int8 scale; ids,
// times, cameras, and objects exactly.
TEST(TieredStore, DemotionErrorWithinDocumentedQuanta) {
  DetectionStore store;
  Rng rng(101);
  std::vector<Detection> originals;
  for (std::uint64_t i = 1; i <= kDetectionBlockRows; ++i) {
    originals.push_back(random_detection(rng, i, 16));
    (void)store.append(originals.back());
  }
  store.set_tier_config({true, 0});  // demotes the sealed block immediately
  ASSERT_EQ(store.cold_block_count(), 1u);
  // 30-bit quantization of a ≤1000 m coordinate range: quantum ≤ 2^-19 m.
  const double pos_tol = std::ldexp(1.0, -20);  // quantum / 2
  // 15 bits over a ≤1 range: quantum 2^-14, error ≤ quantum / 2.
  const double conf_tol = std::ldexp(1.0, -15) + 1e-12;
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    Detection got = store.get(static_cast<DetectionRef>(i));
    const Detection& want = originals[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.camera, want.camera);
    EXPECT_EQ(got.object, want.object);
    EXPECT_EQ(got.time, want.time);
    EXPECT_NEAR(got.position.x, want.position.x, pos_tol);
    EXPECT_NEAR(got.position.y, want.position.y, pos_tol);
    EXPECT_NEAR(got.confidence, want.confidence, conf_tol);
    ASSERT_EQ(got.appearance.values.size(), want.appearance.values.size());
    // int8 over a ≤2 range: scale ≤ 2/254, per-component error ≤ scale/2.
    for (std::size_t c = 0; c < want.appearance.values.size(); ++c) {
      EXPECT_NEAR(got.appearance.values[c], want.appearance.values[c],
                  1.0 / 254.0 + 1e-6)
          << "row " << i << " component " << c;
    }
  }
}

TEST(TieredStore, FillTriggeredDemotionKeepsConfiguredHotWindow) {
  DetectionStore store;
  store.set_tier_config({true, 1});
  Rng rng(5);
  for (std::uint64_t i = 1; i <= 3 * kDetectionBlockRows; ++i) {
    (void)store.append(random_detection(rng, i));
  }
  // Three sealed blocks, one allowed to stay hot: two demoted.
  EXPECT_EQ(store.cold_block_count(), 2u);
  EXPECT_EQ(store.cold_rows(), 2 * kDetectionBlockRows);
  EXPECT_GT(store.compressed_bytes(), 0u);
}

TEST(TieredStore, AgeTriggeredDemotionRespectsCutoff) {
  DetectionStore store;
  // A huge hot window keeps fill-triggered demotion out of the way; only
  // demote_older_than (the worker tick's age path) moves blocks cold.
  store.set_tier_config({true, 1000});
  for (std::uint64_t i = 0; i < 2 * kDetectionBlockRows + 100; ++i) {
    Detection d;
    d.id = DetectionId(i + 1);
    d.camera = CameraId(1);
    d.object = ObjectId(1);
    d.time = TimePoint(static_cast<std::int64_t>(i));  // time-ordered
    d.position = {1.0, 2.0};
    (void)store.append(d);
  }
  // Cutoff inside block 1: only block 0 is entirely older.
  EXPECT_EQ(store.demote_older_than(
                TimePoint(static_cast<std::int64_t>(kDetectionBlockRows))),
            1u);
  EXPECT_EQ(store.cold_block_count(), 1u);
  // Far-future cutoff demotes every FULL block; the partial tail and any
  // mid-block rows stay hot.
  (void)store.demote_older_than(TimePoint(1'000'000'000));
  EXPECT_EQ(store.cold_block_count(), 2u);
  EXPECT_EQ(store.size(), 2 * kDetectionBlockRows + 100);
}

TEST(TieredStore, MemoryBreakdownAccountsColdTier) {
  DetectionStore store;
  store.set_tier_config({true, 0});
  Rng rng(23);
  for (std::uint64_t i = 1; i <= 2 * kDetectionBlockRows + 64; ++i) {
    (void)store.append(random_detection(rng, i, 16));
  }
  ASSERT_EQ(store.cold_block_count(), 2u);
  auto m = store.memory_breakdown();
  EXPECT_EQ(store.memory_bytes(), m.total());
  EXPECT_GE(m.cold_bytes, store.compressed_bytes());
  EXPECT_GT(m.hot_bytes(), 0u);
  // Decode a cold block so this thread owns scratch, then confirm the
  // process-wide scratch figure is visible but kept out of the total.
  (void)store.scan_camera(CameraId(1), TimeInterval::all());
  auto m2 = store.memory_breakdown();
  EXPECT_GT(m2.scratch_bytes, 0u);
  EXPECT_EQ(m2.total(),
            m2.column_bytes + m2.arena_bytes + m2.zone_bytes + m2.cold_bytes);
}

TEST(TieredStore, CorruptSnapshotDecodesToEmptyStore) {
  DetectionStore store;
  store.set_tier_config({true, 0});
  Rng rng(31);
  for (std::uint64_t i = 1; i <= kDetectionBlockRows + 10; ++i) {
    (void)store.append(random_detection(rng, i));
  }
  BinaryWriter w;
  store.serialize_to(w);
  const std::vector<std::uint8_t>& bytes = w.bytes();
  // Truncation at every byte boundary in a coarse sweep must yield an
  // empty store, never garbage or a crash.
  for (std::size_t len = 0; len < bytes.size(); len += 97) {
    BinaryReader r(bytes.data(), len);
    DetectionStore got = DetectionStore::deserialize_from(r);
    EXPECT_EQ(got.size(), 0u) << "truncated at " << len;
  }
  // A corrupted magic word is rejected outright.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  BinaryReader r(bad);
  EXPECT_EQ(DetectionStore::deserialize_from(r).size(), 0u);
}

// ---------------------------------------------- int8 quantized appearance

TEST(QuantizedAppearance, DotErrorStaysWithinSoundBound) {
  Rng rng(67);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t dim = 1 + rng.uniform_index(128);
    std::vector<float> a(dim), b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      a[i] = static_cast<float>(rng.uniform(-1, 1));
      b[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    std::vector<std::int8_t> qa(dim), qb(dim);
    EmbeddingQuantParams pa = quantize_embedding(a.data(), dim, qa.data());
    EmbeddingQuantParams pb = quantize_embedding(b.data(), dim, qb.data());
    double exact = appearance_dot(a.data(), b.data(), dim);
    double approx = quantized_dot(qa.data(), pa, qb.data(), pb, dim);
    double bound = quantized_dot_error_bound(pa, pb, dim);
    EXPECT_LE(std::abs(approx - exact), bound + 1e-12)
        << "trial " << trial << " dim " << dim;
  }
}

TEST(QuantizedAppearance, ConstantVectorQuantizesExactly) {
  std::vector<float> a(16, 0.75f), b(16);
  Rng rng(3);
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<std::int8_t> qa(16), qb(16);
  EmbeddingQuantParams pa = quantize_embedding(a.data(), 16, qa.data());
  EmbeddingQuantParams pb = quantize_embedding(b.data(), 16, qb.data());
  EXPECT_EQ(pa.scale, 0.0f);  // degenerate range: offset carries everything
  double exact = appearance_dot(a.data(), b.data(), 16);
  double approx = quantized_dot(qa.data(), pa, qb.data(), pb, 16);
  EXPECT_LE(std::abs(approx - exact),
            quantized_dot_error_bound(pa, pb, 16) + 1e-12);
}

// The prefilter must be invisible: identical matches, scores, and order,
// with a strictly smaller float-kernel bill.
TEST(QuantizedAppearance, ReidPrefilterPreservesMatchesExactly) {
  TraceConfig c;
  c.roads.grid_cols = 10;
  c.roads.grid_rows = 10;
  c.cameras.camera_count = 50;
  c.mobility.object_count = 40;
  c.duration = Duration::minutes(5);
  c.seed = 91;
  Trace trace = TraceGenerator::generate(c);
  CentralizedIndex index(trace.roads.bounds(150.0));
  index.ingest_all(trace.detections);
  TransitionGraph graph;
  graph.learn(trace.detections);
  LocalCandidateSource source(index, trace.cameras);

  ReidParams quant;
  quant.cone.max_hops = 3;
  ReidParams plain = quant;
  plain.quantized_prefilter = false;
  ReidEngine quant_engine(graph, quant);
  ReidEngine plain_engine(graph, plain);

  std::uint64_t pruned = 0, float_dots_quant = 0, float_dots_plain = 0;
  std::size_t compared = 0;
  for (std::size_t p = 0; p < trace.detections.size(); p += 97) {
    const Detection& probe = trace.detections[p];
    TimeInterval horizon{probe.time, probe.time + Duration::minutes(3)};
    ReidOutcome a = quant_engine.find_matches(probe, horizon, source);
    ReidOutcome b = plain_engine.find_matches(probe, horizon, source);
    ASSERT_EQ(a.matches.size(), b.matches.size()) << "probe " << p;
    for (std::size_t m = 0; m < a.matches.size(); ++m) {
      EXPECT_EQ(a.matches[m].detection.id, b.matches[m].detection.id);
      EXPECT_EQ(a.matches[m].score, b.matches[m].score);  // bit-identical
    }
    pruned += a.quantized_pruned;
    float_dots_quant += a.batched_scores;
    float_dots_plain += b.batched_scores;
    ++compared;
  }
  ASSERT_GT(compared, 10u);
  EXPECT_GT(pruned, 0u) << "prefilter never fired";
  EXPECT_LT(float_dots_quant, float_dots_plain);
}

// ------------------------------------------- segmented vault vs full image

constexpr NodeId kSink{999};

/// Absorbs whatever the worker under test sends upstream.
class SinkNode final : public NetworkNode {
 public:
  [[nodiscard]] NodeId node_id() const override { return kSink; }
  void handle_message(const Message&, SimNetwork&) override {}
};

DetectionStore round_trip(const DetectionStore& store) {
  BinaryWriter w;
  store.serialize_to(w);
  BinaryReader r(w.bytes());
  DetectionStore out = DetectionStore::deserialize_from(r);
  EXPECT_FALSE(r.failed());
  return out;
}

/// Same rows in the same order, same tier boundary, byte-identical block
/// encodings (cold codes and hot columns), equal zone maps, and
/// bit-identical embeddings.
void expect_same_store(const DetectionStore& got, const DetectionStore& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.cold_block_count(), want.cold_block_count());
  ASSERT_EQ(got.cold_rows(), want.cold_rows());
  ASSERT_EQ(got.block_count(), want.block_count());
  for (std::size_t b = 0; b < want.block_count(); ++b) {
    ASSERT_EQ(got.encode_segment(b), want.encode_segment(b)) << "block " << b;
    const DetectionBlockZone& g = got.zone(b);
    const DetectionBlockZone& w = want.zone(b);
    EXPECT_EQ(std::tie(g.t_min, g.t_max, g.x_min, g.x_max, g.y_min, g.y_max,
                       g.camera_min, g.camera_max, g.camera_bits),
              std::tie(w.t_min, w.t_max, w.x_min, w.x_max, w.y_min, w.y_max,
                       w.camera_min, w.camera_max, w.camera_bits))
        << "zone " << b;
  }
  // Materialize a block at a time per store: cold rows decode through a
  // per-thread scratch that alternating stores would thrash.
  auto rows_of = [](const DetectionStore& store, std::size_t b) {
    std::vector<Detection> out;
    auto [first, last] = store.block_rows(b);
    for (std::uint32_t i = first; i < last; ++i) {
      out.push_back(store.get(static_cast<DetectionRef>(i)));
    }
    return out;
  };
  for (std::size_t b = 0; b < want.block_count(); ++b) {
    std::vector<Detection> g = rows_of(got, b);
    std::vector<Detection> w = rows_of(want, b);
    ASSERT_EQ(g, w) << "block " << b;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const std::vector<float>& ge = g[i].appearance.values;
      const std::vector<float>& we = w[i].appearance.values;
      ASSERT_TRUE(ge.empty() ||
                  std::memcmp(ge.data(), we.data(),
                              ge.size() * sizeof(float)) == 0)
          << "block " << b << " row " << i;
    }
  }
}

/// Drives one worker through seeded interleavings of append bursts,
/// snapshots, clock advances (age-triggered demotion and retention
/// compaction fire on the monitor tick; appends fire fill-triggered
/// demotion), and bulk or merge installs from its own vault. Parameters:
/// seed, tiered storage on/off.
class VaultDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {
 protected:
  static constexpr std::uint32_t kPartitions = 2;

  VaultDifferential()
      : rng_(std::get<0>(GetParam())),
        worker_(WorkerId(1), kSink, config(std::get<1>(GetParam()))) {
    network_.attach(worker_);
    network_.attach(sink_);
    network_.advance_clock_to(TimePoint(Duration::seconds(100).count_micros()));
    worker_.start(network_);
  }

  static WorkerConfig config(bool tiered) {
    WorkerConfig c;
    c.world = {{0, 0}, {kWorld, kWorld}};
    c.send_heartbeats = false;
    c.summary_every_ticks = 0;
    c.snapshot_every_ticks = 0;  // the test decides when snapshots run
    c.tiered_storage = tiered;
    c.hot_sealed_blocks = 1;
    c.demote_after = Duration::seconds(20);
    c.retention = Duration::seconds(60);
    c.compaction_every_ticks = 10;
    return c;
  }

  const MetricsRegistry& metrics() const { return worker_.metrics(); }

  void deliver() { network_.run_until(network_.now() + Duration::millis(1)); }

  /// One sequenced batch of `n` rows into `p`, timed over the last 10 s:
  /// fresh rows plus, when `resend` is given, copies of some of its rows.
  void append_burst(PartitionId p, std::size_t n,
                    const DetectionStore* resend = nullptr) {
    IngestBatch batch;
    batch.partition = p;
    batch.pbid = ++pbid_[p.value()];
    for (std::size_t i = 0; i < n; ++i) {
      if (resend != nullptr && !resend->empty() && rng_.uniform_index(3) == 0) {
        batch.detections.push_back(resend->get(static_cast<DetectionRef>(
            rng_.uniform_index(resend->size()))));
        continue;
      }
      Detection d = random_detection(rng_, ++next_id_,
                                     4 * rng_.uniform_index(3));
      d.time = network_.now() - Duration::micros(static_cast<std::int64_t>(
                                    rng_.uniform_index(10'000'000)));
      batch.detections.push_back(std::move(d));
    }
    network_.send({kSink, worker_.node_id(),
                   static_cast<std::uint32_t>(MsgType::kIngestBatch),
                   encode(batch), network_.now(), {}});
    deliver();
  }

  /// Snapshots, then checks every held partition's vault image against a
  /// fresh encoding of its store and records the store as captured.
  void snapshot() {
    worker_.take_snapshots(network_.now());
    for (std::uint32_t i = 0; i < kPartitions; ++i) {
      PartitionId p(i);
      const DetectionStore* store = worker_.store_of(p);
      if (store == nullptr) continue;
      const PartitionSnapshot& snap = worker_.snapshot_vault().at(p);
      ASSERT_EQ(snap.rows, store->size());
      ASSERT_EQ(snap.segments.size(), store->block_count());
      for (std::size_t b = 0; b < store->block_count(); ++b) {
        ASSERT_EQ(snap.segments[b], store->encode_segment(b)) << "block " << b;
      }
      captured_.insert_or_assign(i, *store);
    }
  }

  /// Crash-style state loss, then an install of every captured partition
  /// from the vault; `live_rows` > 0 first lands a live burst (fresh rows
  /// and resent captured ones), so the install takes the merge path.
  void install(std::size_t live_rows) {
    worker_.lose_state();
    std::map<std::uint32_t, DetectionStore> before;
    if (live_rows > 0) {
      for (const auto& [i, store] : captured_) {
        append_burst(PartitionId(i), live_rows, &store);
        before.insert_or_assign(i, *worker_.store_of(PartitionId(i)));
      }
    }
    std::vector<RecoverySpec> specs;
    for (const auto& [i, store] : captured_) {
      specs.push_back({PartitionId(i), NodeId(0)});
    }
    std::uint64_t installed0 = metrics().counter_value("snapshots_installed");
    worker_.start_recovery(0, specs, {}, network_);
    ASSERT_EQ(metrics().counter_value("snapshots_installed"),
              installed0 + specs.size());
    for (const auto& [i, store] : captured_) {
      DetectionStore want = round_trip(store);
      if (live_rows > 0) {
        // Merge: the live rows first, then every imaged row not yet seen.
        DetectionStore image = std::move(want);
        want = before.at(i);
        std::set<std::uint64_t> seen;
        for (std::uint32_t r = 0; r < want.size(); ++r) {
          seen.insert(want.id_of(static_cast<DetectionRef>(r)).value());
        }
        for (std::uint32_t r = 0; r < image.size(); ++r) {
          auto ref = static_cast<DetectionRef>(r);
          if (seen.insert(image.id_of(ref).value()).second) {
            (void)want.append(image.get(ref));
          }
        }
      }
      const DetectionStore* got = worker_.store_of(PartitionId(i));
      ASSERT_NE(got, nullptr);
      expect_same_store(*got, want);
    }
  }

  std::size_t cold_blocks() const {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < kPartitions; ++i) {
      const DetectionStore* store = worker_.store_of(PartitionId(i));
      if (store != nullptr) n += store->cold_block_count();
    }
    return n;
  }

  /// A few rounds of bursts, clock advances and snapshots. Notes which
  /// demotion triggers fired: cold blocks that appear during a burst were
  /// demoted by fill, ones that appear while only the clock moves by age.
  void churn(int rounds) {
    auto burst = [&] {
      std::size_t cold = cold_blocks();
      append_burst(PartitionId(static_cast<std::uint32_t>(
                       rng_.uniform_index(kPartitions))),
                   1 + rng_.uniform_index(2500));
      fill_demoted_ |= cold_blocks() > cold;
    };
    for (int round = 0; round < rounds; ++round) {
      std::size_t bursts = 1 + rng_.uniform_index(3);
      for (std::size_t i = 0; i < bursts; ++i) burst();
      if (rng_.uniform_index(3) != 0) snapshot();
      std::size_t cold = cold_blocks();
      network_.run_until(network_.now() +
                         Duration::seconds(static_cast<std::int64_t>(
                             1 + rng_.uniform_index(20))));
      age_demoted_ |= cold_blocks() > cold;
      burst();
      snapshot();
    }
  }

  Rng rng_;
  WorkerNode worker_;
  SinkNode sink_;
  SimNetwork network_{[] {
    NetworkConfig nc;
    nc.latency_jitter = Duration::zero();
    return nc;
  }()};
  std::map<std::uint32_t, std::uint64_t> pbid_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint32_t, DetectionStore> captured_;
  bool fill_demoted_ = false;
  bool age_demoted_ = false;
};

TEST_P(VaultDifferential, InstallsMatchFullImageRoundTrip) {
  for (int phase = 0; phase < 4; ++phase) {
    churn(3);
    ASSERT_NO_FATAL_FAILURE(install(phase % 2 == 0 ? 0 : 300));
    // The install changed the store other than by appends: the next
    // snapshot must rewrite the image (snapshot() checks it end to end).
    ASSERT_NO_FATAL_FAILURE(snapshot());
  }
  // Every mutation the vault must survive actually happened.
  EXPECT_GT(metrics().counter_value("detections_evicted"), 0u);
  EXPECT_EQ(fill_demoted_, std::get<1>(GetParam()));
  EXPECT_EQ(age_demoted_, std::get<1>(GetParam()));
}

TEST_P(VaultDifferential, CorruptSegmentsNeverInstall) {
  churn(4);
  auto& vault = worker_.snapshot_vault_for_fault_injection();
  const std::size_t header = DetectionStore::kSegmentHeaderBytes;
  std::uint64_t corrupt = metrics().counter_value("snapshot_corrupt");
  auto expect_rejected = [&](PartitionId p, const char* what, std::size_t at) {
    worker_.lose_state();
    worker_.start_recovery(0, {{p, NodeId(0)}}, {}, network_);
    EXPECT_EQ(metrics().counter_value("snapshot_corrupt"), ++corrupt)
        << what << " at " << at;
    EXPECT_EQ(worker_.store_of(p), nullptr) << what << " at " << at;
  };
  std::size_t swept = 0;
  for (auto& [p, snap] : vault) {
    for (std::size_t s = 0; s < snap.segments.size(); ++s) {
      std::vector<std::uint8_t>& seg = snap.segments[s];
      const std::vector<std::uint8_t> pristine = seg;
      std::size_t mid = header + (seg.size() - header) / 2;
      for (std::size_t cut : {std::size_t{0}, header - 1, header, mid,
                              seg.size() - 1}) {
        seg.resize(cut);
        expect_rejected(p, "truncated", cut);
        seg = pristine;
      }
      for (std::size_t at : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                             std::size_t{16}, header, mid, seg.size() - 1}) {
        seg[at] ^= 0x5A;
        expect_rejected(p, "flipped", at);
        seg = pristine;
      }
      ++swept;
    }
    // A lost trailing segment is caught by the image's row count.
    std::vector<std::uint8_t> last = std::move(snap.segments.back());
    snap.segments.pop_back();
    expect_rejected(p, "dropped segment", snap.segments.size());
    snap.segments.push_back(std::move(last));
  }
  EXPECT_GT(swept, 2u);
  // The restored vault still installs cleanly.
  worker_.lose_state();
  std::vector<RecoverySpec> specs;
  for (const auto& [p, snap] : vault) specs.push_back({p, NodeId(0)});
  worker_.start_recovery(0, specs, {}, network_);
  EXPECT_EQ(metrics().counter_value("snapshot_corrupt"), corrupt);
  for (const auto& [i, store] : captured_) {
    const DetectionStore* got = worker_.store_of(PartitionId(i));
    ASSERT_NE(got, nullptr);
    expect_same_store(*got, round_trip(store));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTiers, VaultDifferential,
    ::testing::Combine(::testing::Values(3, 41, 20261017),
                       ::testing::Bool()));

}  // namespace
}  // namespace stcn
