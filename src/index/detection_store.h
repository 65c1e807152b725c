// Tiered columnar, block-structured arena for detections held by a worker.
//
// Every query kind except trajectories scans this store directly; the
// per-object trajectory index references rows by a compact 32-bit handle
// into it instead of duplicating the full record.
//
// Layout: rows are chunked into fixed-size blocks (kDetectionBlockRows) and
// live in one of two tiers.
//
//   · Hot tier: the newest rows, in contiguous per-column arrays (time, x,
//     y, camera, confidence, ids) plus one flattened float embedding arena
//     addressed by cumulative offsets — nothing on the scan path chases a
//     per-record heap pointer.
//   · Cold tier: sealed blocks demoted (by fill or age, see
//     StoreTierConfig) into CompressedBlocks — FOR-packed time/ids,
//     dictionary cameras/objects, FOR-quantized positions/confidences, and
//     an int8-quantized embedding arena (index/compressed_block.h). Cold
//     blocks form a strict prefix of the row space: rows [0, hot_base_) are
//     cold, [hot_base_, size()) are hot, and hot_base_ is always a multiple
//     of kDetectionBlockRows, so DetectionRefs stay stable across demotion.
//
// Every block — hot or cold — carries an uncompressed zone map (time
// min/max, position bounding rect, camera-id min/max plus a 64-bit camera
// fingerprint), so selective scans skip whole blocks without touching a
// row. Cold-block zones are recomputed from *decoded* (quantized) values at
// demotion, so zone fast paths, fused kernels, scalar scans, and per-row
// accessors all agree exactly on what a cold row contains. Cold scans never
// materialize a block into the store: the decode-fused kernels evaluate
// predicates straight off the packed codes into a per-thread ColdScratch
// (counted in MemoryBreakdown::scratch_bytes, process-wide).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/filter_kernel.h"
#include "common/geometry.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/time.h"
#include "index/compressed_block.h"
#include "trace/detection.h"

namespace stcn {

/// Handle into a DetectionStore. Only meaningful for the store that
/// issued it.
enum class DetectionRef : std::uint32_t {};

[[nodiscard]] constexpr std::uint32_t to_index(DetectionRef ref) {
  return static_cast<std::uint32_t>(ref);
}

/// Rows per block. 4096 rows × ~56 hot-column bytes ≈ 224 KiB per block —
/// a few L2-sized strips; zone-map overhead is ~90 bytes per block.
inline constexpr std::size_t kDetectionBlockRows = 4096;

/// Per-block small materialized aggregates. All bounds are inclusive over
/// the rows of the block; `camera_bits` is a 64-bit fingerprint with bit
/// (camera % 64) set for every camera seen in the block.
struct DetectionBlockZone {
  std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t t_max = std::numeric_limits<std::int64_t>::min();
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -std::numeric_limits<double>::infinity();
  double y_min = std::numeric_limits<double>::infinity();
  double y_max = -std::numeric_limits<double>::infinity();
  std::uint64_t camera_min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t camera_max = 0;
  std::uint64_t camera_bits = 0;

  /// Could any row of this block fall inside `interval`?
  [[nodiscard]] bool overlaps(const TimeInterval& interval) const {
    return t_max >= interval.begin.micros_since_origin() &&
           t_min < interval.end.micros_since_origin();
  }
  /// Could any row's position fall inside `region` (half-open max edges)?
  [[nodiscard]] bool overlaps(const Rect& region) const {
    return x_max >= region.min.x && x_min < region.max.x &&
           y_max >= region.min.y && y_min < region.max.y;
  }
  /// Every row's time is inside `interval`.
  [[nodiscard]] bool within(const TimeInterval& interval) const {
    return t_min >= interval.begin.micros_since_origin() &&
           t_max < interval.end.micros_since_origin();
  }
  /// Every row's position is inside `region`.
  [[nodiscard]] bool within(const Rect& region) const {
    return x_min >= region.min.x && x_max < region.max.x &&
           y_min >= region.min.y && y_max < region.max.y;
  }
  /// Every row's position is inside `circle`. The observed bbox is inside a
  /// convex region iff all four of its corners are — comparing the bbox
  /// against the circle's *bounding box* instead would wrongly admit corner
  /// positions inside the box but outside the circle, which is exactly
  /// where border-clamped positions land.
  [[nodiscard]] bool within(const Circle& circle) const {
    return circle.contains({x_min, y_min}) && circle.contains({x_min, y_max}) &&
           circle.contains({x_max, y_min}) && circle.contains({x_max, y_max});
  }
  [[nodiscard]] bool may_contain(CameraId camera) const {
    std::uint64_t v = camera.value();
    return v >= camera_min && v <= camera_max &&
           (camera_bits & (std::uint64_t{1} << (v % 64))) != 0;
  }
  /// Every row belongs to `camera`.
  [[nodiscard]] bool only_camera(CameraId camera) const {
    return camera_min == camera_max && camera_min == camera.value();
  }

  // Zone-based selectivity estimates in [0, 1]: the fraction of this
  // block's rows expected to pass the predicate, assuming uniform spread
  // over the zone bounds. Multi-predicate block scans evaluate the most
  // selective predicate over the full morsel and refine survivors with the
  // rest, so the estimates only order work — they never affect results.

  [[nodiscard]] double time_selectivity(const TimeInterval& interval) const {
    if (within(interval)) return 1.0;
    double span = static_cast<double>(t_max - t_min) + 1.0;
    double lo = std::max<double>(static_cast<double>(t_min),
                                 static_cast<double>(
                                     interval.begin.micros_since_origin()));
    double hi = std::min<double>(static_cast<double>(t_max) + 1.0,
                                 static_cast<double>(
                                     interval.end.micros_since_origin()));
    return hi > lo ? (hi - lo) / span : 0.0;
  }

  [[nodiscard]] double space_selectivity(const Rect& region) const {
    double area = (x_max - x_min) * (y_max - y_min);
    if (!(area > 0.0)) return 1.0;  // degenerate bbox: all rows colinear
    double ix = std::min(x_max, region.max.x) - std::max(x_min, region.min.x);
    double iy = std::min(y_max, region.max.y) - std::max(y_min, region.min.y);
    if (ix <= 0.0 || iy <= 0.0) return 0.0;
    return std::min(1.0, ix * iy / area);
  }

  [[nodiscard]] double camera_selectivity() const {
    int cameras_seen = std::popcount(camera_bits);
    return cameras_seen > 0 ? 1.0 / static_cast<double>(cameras_seen) : 1.0;
  }
};

// ------------------------------------------------- cold decode scratch

/// Process-wide resident bytes held by per-thread cold-decode scratches.
/// Informational (surfaced via MemoryBreakdown::scratch_bytes and the
/// store_scratch_bytes gauge); deliberately excluded from any per-store
/// total, since the scratch is shared across every store on the thread.
[[nodiscard]] inline std::atomic<std::size_t>& cold_scratch_bytes_counter() {
  static std::atomic<std::size_t> bytes{0};
  return bytes;
}
[[nodiscard]] inline std::size_t cold_scratch_bytes() {
  return cold_scratch_bytes_counter().load(std::memory_order_relaxed);
}

/// Per-thread decode buffers for one cold block at a time, tagged by the
/// block's process-unique uid (block content is immutable after encode, so
/// a matching tag proves the cached decode is current — copies of a block
/// share content and may share the cache). The embedding arena has its own
/// tag: scans churn through many blocks' scalar columns while re-id keeps
/// returning to one block's embeddings, and one tag for both would thrash.
struct ColdScratch {
  static constexpr std::uint32_t kTime = 1u << 0;
  static constexpr std::uint32_t kPos = 1u << 1;
  static constexpr std::uint32_t kCamera = 1u << 2;
  static constexpr std::uint32_t kObject = 1u << 3;
  static constexpr std::uint32_t kId = 1u << 4;
  static constexpr std::uint32_t kConf = 1u << 5;

  std::uint64_t block_uid = 0;  // 0 = nothing cached
  std::uint32_t valid = 0;      // bitmask of decoded columns
  std::int64_t times[kDetectionBlockRows];
  double xs[kDetectionBlockRows];
  double ys[kDetectionBlockRows];
  std::uint64_t cameras[kDetectionBlockRows];
  std::uint64_t objects[kDetectionBlockRows];
  std::uint64_t ids[kDetectionBlockRows];
  double confidences[kDetectionBlockRows];

  std::uint64_t emb_uid = 0;
  std::vector<float> emb;

  ColdScratch() {
    cold_scratch_bytes_counter().fetch_add(sizeof(ColdScratch),
                                           std::memory_order_relaxed);
  }
  ~ColdScratch() {
    cold_scratch_bytes_counter().fetch_sub(
        sizeof(ColdScratch) + emb.capacity() * sizeof(float),
        std::memory_order_relaxed);
  }
  ColdScratch(const ColdScratch&) = delete;
  ColdScratch& operator=(const ColdScratch&) = delete;

  /// Retargets the scalar-column cache at block `uid` (no-op if cached).
  void ensure(std::uint64_t uid) {
    if (block_uid != uid) {
      block_uid = uid;
      valid = 0;
    }
  }

  void grow_emb(std::size_t n) {
    std::size_t before = emb.capacity();
    if (emb.size() < n) emb.resize(n);
    if (emb.capacity() > before) {
      cold_scratch_bytes_counter().fetch_add(
          (emb.capacity() - before) * sizeof(float),
          std::memory_order_relaxed);
    }
  }
};

[[nodiscard]] inline ColdScratch& cold_scratch() {
  thread_local ColdScratch scratch;
  return scratch;
}

// Column-at-a-time decode helpers: return this thread's scratch view of one
// cold block's column, decoding only on a cache miss. Pointers stay valid
// until the calling thread touches a *different* cold block.

[[nodiscard]] inline const std::int64_t* cold_times(const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kTime)) {
    b.decode_times(sc.times);
    sc.valid |= ColdScratch::kTime;
  }
  return sc.times;
}

/// Decodes both position columns (they are filtered together).
inline void cold_positions(const CompressedBlock& b, const double*& xs,
                           const double*& ys) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kPos)) {
    b.decode_xs(sc.xs);
    b.decode_ys(sc.ys);
    sc.valid |= ColdScratch::kPos;
  }
  xs = sc.xs;
  ys = sc.ys;
}

[[nodiscard]] inline const std::uint64_t* cold_cameras(
    const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kCamera)) {
    b.decode_cameras(sc.cameras);
    sc.valid |= ColdScratch::kCamera;
  }
  return sc.cameras;
}

[[nodiscard]] inline const std::uint64_t* cold_objects(
    const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kObject)) {
    b.decode_objects(sc.objects);
    sc.valid |= ColdScratch::kObject;
  }
  return sc.objects;
}

[[nodiscard]] inline const std::uint64_t* cold_ids(const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kId)) {
    b.decode_ids(sc.ids);
    sc.valid |= ColdScratch::kId;
  }
  return sc.ids;
}

[[nodiscard]] inline const double* cold_confidences(const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  sc.ensure(b.uid);
  if (!(sc.valid & ColdScratch::kConf)) {
    b.decode_confidences(sc.confidences);
    sc.valid |= ColdScratch::kConf;
  }
  return sc.confidences;
}

/// Decodes the whole embedding arena of `b` into this thread's scratch and
/// returns its base pointer (row i's floats at b.emb_begin(i)). Valid until
/// the calling thread decodes a different cold block's embeddings.
[[nodiscard]] inline const float* cold_embeddings(const CompressedBlock& b) {
  ColdScratch& sc = cold_scratch();
  if (sc.emb_uid != b.uid) {
    sc.grow_emb(b.emb_codes.size());
    for (std::uint32_t i = 0; i < b.rows; ++i) {
      b.decode_embedding(i, sc.emb.data() + b.emb_begin(i));
    }
    sc.emb_uid = b.uid;
  }
  return sc.emb.data();
}

/// Demotion policy for the cold tier. Disabled by default: every store
/// starts hot-only, and enabling the tier is an explicit configuration act
/// (WorkerConfig::tiered_storage upstream).
struct StoreTierConfig {
  bool enabled = false;
  /// Full (sealed) hot blocks to retain before the oldest is demoted; the
  /// partially-filled tail block is never demoted by fill.
  std::uint32_t hot_sealed_blocks = 1;
};

/// Accounting for the vectorized (selection-vector) scan path. Unlike the
/// store's cumulative blocks_scanned()/blocks_skipped() counters, a
/// MorselStats is plain caller-owned state, so block-granular scans are
/// safe to run concurrently over disjoint morsels of one store.
struct MorselStats {
  /// Row-predicate evaluations performed (a row counts once per predicate
  /// actually applied to it; zone fast paths evaluate nothing).
  std::uint64_t rows_evaluated = 0;
  /// Rows that passed every predicate (== selection-vector sizes).
  std::uint64_t rows_selected = 0;
  /// Non-skipped 4096-row morsels processed through selection vectors.
  std::uint64_t morsels = 0;
  /// Morsels emitted wholesale by the fully-inside zone fast path.
  std::uint64_t zone_fast_path = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  /// Cold-tier slices of blocks_scanned/blocks_skipped (hot = total − cold).
  std::uint64_t cold_blocks_scanned = 0;
  std::uint64_t cold_blocks_skipped = 0;
  /// Cold morsels that ran decode-fused kernels (zone fast paths decode
  /// nothing and are excluded).
  std::uint64_t decode_morsels = 0;

  void merge(const MorselStats& o) {
    rows_evaluated += o.rows_evaluated;
    rows_selected += o.rows_selected;
    morsels += o.morsels;
    zone_fast_path += o.zone_fast_path;
    blocks_scanned += o.blocks_scanned;
    blocks_skipped += o.blocks_skipped;
    cold_blocks_scanned += o.cold_blocks_scanned;
    cold_blocks_skipped += o.cold_blocks_skipped;
    decode_morsels += o.decode_morsels;
  }
};

class DetectionStore {
 public:
  /// Exact resident-byte accounting, split by component. All figures are
  /// capacity-based (what the allocator actually holds, not just live
  /// rows). `scratch_bytes` reports the process-wide per-thread decode
  /// scratches; it is informational and excluded from total(), which stays
  /// the sum of bytes this store itself owns.
  struct MemoryBreakdown {
    std::size_t column_bytes = 0;   // hot columns + embedding offsets
    std::size_t arena_bytes = 0;    // hot flattened embedding floats
    std::size_t zone_bytes = 0;     // per-block zone maps (both tiers)
    std::size_t cold_bytes = 0;     // compressed cold blocks
    std::size_t scratch_bytes = 0;  // process-wide decode scratch (info)
    [[nodiscard]] std::size_t hot_bytes() const {
      return column_bytes + arena_bytes;
    }
    [[nodiscard]] std::size_t total() const {
      return column_bytes + arena_bytes + zone_bytes + cold_bytes;
    }
  };

  // ------------------------------------------------------------ tiering

  void set_tier_config(const StoreTierConfig& config) {
    tier_ = config;
    maybe_demote();
  }
  [[nodiscard]] const StoreTierConfig& tier_config() const { return tier_; }

  [[nodiscard]] std::size_t cold_block_count() const { return cold_.size(); }
  /// Rows living in the cold tier (== the hot tier's base row).
  [[nodiscard]] std::size_t cold_rows() const { return hot_base_; }
  /// Resident bytes of all compressed cold blocks.
  [[nodiscard]] std::size_t compressed_bytes() const {
    std::size_t total = 0;
    for (const CompressedBlock& b : cold_) total += b.compressed_bytes();
    return total;
  }

  /// Demotes sealed hot blocks whose newest row is older than `cutoff`
  /// (age-triggered demotion, driven by the worker tick). Returns how many
  /// blocks moved cold. No-op while the tier is disabled.
  std::size_t demote_older_than(TimePoint cutoff) {
    if (!tier_.enabled) return 0;
    std::size_t demoted = 0;
    while (ids_.size() >= kDetectionBlockRows) {
      const DetectionBlockZone& z = zones_[cold_.size()];
      if (z.t_max >= cutoff.micros_since_origin()) break;
      demote_front_block();
      ++demoted;
    }
    return demoted;
  }

  // ------------------------------------------------------------ appends

  /// Appends a detection; the returned handle is stable forever (demotion
  /// never renumbers rows — cold blocks are a prefix of the row space).
  DetectionRef append(const Detection& d) {
    STCN_CHECK(size() < UINT32_MAX);
    auto row = static_cast<std::uint32_t>(size());
    ids_.push_back(d.id.value());
    cameras_.push_back(d.camera.value());
    objects_.push_back(d.object.value());
    times_.push_back(d.time.micros_since_origin());
    xs_.push_back(d.position.x);
    ys_.push_back(d.position.y);
    confidences_.push_back(d.confidence);
    arena_.insert(arena_.end(), d.appearance.values.begin(),
                  d.appearance.values.end());
    emb_offsets_.push_back(arena_.size());
    grow_zone(row);
    if (tier_.enabled && ids_.size() % kDetectionBlockRows == 0) {
      maybe_demote();
    }
    return static_cast<DetectionRef>(row);
  }

  /// Appends a copy of `src`'s row `ref` without materializing a Detection
  /// when the source row is hot (cold rows decode through get(); retention
  /// compaction's bulk path adopts whole cold blocks instead).
  DetectionRef append_copy(const DetectionStore& src, DetectionRef ref) {
    std::uint32_t i = to_index(ref);
    STCN_CHECK(i < src.size());
    if (i < src.hot_base_) return append(src.get(ref));
    STCN_CHECK(size() < UINT32_MAX);
    std::size_t h = i - src.hot_base_;
    auto row = static_cast<std::uint32_t>(size());
    ids_.push_back(src.ids_[h]);
    cameras_.push_back(src.cameras_[h]);
    objects_.push_back(src.objects_[h]);
    times_.push_back(src.times_[h]);
    xs_.push_back(src.xs_[h]);
    ys_.push_back(src.ys_[h]);
    confidences_.push_back(src.confidences_[h]);
    std::span<const float> emb = src.embedding(ref);
    arena_.insert(arena_.end(), emb.begin(), emb.end());
    emb_offsets_.push_back(arena_.size());
    grow_zone(row);
    if (tier_.enabled && ids_.size() % kDetectionBlockRows == 0) {
      maybe_demote();
    }
    return static_cast<DetectionRef>(row);
  }

  /// Appends rows [first, last) of `src` (retention compaction's bulk
  /// path; last > first required). Returns the ref of the first copied
  /// row; the rest follow contiguously. Three regimes:
  ///   · whole cold source blocks landing on a block boundary of an
  ///     all-cold destination are adopted verbatim (no decode, no
  ///     re-quantization drift — the common compaction case);
  ///   · other cold rows copy row-at-a-time through append_copy;
  ///   · the hot tail copies in one column-wise pass.
  /// Destination zone maps are recomputed tightly from the copied rows
  /// (adopted blocks carry their source zones, which are already exact for
  /// their decoded values).
  DetectionRef append_rows(const DetectionStore& src, std::uint32_t first,
                           std::uint32_t last) {
    STCN_CHECK(first < last && last <= src.size());
    STCN_CHECK(size() + (last - first) < UINT32_MAX);
    auto row0 = static_cast<std::uint32_t>(size());
    std::uint32_t cur = first;
    while (cur < last && cur < src.hot_base_) {
      std::size_t b = cur / kDetectionBlockRows;
      auto bend = static_cast<std::uint32_t>(
          std::min<std::size_t>((b + 1) * kDetectionBlockRows, last));
      bool whole_block = cur == b * kDetectionBlockRows &&
                         bend == (b + 1) * kDetectionBlockRows;
      if (whole_block && ids_.empty()) {
        cold_.push_back(src.cold_[b]);
        zones_.push_back(src.zones_[b]);
        hot_base_ += kDetectionBlockRows;
      } else {
        for (std::uint32_t i = cur; i < bend; ++i) {
          append_copy(src, static_cast<DetectionRef>(i));
        }
      }
      cur = bend;
    }
    if (cur < last) {
      std::size_t sf = cur - src.hot_base_;
      std::size_t sl = last - src.hot_base_;
      auto r0 = static_cast<std::uint32_t>(size());
      ids_.insert(ids_.end(), src.ids_.begin() + sf, src.ids_.begin() + sl);
      cameras_.insert(cameras_.end(), src.cameras_.begin() + sf,
                      src.cameras_.begin() + sl);
      objects_.insert(objects_.end(), src.objects_.begin() + sf,
                      src.objects_.begin() + sl);
      times_.insert(times_.end(), src.times_.begin() + sf,
                    src.times_.begin() + sl);
      xs_.insert(xs_.end(), src.xs_.begin() + sf, src.xs_.begin() + sl);
      ys_.insert(ys_.end(), src.ys_.begin() + sf, src.ys_.begin() + sl);
      confidences_.insert(confidences_.end(), src.confidences_.begin() + sf,
                          src.confidences_.begin() + sl);
      std::size_t emb_begin = sf == 0 ? 0 : src.emb_offsets_[sf - 1];
      std::size_t rebase = arena_.size() - emb_begin;
      arena_.insert(arena_.end(), src.arena_.begin() + emb_begin,
                    src.arena_.begin() + src.emb_offsets_[sl - 1]);
      for (std::size_t i = sf; i < sl; ++i) {
        emb_offsets_.push_back(src.emb_offsets_[i] + rebase);
      }
      auto copied = static_cast<std::uint32_t>(sl - sf);
      for (std::uint32_t r = r0; r < r0 + copied; ++r) grow_zone(r);
    }
    maybe_demote();
    return static_cast<DetectionRef>(row0);
  }

  // ----------------------------------------------------- column accessors
  // The hot-only scan-path API: one contiguous-array load each. Only valid
  // while no rows are cold (benches and tests on hot-only stores); tiered
  // scan paths go through block_columns() / the block scans below.

  [[nodiscard]] std::span<const std::int64_t> time_column() const {
    STCN_CHECK(hot_base_ == 0);
    return times_;
  }
  [[nodiscard]] std::span<const double> x_column() const {
    STCN_CHECK(hot_base_ == 0);
    return xs_;
  }
  [[nodiscard]] std::span<const double> y_column() const {
    STCN_CHECK(hot_base_ == 0);
    return ys_;
  }
  [[nodiscard]] std::span<const std::uint64_t> camera_column() const {
    STCN_CHECK(hot_base_ == 0);
    return cameras_;
  }
  [[nodiscard]] std::span<const std::uint64_t> object_column() const {
    STCN_CHECK(hot_base_ == 0);
    return objects_;
  }

  /// Per-block column views for consumers that aggregate over selection
  /// vectors (count/heatmap). Rows of block `b` are addressed as
  /// `view.xs[row - view.base]` with global row ids. Cold views point into
  /// this thread's decode scratch and stay valid until the thread touches a
  /// different cold block; hot views point into the store itself.
  struct BlockColumnsView {
    const std::int64_t* times;
    const double* xs;
    const double* ys;
    const std::uint64_t* cameras;
    std::uint32_t base;
  };
  [[nodiscard]] BlockColumnsView block_columns(std::size_t b) const {
    auto first = static_cast<std::uint32_t>(b * kDetectionBlockRows);
    if (b < cold_.size()) {
      const CompressedBlock& cb = cold_[b];
      BlockColumnsView v;
      v.times = cold_times(cb);
      cold_positions(cb, v.xs, v.ys);
      v.cameras = cold_cameras(cb);
      v.base = first;
      return v;
    }
    std::size_t h = first - hot_base_;
    return {times_.data() + h, xs_.data() + h, ys_.data() + h,
            cameras_.data() + h, first};
  }

  [[nodiscard]] TimePoint time_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) return TimePoint(times_[i - hot_base_]);
    return TimePoint(
        cold_times(cold_[i / kDetectionBlockRows])[i % kDetectionBlockRows]);
  }
  [[nodiscard]] Point position_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) {
      std::size_t h = i - hot_base_;
      return {xs_[h], ys_[h]};
    }
    const double* xs = nullptr;
    const double* ys = nullptr;
    cold_positions(cold_[i / kDetectionBlockRows], xs, ys);
    std::uint32_t local = i % kDetectionBlockRows;
    return {xs[local], ys[local]};
  }
  [[nodiscard]] CameraId camera_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) return CameraId(cameras_[i - hot_base_]);
    return CameraId(
        cold_cameras(cold_[i / kDetectionBlockRows])[i % kDetectionBlockRows]);
  }
  [[nodiscard]] ObjectId object_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) return ObjectId(objects_[i - hot_base_]);
    return ObjectId(
        cold_objects(cold_[i / kDetectionBlockRows])[i % kDetectionBlockRows]);
  }
  [[nodiscard]] DetectionId id_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) return DetectionId(ids_[i - hot_base_]);
    return DetectionId(
        cold_ids(cold_[i / kDetectionBlockRows])[i % kDetectionBlockRows]);
  }
  [[nodiscard]] double confidence_of(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) return confidences_[i - hot_base_];
    return cold_confidences(
        cold_[i / kDetectionBlockRows])[i % kDetectionBlockRows];
  }
  /// The row's embedding. Hot rows view the flattened arena directly; cold
  /// rows view this thread's decode scratch — the span stays valid until
  /// the calling thread decodes a different cold block's embeddings.
  [[nodiscard]] std::span<const float> embedding(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    if (i >= hot_base_) {
      std::size_t h = i - hot_base_;
      std::size_t begin = h == 0 ? 0 : emb_offsets_[h - 1];
      return {arena_.data() + begin, emb_offsets_[h] - begin};
    }
    const CompressedBlock& cb = cold_[i / kDetectionBlockRows];
    std::uint32_t local = i % kDetectionBlockRows;
    const float* base = cold_embeddings(cb);
    return {base + cb.emb_begin(local), cb.emb_dim_of(local)};
  }

  /// Materializes the full record (cold path: result assembly, wire
  /// serialization, resync). Scan paths should use the block scans.
  [[nodiscard]] Detection get(DetectionRef ref) const {
    std::uint32_t i = checked(ref);
    Detection d;
    if (i >= hot_base_) {
      std::size_t h = i - hot_base_;
      d.id = DetectionId(ids_[h]);
      d.camera = CameraId(cameras_[h]);
      d.object = ObjectId(objects_[h]);
      d.time = TimePoint(times_[h]);
      d.position = {xs_[h], ys_[h]};
      d.confidence = confidences_[h];
    } else {
      const CompressedBlock& cb = cold_[i / kDetectionBlockRows];
      std::uint32_t local = i % kDetectionBlockRows;
      d.id = DetectionId(cb.id_at(local));
      d.camera = CameraId(cb.camera_at(local));
      d.object = ObjectId(cb.object_at(local));
      d.time = TimePoint(cb.time_at(local));
      d.position = {cb.x_at(local), cb.y_at(local)};
      d.confidence = cb.confidence_at(local);
    }
    std::span<const float> emb = embedding(ref);
    d.appearance.values.assign(emb.begin(), emb.end());
    return d;
  }

  [[nodiscard]] std::size_t size() const { return hot_base_ + ids_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  // ------------------------------------------------------------- blocks

  [[nodiscard]] std::size_t block_count() const { return zones_.size(); }
  [[nodiscard]] const DetectionBlockZone& zone(std::size_t block) const {
    return zones_[block];
  }
  /// Half-open row range [first, last) of `block`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> block_rows(
      std::size_t block) const {
    auto first = static_cast<std::uint32_t>(block * kDetectionBlockRows);
    auto last = static_cast<std::uint32_t>(
        std::min(size(), (block + 1) * kDetectionBlockRows));
    return {first, last};
  }
  /// Whether block `b` lives in the cold tier.
  [[nodiscard]] bool block_is_cold(std::size_t b) const {
    return b < cold_.size();
  }
  [[nodiscard]] const CompressedBlock& cold_block(std::size_t b) const {
    return cold_[b];
  }

  // ------------------------------------------- vectorized block scans
  //
  // The production scan path: one block (4096-row morsel) at a time, each
  // predicate evaluated branch-free into a `uint32_t` selection vector. A
  // zone map proving the block fully inside every predicate emits the
  // morsel wholesale without evaluating (or, for cold blocks, decoding)
  // anything; otherwise predicates run most-selective-first
  // (zone-estimated), so later predicates only touch survivors. Hot blocks
  // run the plain kernels over the store's columns; cold blocks run the
  // decode-fused kernels (common/filter_kernel.h) straight off packed
  // codes into this thread's ColdScratch, counting one decode_morsel.
  // Block entries write all accounting into the caller's MorselStats and
  // never touch the store's mutable counters, so disjoint morsels of one
  // store can be scanned from many threads — each thread owns its scratch.

  /// Scans block `b` for rows with position ∈ `region`, time ∈ `interval`.
  /// Appends at most kDetectionBlockRows row ids into `sel`; returns how
  /// many were selected.
  std::uint32_t scan_range_block(std::size_t b, const Rect& region,
                                 const TimeInterval& interval,
                                 std::uint32_t* sel, MorselStats& ms) const {
    const DetectionBlockZone& z = zones_[b];
    bool cold = b < cold_.size();
    if (!z.overlaps(interval) || !z.overlaps(region)) {
      ++ms.blocks_skipped;
      ms.cold_blocks_skipped += cold;
      return 0;
    }
    ++ms.blocks_scanned;
    ms.cold_blocks_scanned += cold;
    ++ms.morsels;
    auto [first, last] = block_rows(b);
    std::int64_t t0 = interval.begin.micros_since_origin();
    std::int64_t t1 = interval.end.micros_since_origin();
    bool all_time = z.within(interval);
    bool all_space = z.within(region);
    if (all_time && all_space) {
      ++ms.zone_fast_path;
      std::uint32_t n = fill_identity(first, last, sel);
      ms.rows_selected += n;
      return n;
    }
    std::uint32_t n;
    if (cold) {
      const CompressedBlock& cb = cold_[b];
      ColdScratch& sc = cold_scratch();
      sc.ensure(cb.uid);
      ++ms.decode_morsels;
      if (all_space) {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = cb.filter_rect(region, sc.xs, sc.ys, sel);
        sc.valid |= ColdScratch::kPos;
        ms.rows_evaluated += last - first;
      } else if (z.space_selectivity(region) <= z.time_selectivity(interval)) {
        n = cb.filter_rect(region, sc.xs, sc.ys, sel);
        sc.valid |= ColdScratch::kPos;
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_time(t0, t1, sel, n);
      } else {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_rect(region, sel, n);
      }
      offset_sel(sel, n, first);
    } else {
      auto lf = static_cast<std::uint32_t>(first - hot_base_);
      auto ll = static_cast<std::uint32_t>(last - hot_base_);
      if (all_space) {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = filter_rect(xs_.data(), ys_.data(), lf, ll, region, sel);
        ms.rows_evaluated += last - first;
      } else if (z.space_selectivity(region) <= z.time_selectivity(interval)) {
        n = filter_rect(xs_.data(), ys_.data(), lf, ll, region, sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_time(times_.data(), t0, t1, sel, n);
      } else {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_rect(xs_.data(), ys_.data(), region, sel, n);
      }
      if (hot_base_ != 0) {
        offset_sel(sel, n, static_cast<std::uint32_t>(hot_base_));
      }
    }
    ms.rows_selected += n;
    return n;
  }

  /// Scans block `b` for rows inside `circle` during `interval`.
  std::uint32_t scan_circle_block(std::size_t b, const Circle& circle,
                                  const TimeInterval& interval,
                                  std::uint32_t* sel, MorselStats& ms) const {
    const DetectionBlockZone& z = zones_[b];
    Rect box = circle.bounding_box();
    bool cold = b < cold_.size();
    if (!z.overlaps(interval) || !z.overlaps(box)) {
      ++ms.blocks_skipped;
      ms.cold_blocks_skipped += cold;
      return 0;
    }
    ++ms.blocks_scanned;
    ms.cold_blocks_scanned += cold;
    ++ms.morsels;
    auto [first, last] = block_rows(b);
    std::int64_t t0 = interval.begin.micros_since_origin();
    std::int64_t t1 = interval.end.micros_since_origin();
    bool all_time = z.within(interval);
    bool all_space = z.within(circle);  // corner containment, not bbox-in-box
    if (all_time && all_space) {
      ++ms.zone_fast_path;
      std::uint32_t n = fill_identity(first, last, sel);
      ms.rows_selected += n;
      return n;
    }
    std::uint32_t n;
    if (cold) {
      const CompressedBlock& cb = cold_[b];
      ColdScratch& sc = cold_scratch();
      sc.ensure(cb.uid);
      ++ms.decode_morsels;
      if (all_space) {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = cb.filter_circle(circle.center, circle.radius, sc.xs, sc.ys, sel);
        sc.valid |= ColdScratch::kPos;
        ms.rows_evaluated += last - first;
      } else if (z.space_selectivity(box) <= z.time_selectivity(interval)) {
        n = cb.filter_circle(circle.center, circle.radius, sc.xs, sc.ys, sel);
        sc.valid |= ColdScratch::kPos;
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_time(t0, t1, sel, n);
      } else {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_circle(circle.center, circle.radius, sel, n);
      }
      offset_sel(sel, n, first);
    } else {
      auto lf = static_cast<std::uint32_t>(first - hot_base_);
      auto ll = static_cast<std::uint32_t>(last - hot_base_);
      if (all_space) {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = filter_circle(xs_.data(), ys_.data(), lf, ll, circle.center,
                          circle.radius, sel);
        ms.rows_evaluated += last - first;
      } else if (z.space_selectivity(box) <= z.time_selectivity(interval)) {
        n = filter_circle(xs_.data(), ys_.data(), lf, ll, circle.center,
                          circle.radius, sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_time(times_.data(), t0, t1, sel, n);
      } else {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_circle(xs_.data(), ys_.data(), circle.center, circle.radius,
                          sel, n);
      }
      if (hot_base_ != 0) {
        offset_sel(sel, n, static_cast<std::uint32_t>(hot_base_));
      }
    }
    ms.rows_selected += n;
    return n;
  }

  /// Scans block `b` for rows of `camera` during `interval`. Cold camera
  /// equality runs in dictionary-code space without decoding the column.
  std::uint32_t scan_camera_block(std::size_t b, CameraId camera,
                                  const TimeInterval& interval,
                                  std::uint32_t* sel, MorselStats& ms) const {
    const DetectionBlockZone& z = zones_[b];
    bool cold = b < cold_.size();
    if (!z.overlaps(interval) || !z.may_contain(camera)) {
      ++ms.blocks_skipped;
      ms.cold_blocks_skipped += cold;
      return 0;
    }
    ++ms.blocks_scanned;
    ms.cold_blocks_scanned += cold;
    ++ms.morsels;
    auto [first, last] = block_rows(b);
    std::int64_t t0 = interval.begin.micros_since_origin();
    std::int64_t t1 = interval.end.micros_since_origin();
    bool all_time = z.within(interval);
    bool all_camera = z.only_camera(camera);
    if (all_time && all_camera) {
      ++ms.zone_fast_path;
      std::uint32_t n = fill_identity(first, last, sel);
      ms.rows_selected += n;
      return n;
    }
    std::uint32_t n;
    if (cold) {
      const CompressedBlock& cb = cold_[b];
      ColdScratch& sc = cold_scratch();
      sc.ensure(cb.uid);
      ++ms.decode_morsels;
      if (all_camera) {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = cb.filter_camera(camera.value(), sel);
        ms.rows_evaluated += last - first;
      } else if (z.camera_selectivity() <= z.time_selectivity(interval)) {
        n = cb.filter_camera(camera.value(), sel);
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_time(t0, t1, sel, n);
      } else {
        n = cb.filter_time(t0, t1, sc.times, sel);
        sc.valid |= ColdScratch::kTime;
        ms.rows_evaluated += (last - first) + n;
        n = cb.refine_camera(camera.value(), sel, n);
      }
      offset_sel(sel, n, first);
    } else {
      auto lf = static_cast<std::uint32_t>(first - hot_base_);
      auto ll = static_cast<std::uint32_t>(last - hot_base_);
      if (all_camera) {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += last - first;
      } else if (all_time) {
        n = filter_camera(cameras_.data(), lf, ll, camera.value(), sel);
        ms.rows_evaluated += last - first;
      } else if (z.camera_selectivity() <= z.time_selectivity(interval)) {
        n = filter_camera(cameras_.data(), lf, ll, camera.value(), sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_time(times_.data(), t0, t1, sel, n);
      } else {
        n = filter_time(times_.data(), lf, ll, t0, t1, sel);
        ms.rows_evaluated += (last - first) + n;
        n = refine_camera(cameras_.data(), camera.value(), sel, n);
      }
      if (hot_base_ != 0) {
        offset_sel(sel, n, static_cast<std::uint32_t>(hot_base_));
      }
    }
    ms.rows_selected += n;
    return n;
  }

  /// Full-store scan with block skipping: every row with position ∈
  /// `region` and time ∈ `interval`, in row (arrival) order. Vectorized:
  /// each surviving block runs through the selection-vector kernels; a
  /// block proven fully inside both predicates is emitted without per-row
  /// checks. Accounting accumulates into `stats` when given.
  [[nodiscard]] std::vector<DetectionRef> scan_range(
      const Rect& region, const TimeInterval& interval,
      MorselStats* stats = nullptr) const {
    std::vector<DetectionRef> out;
    if (region.is_empty() || interval.empty()) return out;
    MorselStats ms;
    std::uint32_t sel[kDetectionBlockRows];
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      if (z.within(interval) && z.within(region)) {
        append_identity_block(b, ms, out);
        continue;
      }
      std::uint32_t n = scan_range_block(b, region, interval, sel, ms);
      append_refs(sel, n, out);
    }
    finish_scan(ms, stats);
    return out;
  }

  /// Full-store scan with block skipping: rows inside `circle` during
  /// `interval`, in row order. Vectorized (see scan_range).
  [[nodiscard]] std::vector<DetectionRef> scan_circle(
      const Circle& circle, const TimeInterval& interval,
      MorselStats* stats = nullptr) const {
    std::vector<DetectionRef> out;
    if (interval.empty() || circle.radius < 0.0) return out;
    MorselStats ms;
    std::uint32_t sel[kDetectionBlockRows];
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      if (z.within(interval) && z.within(circle)) {
        append_identity_block(b, ms, out);
        continue;
      }
      std::uint32_t n = scan_circle_block(b, circle, interval, sel, ms);
      append_refs(sel, n, out);
    }
    finish_scan(ms, stats);
    return out;
  }

  /// Full-store scan with block skipping on the camera fingerprint: rows of
  /// `camera` during `interval`, in row order. Vectorized (see scan_range).
  [[nodiscard]] std::vector<DetectionRef> scan_camera(
      CameraId camera, const TimeInterval& interval,
      MorselStats* stats = nullptr) const {
    std::vector<DetectionRef> out;
    if (interval.empty()) return out;
    MorselStats ms;
    std::uint32_t sel[kDetectionBlockRows];
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      if (z.within(interval) && z.only_camera(camera)) {
        append_identity_block(b, ms, out);
        continue;
      }
      std::uint32_t n = scan_camera_block(b, camera, interval, sel, ms);
      append_refs(sel, n, out);
    }
    finish_scan(ms, stats);
    return out;
  }

  /// The k rows during `interval` nearest to `center`, ordered by (squared
  /// distance, detection id) — the order ResultMerger finalizes k-NN in, so
  /// a tie at the k-th distance keeps the smaller id. Best-first over
  /// blocks: blocks outside `interval` are skipped, the rest are visited by
  /// the squared distance from `center` to their zone bbox, and the walk
  /// stops (counting the rest skipped) once that bound exceeds the k-th
  /// best distance. A visited block filters time into a selection vector
  /// and offers each survivor to a top-k heap. rows_evaluated counts time
  /// checks plus distance computations; rows_selected the rows offered.
  [[nodiscard]] std::vector<DetectionRef> scan_knn(
      Point center, std::size_t k, const TimeInterval& interval,
      MorselStats* stats = nullptr) const {
    std::vector<DetectionRef> out;
    if (k == 0 || interval.empty()) return out;
    MorselStats ms;
    auto skip = [&](std::size_t b) {
      ++ms.blocks_skipped;
      ms.cold_blocks_skipped += b < cold_.size();
    };
    std::vector<std::pair<double, std::size_t>> order;  // (bound², block)
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      if (!z.overlaps(interval)) {
        skip(b);
        continue;
      }
      double dx = std::max({z.x_min - center.x, 0.0, center.x - z.x_max});
      double dy = std::max({z.y_min - center.y, 0.0, center.y - z.y_max});
      order.emplace_back(dx * dx + dy * dy, b);
    }
    std::sort(order.begin(), order.end());
    struct Hit {
      double d2;
      std::uint64_t id;
      std::uint32_t row;
    };
    auto before = [](const Hit& a, const Hit& b) {
      return a.d2 != b.d2 ? a.d2 < b.d2 : a.id < b.id;
    };
    std::vector<Hit> top;  // max-heap under `before`: the worst hit on top
    std::uint32_t sel[kDetectionBlockRows];
    for (std::size_t i = 0; i < order.size(); ++i) {
      auto [bound, b] = order[i];
      if (top.size() == k && bound > top.front().d2) {
        for (; i < order.size(); ++i) skip(order[i].second);
        break;
      }
      bool cold = b < cold_.size();
      ++ms.blocks_scanned;
      ms.cold_blocks_scanned += cold;
      ms.decode_morsels += cold;
      ++ms.morsels;
      auto [first, last] = block_rows(b);
      BlockColumnsView v = block_columns(b);
      std::uint32_t rows = last - first;
      std::uint32_t n;
      if (zones_[b].within(interval)) {
        n = fill_identity(0, rows, sel);
      } else {
        n = filter_time(v.times, 0, rows, interval.begin.micros_since_origin(),
                        interval.end.micros_since_origin(), sel);
        ms.rows_evaluated += rows;
      }
      ms.rows_evaluated += n;
      ms.rows_selected += n;
      for (std::uint32_t s = 0; s < n; ++s) {
        double d2 = squared_distance(Point{v.xs[sel[s]], v.ys[sel[s]]}, center);
        if (top.size() == k && d2 > top.front().d2) continue;
        std::uint32_t row = first + sel[s];
        Hit hit{d2, id_of(static_cast<DetectionRef>(row)).value(), row};
        if (top.size() < k) {
          top.push_back(hit);
          std::push_heap(top.begin(), top.end(), before);
        } else if (before(hit, top.front())) {
          std::pop_heap(top.begin(), top.end(), before);
          top.back() = hit;
          std::push_heap(top.begin(), top.end(), before);
        }
      }
    }
    std::sort_heap(top.begin(), top.end(), before);
    out.reserve(top.size());
    for (const Hit& hit : top) {
      out.push_back(static_cast<DetectionRef>(hit.row));
    }
    finish_scan(ms, stats);
    return out;
  }

  // --------------------------------------------- scalar reference scans
  //
  // The row-at-a-time paths the vectorized layer replaced, retained as the
  // differential-testing reference and the bench before/after baseline.
  // Same zone-map block skipping, but predicates branch per row and there
  // is no selectivity-ordered evaluation. Cold blocks are read through
  // block_columns() (whole-column decode into scratch) — deliberately the
  // simplest correct path, not the fused one under test.

  [[nodiscard]] std::vector<DetectionRef> scan_range_scalar(
      const Rect& region, const TimeInterval& interval) const {
    std::vector<DetectionRef> out;
    if (region.is_empty() || interval.empty()) return out;
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      bool cold = b < cold_.size();
      if (!z.overlaps(interval) || !z.overlaps(region)) {
        ++blocks_skipped_;
        cold_blocks_skipped_ += cold;
        continue;
      }
      ++blocks_scanned_;
      cold_blocks_scanned_ += cold;
      decode_morsels_ += cold;
      auto [first, last] = block_rows(b);
      BlockColumnsView v = block_columns(b);
      bool all_time = z.within(interval);
      bool all_space = z.within(region);
      for (std::uint32_t i = first; i < last; ++i) {
        std::uint32_t j = i - v.base;
        if (!all_time &&
            !(v.times[j] >= interval.begin.micros_since_origin() &&
              v.times[j] < interval.end.micros_since_origin())) {
          continue;
        }
        if (!all_space && !region.contains(Point{v.xs[j], v.ys[j]})) continue;
        out.push_back(static_cast<DetectionRef>(i));
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<DetectionRef> scan_circle_scalar(
      const Circle& circle, const TimeInterval& interval) const {
    std::vector<DetectionRef> out;
    if (interval.empty() || circle.radius < 0.0) return out;
    Rect box = circle.bounding_box();
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      bool cold = b < cold_.size();
      if (!z.overlaps(interval) || !z.overlaps(box)) {
        ++blocks_skipped_;
        cold_blocks_skipped_ += cold;
        continue;
      }
      ++blocks_scanned_;
      cold_blocks_scanned_ += cold;
      decode_morsels_ += cold;
      auto [first, last] = block_rows(b);
      BlockColumnsView v = block_columns(b);
      bool all_time = z.within(interval);
      for (std::uint32_t i = first; i < last; ++i) {
        std::uint32_t j = i - v.base;
        if (!all_time &&
            !(v.times[j] >= interval.begin.micros_since_origin() &&
              v.times[j] < interval.end.micros_since_origin())) {
          continue;
        }
        if (!circle.contains(Point{v.xs[j], v.ys[j]})) continue;
        out.push_back(static_cast<DetectionRef>(i));
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<DetectionRef> scan_camera_scalar(
      CameraId camera, const TimeInterval& interval) const {
    std::vector<DetectionRef> out;
    if (interval.empty()) return out;
    for (std::size_t b = 0; b < zones_.size(); ++b) {
      const DetectionBlockZone& z = zones_[b];
      bool cold = b < cold_.size();
      if (!z.overlaps(interval) || !z.may_contain(camera)) {
        ++blocks_skipped_;
        cold_blocks_skipped_ += cold;
        continue;
      }
      ++blocks_scanned_;
      cold_blocks_scanned_ += cold;
      decode_morsels_ += cold;
      auto [first, last] = block_rows(b);
      BlockColumnsView v = block_columns(b);
      bool all_time = z.within(interval);
      for (std::uint32_t i = first; i < last; ++i) {
        std::uint32_t j = i - v.base;
        if (v.cameras[j] != camera.value()) continue;
        if (!all_time &&
            !(v.times[j] >= interval.begin.micros_since_origin() &&
              v.times[j] < interval.end.micros_since_origin())) {
          continue;
        }
        out.push_back(static_cast<DetectionRef>(i));
      }
    }
    return out;
  }

  /// Cumulative zone-map accounting across every block-skipping scan.
  [[nodiscard]] std::uint64_t blocks_scanned() const { return blocks_scanned_; }
  [[nodiscard]] std::uint64_t blocks_skipped() const { return blocks_skipped_; }
  /// Cold-tier slices of the cumulative counters.
  [[nodiscard]] std::uint64_t cold_blocks_scanned() const {
    return cold_blocks_scanned_;
  }
  [[nodiscard]] std::uint64_t cold_blocks_skipped() const {
    return cold_blocks_skipped_;
  }
  [[nodiscard]] std::uint64_t decode_morsels() const { return decode_morsels_; }

  /// Folds externally-driven block-scan accounting (e.g. the executor's
  /// per-block aggregations) into the cumulative counters. Call from one
  /// thread, after joins.
  void note_scan(const MorselStats& ms) const {
    blocks_scanned_ += ms.blocks_scanned;
    blocks_skipped_ += ms.blocks_skipped;
    cold_blocks_scanned_ += ms.cold_blocks_scanned;
    cold_blocks_skipped_ += ms.cold_blocks_skipped;
    decode_morsels_ += ms.decode_morsels;
  }

  // ------------------------------------------------------------- memory

  /// Exact resident bytes this store owns: hot columns + embedding arena +
  /// zone maps + compressed cold blocks, capacity-based. The shared decode
  /// scratch is reported separately (memory_breakdown().scratch_bytes) and
  /// excluded here.
  [[nodiscard]] std::size_t memory_bytes() const {
    return memory_breakdown().total();
  }

  [[nodiscard]] MemoryBreakdown memory_breakdown() const {
    MemoryBreakdown m;
    m.column_bytes = ids_.capacity() * sizeof(std::uint64_t) +
                     cameras_.capacity() * sizeof(std::uint64_t) +
                     objects_.capacity() * sizeof(std::uint64_t) +
                     times_.capacity() * sizeof(std::int64_t) +
                     xs_.capacity() * sizeof(double) +
                     ys_.capacity() * sizeof(double) +
                     confidences_.capacity() * sizeof(double) +
                     emb_offsets_.capacity() * sizeof(std::uint64_t);
    m.arena_bytes = arena_.capacity() * sizeof(float);
    m.zone_bytes = zones_.capacity() * sizeof(DetectionBlockZone);
    m.cold_bytes = compressed_bytes() +
                   cold_.capacity() * sizeof(CompressedBlock);
    m.scratch_bytes = cold_scratch_bytes();
    return m;
  }

  // ----------------------------------------------------------- snapshots
  //
  // The recovery image is one self-checking segment per block, in block
  // order: the unit a snapshot vault keeps, and what a full image
  // (serialize_to) concatenates. A segment is
  //
  //   u32 kind · u32 rows · u64 payload bytes · u64 FNV-1a(payload) · payload
  //
  // A cold block's payload is its CompressedBlock encoding (snapshots
  // shrink with the store). A hot block's payload is its rows, row-major:
  // id, camera, object, time, x, y, confidence, a u32 embedding dim, then
  // the floats as raw bits (snapshots must round-trip exactly). Row-major
  // is what lets a hot segment grow in place: extend_segment appends the
  // rows the block gained and patches the header, continuing the running
  // checksum from its stored value — O(new rows), and byte-identical to
  // encoding the block afresh. Zone maps are not serialized; decode
  // rebuilds them deterministically — cold zones from decoded cold values,
  // hot zones from the hot columns.

  static constexpr std::size_t kSegmentHeaderBytes = 24;

  /// Encodes block `b` as one segment.
  [[nodiscard]] std::vector<std::uint8_t> encode_segment(std::size_t b) const {
    STCN_CHECK(b < block_count());
    auto [first, last] = block_rows(b);
    std::vector<std::uint8_t> seg;
    SegmentHeader h;
    h.rows = last - first;
    if (b < cold_.size()) {
      BinaryWriter w;
      w.reserve(kSegmentHeaderBytes + cold_[b].compressed_bytes() + 1024);
      for (int i = 0; i < 3; ++i) w.write_u64(0);  // header, sealed below
      cold_[b].serialize_to(w);
      seg = w.take();
      seg.shrink_to_fit();  // vaults hold segments for the block's lifetime
      h.kind = kColdSegment;
    } else {
      seg.resize(kSegmentHeaderBytes);
      put_hot_rows(first, last, seg);
      h.kind = kHotSegment;
    }
    h.payload = seg.size() - kSegmentHeaderBytes;
    h.hash = fnv1a(kFnvOffset, seg.data() + kSegmentHeaderBytes, h.payload);
    h.store(seg.data());
    return seg;
  }

  /// Extends `seg` — hot block `b`'s segment, holding a prefix of its rows
  /// — with the rows the block has gained since, patching the header in
  /// place. Returns the payload bytes appended (0 when nothing is new).
  std::size_t extend_segment(std::size_t b,
                             std::vector<std::uint8_t>& seg) const {
    STCN_CHECK(b >= cold_.size() && b < block_count());
    STCN_CHECK(seg.size() >= kSegmentHeaderBytes);
    SegmentHeader h = SegmentHeader::load(seg.data());
    STCN_CHECK(h.kind == kHotSegment);
    auto [first, last] = block_rows(b);
    std::uint32_t from = first + h.rows;
    STCN_CHECK(from <= last);
    if (from == last) return 0;
    std::size_t at = seg.size();
    // Grow by an eighth rather than letting the vector double: a vault
    // holds one growing segment per partition, and doubling would leave up
    // to half of every one as slack (an eighth still amortizes the copy).
    std::size_t need = at + hot_rows_bytes(from, last);
    if (need > seg.capacity()) seg.reserve(std::max(need, at + at / 8));
    put_hot_rows(from, last, seg);
    h.rows = last - first;
    h.payload += seg.size() - at;
    h.hash = fnv1a(h.hash, seg.data() + at, seg.size() - at);
    h.store(seg.data());
    return seg.size() - at;
  }

  /// Appends one encoded block (an encode_segment image) to the end of the
  /// store. The store must end on a block boundary, and a cold segment may
  /// only follow cold blocks. Returns false — leaving the store untouched
  /// — when the segment is truncated, fails its checksum, or does not fit.
  /// No demotion runs: the decoded tier boundary is the encoded one.
  bool append_segment(std::span<const std::uint8_t> seg) {
    if (seg.size() < kSegmentHeaderBytes || size() % kDetectionBlockRows != 0) {
      return false;
    }
    SegmentHeader h = SegmentHeader::load(seg.data());
    std::span<const std::uint8_t> payload = seg.subspan(kSegmentHeaderBytes);
    if (h.payload != payload.size() ||
        h.hash != fnv1a(kFnvOffset, payload.data(), payload.size()) ||
        h.rows == 0 || h.rows > kDetectionBlockRows ||
        size() + h.rows >= UINT32_MAX) {
      return false;
    }
    if (h.kind == kColdSegment) {
      BinaryReader r(payload.data(), payload.size());
      CompressedBlock cb;
      if (!ids_.empty() || h.rows != kDetectionBlockRows ||
          !CompressedBlock::deserialize_from(r, cb) || cb.rows != h.rows ||
          !r.at_end()) {
        return false;
      }
      zones_.push_back(zone_from_cold(cb));
      cold_.push_back(std::move(cb));
      hot_base_ += kDetectionBlockRows;
      return true;
    }
    if (h.kind != kHotSegment) return false;
    // Check the row framing end to end before any column grows.
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < h.rows; ++i) {
      if (payload.size() - pos < kHotRowFixedBytes) return false;
      std::uint32_t dim = load<std::uint32_t>(payload.data() + pos + 56);
      pos += kHotRowFixedBytes;
      if (dim > (payload.size() - pos) / sizeof(float)) return false;
      pos += dim * sizeof(float);
    }
    if (pos != payload.size()) return false;
    const std::uint8_t* p = payload.data();
    for (std::uint32_t i = 0; i < h.rows; ++i) {
      auto row = static_cast<std::uint32_t>(size());
      ids_.push_back(load<std::uint64_t>(p));
      cameras_.push_back(load<std::uint64_t>(p + 8));
      objects_.push_back(load<std::uint64_t>(p + 16));
      times_.push_back(load<std::int64_t>(p + 24));
      xs_.push_back(load<double>(p + 32));
      ys_.push_back(load<double>(p + 40));
      confidences_.push_back(load<double>(p + 48));
      std::uint32_t dim = load<std::uint32_t>(p + 56);
      p += kHotRowFixedBytes;
      if (dim > 0) {
        std::size_t a = arena_.size();
        arena_.resize(a + dim);
        std::memcpy(arena_.data() + a, p, dim * sizeof(float));
        p += dim * sizeof(float);
      }
      emb_offsets_.push_back(arena_.size());
      grow_zone(row);
    }
    return true;
  }

  /// Full image: magic, segment count, then every block's segment.
  void serialize_to(BinaryWriter& w) const {
    w.write_u32(kStoreSnapshotMagic);
    w.write_u32(static_cast<std::uint32_t>(block_count()));
    for (std::size_t b = 0; b < block_count(); ++b) {
      w.write_bytes(encode_segment(b));
    }
  }

  /// Decodes a serialize_to image. On truncated or inconsistent input the
  /// reader is left failed() and the returned store is empty.
  [[nodiscard]] static DetectionStore deserialize_from(BinaryReader& r) {
    DetectionStore s;
    auto poison = [&r] {
      (void)r.read_bytes(r.remaining() + 1);
      return DetectionStore{};
    };
    std::uint32_t magic = r.read_u32();
    if (r.failed() || magic != kStoreSnapshotMagic) return poison();
    std::uint32_t n = r.read_u32();
    if (r.failed() ||
        static_cast<std::uint64_t>(n) * kSegmentHeaderBytes > r.remaining()) {
      return poison();
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      std::span<const std::uint8_t> head = r.read_span(kSegmentHeaderBytes);
      if (r.failed()) return poison();
      std::uint64_t payload = SegmentHeader::load(head.data()).payload;
      if (payload > r.remaining()) return poison();
      (void)r.read_span(payload);
      if (!s.append_segment({head.data(), kSegmentHeaderBytes + payload})) {
        return poison();
      }
    }
    return s;
  }

 private:
  static constexpr std::uint32_t kStoreSnapshotMagic = 0x53544333;  // "STC3"
  static constexpr std::uint32_t kColdSegment = 0x444C4F43;  // "COLD"
  static constexpr std::uint32_t kHotSegment = 0x544F4848;   // "HHOT"
  // Seven 8-byte fields and the u32 embedding dim.
  static constexpr std::size_t kHotRowFixedBytes = 60;
  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

  template <typename T>
  [[nodiscard]] static T load(const std::uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  template <typename T>
  static std::uint8_t* put(std::uint8_t* p, T v) {
    std::memcpy(p, &v, sizeof v);
    return p + sizeof v;
  }

  /// FNV-1a over `n` bytes, continuing from state `h`.
  [[nodiscard]] static std::uint64_t fnv1a(std::uint64_t h,
                                           const std::uint8_t* p,
                                           std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
    return h;
  }

  struct SegmentHeader {
    std::uint32_t kind = 0;
    std::uint32_t rows = 0;
    std::uint64_t payload = 0;
    std::uint64_t hash = 0;

    [[nodiscard]] static SegmentHeader load(const std::uint8_t* p) {
      return {DetectionStore::load<std::uint32_t>(p),
              DetectionStore::load<std::uint32_t>(p + 4),
              DetectionStore::load<std::uint64_t>(p + 8),
              DetectionStore::load<std::uint64_t>(p + 16)};
    }
    void store(std::uint8_t* p) const {
      p = put(p, kind);
      p = put(p, rows);
      p = put(p, payload);
      (void)put(p, hash);
    }
  };

  /// Encoded size of hot rows [first, last).
  [[nodiscard]] std::size_t hot_rows_bytes(std::uint32_t first,
                                           std::uint32_t last) const {
    std::size_t h0 = first - hot_base_;
    std::size_t h1 = last - hot_base_;
    std::size_t floats =
        emb_offsets_[h1 - 1] - (h0 == 0 ? 0 : emb_offsets_[h0 - 1]);
    return (h1 - h0) * kHotRowFixedBytes + floats * sizeof(float);
  }

  /// Appends hot rows [first, last) to `out` in the hot-segment layout.
  void put_hot_rows(std::uint32_t first, std::uint32_t last,
                    std::vector<std::uint8_t>& out) const {
    std::size_t at = out.size();
    out.resize(at + hot_rows_bytes(first, last));
    std::uint8_t* p = out.data() + at;
    for (std::size_t h = first - hot_base_; h < last - hot_base_; ++h) {
      p = put(p, ids_[h]);
      p = put(p, cameras_[h]);
      p = put(p, objects_[h]);
      p = put(p, times_[h]);
      p = put(p, xs_[h]);
      p = put(p, ys_[h]);
      p = put(p, confidences_[h]);
      std::size_t begin = h == 0 ? 0 : emb_offsets_[h - 1];
      auto dim = static_cast<std::uint32_t>(emb_offsets_[h] - begin);
      p = put(p, dim);
      if (dim > 0) {
        std::memcpy(p, arena_.data() + begin, dim * sizeof(float));
        p += dim * sizeof(float);
      }
    }
  }

  static void append_refs(const std::uint32_t* sel, std::uint32_t n,
                          std::vector<DetectionRef>& out) {
    std::size_t base = out.size();
    out.resize(base + n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out[base + i] = static_cast<DetectionRef>(sel[i]);
    }
  }

  /// Fully-inside fast path for the single-threaded wrappers: the zone
  /// proved every row of block `b` qualifies, so the identity row range is
  /// appended in one pass — no selection vector, no per-row predicate, no
  /// decode (the chief cold-tier win: a fully-covered cold block costs the
  /// same as a hot one). Accounting matches scan_*_block's fast-path case.
  void append_identity_block(std::size_t b, MorselStats& ms,
                             std::vector<DetectionRef>& out) const {
    auto [first, last] = block_rows(b);
    ++ms.blocks_scanned;
    ms.cold_blocks_scanned += b < cold_.size();
    ++ms.morsels;
    ++ms.zone_fast_path;
    ms.rows_selected += last - first;
    std::size_t base = out.size();
    out.resize(base + (last - first));
    DetectionRef* p = out.data() + base;
    for (std::uint32_t i = first; i < last; ++i) {
      *p++ = static_cast<DetectionRef>(i);
    }
  }

  /// Folds a scan's caller-owned MorselStats into the store's cumulative
  /// counters (calling thread only) and into `stats` when given.
  void finish_scan(const MorselStats& ms, MorselStats* stats) const {
    note_scan(ms);
    if (stats != nullptr) stats->merge(ms);
  }

  [[nodiscard]] std::uint32_t checked(DetectionRef ref) const {
    std::uint32_t i = to_index(ref);
    STCN_CHECK(i < size());
    return i;
  }

  /// Extends the newest hot block's zone with (global) row `row`.
  void grow_zone(std::uint32_t row) {
    if (row % kDetectionBlockRows == 0) zones_.emplace_back();
    DetectionBlockZone& z = zones_.back();
    std::size_t h = row - hot_base_;
    std::int64_t t = times_[h];
    z.t_min = std::min(z.t_min, t);
    z.t_max = std::max(z.t_max, t);
    z.x_min = std::min(z.x_min, xs_[h]);
    z.x_max = std::max(z.x_max, xs_[h]);
    z.y_min = std::min(z.y_min, ys_[h]);
    z.y_max = std::max(z.y_max, ys_[h]);
    std::uint64_t cam = cameras_[h];
    z.camera_min = std::min(z.camera_min, cam);
    z.camera_max = std::max(z.camera_max, cam);
    z.camera_bits |= std::uint64_t{1} << (cam % 64);
  }

  /// Zone map of a cold block, computed from *decoded* values so every
  /// read path (zone fast path, fused kernel, scalar loop, accessor) sees
  /// one consistent quantized dataset. Carrying the raw-value zone over
  /// would be slightly tighter but could disagree with decoded positions
  /// at a quantum boundary.
  [[nodiscard]] static DetectionBlockZone zone_from_cold(
      const CompressedBlock& cb) {
    DetectionBlockZone z;
    const std::int64_t* times = cold_times(cb);
    const double* xs = nullptr;
    const double* ys = nullptr;
    cold_positions(cb, xs, ys);
    const std::uint64_t* cameras = cold_cameras(cb);
    for (std::uint32_t i = 0; i < cb.rows; ++i) {
      z.t_min = std::min(z.t_min, times[i]);
      z.t_max = std::max(z.t_max, times[i]);
      z.x_min = std::min(z.x_min, xs[i]);
      z.x_max = std::max(z.x_max, xs[i]);
      z.y_min = std::min(z.y_min, ys[i]);
      z.y_max = std::max(z.y_max, ys[i]);
      std::uint64_t cam = cameras[i];
      z.camera_min = std::min(z.camera_min, cam);
      z.camera_max = std::max(z.camera_max, cam);
      z.camera_bits |= std::uint64_t{1} << (cam % 64);
    }
    return z;
  }

  /// Demotes sealed hot blocks past the configured hot watermark.
  void maybe_demote() {
    if (!tier_.enabled) return;
    while (ids_.size() / kDetectionBlockRows > tier_.hot_sealed_blocks) {
      demote_front_block();
    }
  }

  /// Encodes the oldest sealed hot block into the cold tier and drops its
  /// hot rows. Row ids are unchanged: the block keeps its position, only
  /// its representation moves.
  void demote_front_block() {
    STCN_CHECK(ids_.size() >= kDetectionBlockRows);
    auto k = static_cast<std::uint32_t>(kDetectionBlockRows);
    cold_.push_back(CompressedBlock::encode(
        ids_.data(), cameras_.data(), objects_.data(), times_.data(),
        xs_.data(), ys_.data(), confidences_.data(), arena_.data(),
        emb_offsets_.data(), k));
    std::uint64_t emb_end = emb_offsets_[k - 1];
    ids_.erase(ids_.begin(), ids_.begin() + k);
    cameras_.erase(cameras_.begin(), cameras_.begin() + k);
    objects_.erase(objects_.begin(), objects_.begin() + k);
    times_.erase(times_.begin(), times_.begin() + k);
    xs_.erase(xs_.begin(), xs_.begin() + k);
    ys_.erase(ys_.begin(), ys_.begin() + k);
    confidences_.erase(confidences_.begin(), confidences_.begin() + k);
    arena_.erase(arena_.begin(),
                 arena_.begin() + static_cast<std::ptrdiff_t>(emb_end));
    emb_offsets_.erase(emb_offsets_.begin(), emb_offsets_.begin() + k);
    for (std::uint64_t& off : emb_offsets_) off -= emb_end;
    hot_base_ += kDetectionBlockRows;
    // Re-derive the block's zone from decoded values (see zone_from_cold).
    zones_[cold_.size() - 1] = zone_from_cold(cold_.back());
  }

  // Cold tier: compressed blocks covering rows [0, hot_base_).
  std::vector<CompressedBlock> cold_;
  std::size_t hot_base_ = 0;
  StoreTierConfig tier_;

  // Hot columns: one contiguous array per attribute, indexed by
  // (row − hot_base_).
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint64_t> cameras_;
  std::vector<std::uint64_t> objects_;
  std::vector<std::int64_t> times_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> confidences_;
  // Embedding arena: hot row h's floats live at [emb_offsets_[h-1],
  // emb_offsets_[h]) (cumulative offsets tolerate ragged dimensions; with
  // uniform dims the arena is a dense row-major matrix).
  std::vector<float> arena_;
  std::vector<std::uint64_t> emb_offsets_;
  // Zone maps for every block, both tiers.
  std::vector<DetectionBlockZone> zones_;
  mutable std::uint64_t blocks_scanned_ = 0;
  mutable std::uint64_t blocks_skipped_ = 0;
  mutable std::uint64_t cold_blocks_scanned_ = 0;
  mutable std::uint64_t cold_blocks_skipped_ = 0;
  mutable std::uint64_t decode_morsels_ = 0;
};

}  // namespace stcn
