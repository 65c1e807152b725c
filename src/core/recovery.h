// Incremental crash recovery: watermarks, replay logs, and snapshots.
//
// Every ingest sender (the coordinator, each gateway) stamps the batches it
// emits with a per-partition monotonically increasing batch id (`pbid`).
// Workers track, per (partition, source), the highest *contiguous* pbid they
// have applied — the watermark. A snapshot is a DetectionStore image
// keyed by the watermark at capture time; a replay log retains recent
// batches past the watermark so a restarted peer can fetch only the delta
// instead of re-copying the whole partition.
//
// Soundness invariant: every row in a holder's store either arrived in a
// batch with pbid <= floor[source] (covered by any watermark >= floor), or
// is still present in a retained log entry. A holder can therefore serve a
// delta request `since` iff floor[source] <= since[source] for every source
// it has pruned — everything older is already covered by the requester's
// contiguous watermark, everything newer is in the log.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"
#include "index/detection_store.h"
#include "trace/detection.h"

namespace stcn {

/// Per-source contiguous batch watermark. std::map so wire encoding is
/// deterministic across runs (the sim is fully deterministic).
using Watermark = std::map<std::uint64_t, std::uint64_t>;

inline void write_watermark(BinaryWriter& w, const Watermark& mark) {
  w.write_u32(static_cast<std::uint32_t>(mark.size()));
  for (const auto& [source, pbid] : mark) {
    w.write_u64(source);
    w.write_u64(pbid);
  }
}

inline Watermark read_watermark(BinaryReader& r) {
  Watermark mark;
  std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
    std::uint64_t source = r.read_u64();
    mark[source] = r.read_u64();
  }
  return mark;
}

/// Tracks the highest contiguous pbid seen from one source. The reliable
/// channel can deliver batches out of order, so pbids ahead of the
/// contiguous frontier are parked until the gap fills.
struct PbidTracker {
  std::uint64_t contig = 0;
  std::set<std::uint64_t> ahead;

  void note(std::uint64_t pbid) {
    if (pbid == 0 || pbid <= contig) return;
    if (pbid == contig + 1) {
      ++contig;
      drain();
    } else {
      ahead.insert(pbid);
    }
  }

  /// Adopt a remote watermark (snapshot install / image sync): everything up
  /// to `w` is known-applied regardless of what we saw arrive directly.
  void advance_to(std::uint64_t w) {
    if (w <= contig) return;
    contig = w;
    ahead.erase(ahead.begin(), ahead.upper_bound(w));
    drain();
  }

 private:
  void drain() {
    while (!ahead.empty() && *ahead.begin() == contig + 1) {
      ++contig;
      ahead.erase(ahead.begin());
    }
  }
};

/// One retained ingest batch: its (source, pbid) identity and its rows as
/// they crossed the wire — the batch's encoded row vector (u32 count, then
/// wire rows; trace/detection.h) — so the log's budget, its memory and a
/// delta answer's payload are the same bytes.
struct ReplayEntry {
  std::uint64_t source = 0;
  std::uint64_t pbid = 0;  // 0 = unsequenced (direct test sends)
  std::vector<std::uint8_t> rows;
};

inline void write_replay_entry(BinaryWriter& w, const ReplayEntry& e) {
  w.write_u64(e.source);
  w.write_u64(e.pbid);
  w.write_bytes(e.rows);
}

/// Reads one entry. Its rows' framing is walked first (read_row checks
/// each embedding dim against what remains), so a corrupt count or dim
/// fails the reader before any row bytes are kept.
inline ReplayEntry read_replay_entry(BinaryReader& r) {
  ReplayEntry e{r.read_u64(), r.read_u64(), {}};  // braced: wire order
  BinaryReader walk = r;
  std::uint32_t n = walk.read_u32();
  for (std::uint32_t i = 0; i < n && !walk.failed(); ++i) (void)read_row(walk);
  std::span<const std::uint8_t> rows =
      r.read_span(r.remaining() - walk.remaining());
  if (walk.failed()) {
    r.fail();
  } else {
    e.rows.assign(rows.begin(), rows.end());
  }
  return e;
}

/// Bounded per-partition log of recent ingest batches. Holders keep it so a
/// restarted peer can replay only post-watermark data. Pruning records the
/// highest discarded pbid per source (the floor); a delta request older
/// than the floor cannot be served; the holder answers it with its store
/// image instead.
class ReplayLog {
 public:
  void set_max_bytes(std::size_t max_bytes) { max_bytes_ = max_bytes; }

  /// Keeps one batch: `rows` is its encoded row vector.
  void append(std::uint64_t source, std::uint64_t pbid,
              std::vector<std::uint8_t> rows) {
    entries_.push_back({source, pbid, std::move(rows)});
    bytes_ += entry_cost(entries_.back());
    if (pbid == 0) ++unsequenced_;
    while (bytes_ > max_bytes_ && entries_.size() > 1) {
      const ReplayEntry& front = entries_.front();
      bytes_ -= entry_cost(front);
      if (front.pbid == 0) {
        --unsequenced_;
        unsequenced_pruned_ = true;
      } else {
        std::uint64_t& f = floor_[front.source];
        if (front.pbid > f) f = front.pbid;
      }
      entries_.pop_front();
    }
  }

  /// Can this log cover everything a peer at watermark `since` is missing?
  [[nodiscard]] bool can_serve(const Watermark& since) const {
    if (unsequenced_pruned_) return false;
    for (const auto& [source, floor] : floor_) {
      auto it = since.find(source);
      std::uint64_t have = it == since.end() ? 0 : it->second;
      if (floor > have) return false;
    }
    return true;
  }

  /// Entries the peer at `since` has not applied (plus all unsequenced).
  [[nodiscard]] std::vector<ReplayEntry> collect(const Watermark& since) const {
    std::vector<ReplayEntry> out;
    for (const ReplayEntry& e : entries_) {
      if (e.pbid == 0) {
        out.push_back(e);
        continue;
      }
      auto it = since.find(e.source);
      std::uint64_t have = it == since.end() ? 0 : it->second;
      if (e.pbid > have) out.push_back(e);
    }
    return out;
  }

  /// Max-merge a remote watermark into the floor: after adopting a snapshot
  /// or store image at watermark `w`, rows at or below `w` live only in the
  /// store, so this log cannot serve peers older than `w`.
  void set_floor(const Watermark& w) {
    for (const auto& [source, pbid] : w) {
      std::uint64_t& f = floor_[source];
      if (pbid > f) f = pbid;
    }
  }

  [[nodiscard]] const Watermark& floor() const { return floor_; }
  /// Entries held with pbid 0, which every collect() returns.
  [[nodiscard]] std::size_t unsequenced() const { return unsequenced_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  /// What the entry costs on the wire: identity plus row bytes.
  static std::size_t entry_cost(const ReplayEntry& e) {
    return 16 + e.rows.size();
  }

  std::deque<ReplayEntry> entries_;
  Watermark floor_;
  std::size_t bytes_ = 0;
  std::size_t max_bytes_ = 4u << 20;
  std::size_t unsequenced_ = 0;
  bool unsequenced_pruned_ = false;
};

/// One partition's recovery source: fetch from `holder`, or rebuild from the
/// local snapshot vault alone when no holder survives (holder NodeId(0)).
struct RecoverySpec {
  PartitionId partition;
  NodeId holder;
};

/// A versioned, watermark-keyed capture of one partition: the store image
/// plus the log tail past the watermark at capture time. Lives in the
/// worker's vault, which survives lose_state() — it models a checkpoint on
/// local disk that a process crash does not erase.
///
/// The image is kept incrementally, one DetectionStore segment per block in
/// block order: a cold block's CompressedBlock encoding, or a hot block's
/// row run. A capture re-encodes the blocks demoted since the previous one
/// and appends the rows added since to the open hot segment in place, so
/// its cost is O(new rows) and an unchanged store costs nothing. Only
/// appends and demotions are incremental: any other change to the store
/// (retention compaction, a snapshot install, a crash that emptied it)
/// requires the caller to ask for a rewrite.
struct PartitionSnapshot {
  std::uint64_t version = 0;
  TimePoint taken_at;
  Watermark watermark;
  /// The store image: one segment per block, cold blocks first.
  std::vector<std::vector<std::uint8_t>> segments;
  std::size_t cold_blocks = 0;  // leading segments that hold cold blocks
  std::size_t rows = 0;         // rows the image holds
  std::size_t bytes = 0;        // sum of segment sizes
  /// What the latest capture wrote: every segment it created or
  /// re-encoded, whole, and for each segment it extended, the patched
  /// header plus the appended rows.
  std::vector<std::uint8_t> store_bytes;
  std::vector<ReplayEntry> tail;

  /// Whether the image already matches `store` (given no rewrite is due).
  [[nodiscard]] bool current(const DetectionStore& store) const {
    return rows == store.size() && cold_blocks == store.cold_block_count();
  }

  /// Brings the image up to date with `store`; a `rewrite` (or a store
  /// that can no longer extend the image) re-encodes it whole. Returns the
  /// bytes written, which store_bytes then holds.
  std::size_t capture(const DetectionStore& store, bool rewrite) {
    std::size_t cold = store.cold_block_count();
    if (rewrite || store.size() < rows || cold < cold_blocks) {
      segments.clear();
      cold_blocks = rows = bytes = 0;
    }
    std::vector<std::uint8_t> written;
    auto encode = [&](std::size_t b) {
      std::vector<std::uint8_t> seg = store.encode_segment(b);
      written.insert(written.end(), seg.begin(), seg.end());
      bytes += seg.size();
      if (b == segments.size()) {
        segments.push_back(std::move(seg));
      } else {
        bytes -= segments[b].size();
        segments[b] = std::move(seg);
      }
    };
    // Blocks demoted since the last capture move to their cold encoding.
    for (std::size_t b = cold_blocks; b < cold; ++b) encode(b);
    // Hot blocks full at the last capture are unchanged; the open one
    // grows in place and newer ones are encoded afresh.
    for (std::size_t b = std::max(cold, rows / kDetectionBlockRows);
         b < store.block_count(); ++b) {
      if (b == segments.size()) {
        encode(b);
        continue;
      }
      std::vector<std::uint8_t>& seg = segments[b];
      std::size_t added = store.extend_segment(b, seg);
      if (added == 0) continue;
      bytes += added;
      auto tail = seg.end() - static_cast<std::ptrdiff_t>(added);
      written.insert(written.end(), seg.begin(),
                     seg.begin() + DetectionStore::kSegmentHeaderBytes);
      written.insert(written.end(), tail, seg.end());
    }
    rows = store.size();
    cold_blocks = cold;
    written.shrink_to_fit();  // kept until the partition's next capture
    store_bytes = std::move(written);
    return store_bytes.size();
  }

  /// Decodes the image into `out`. Returns false — leaving `out` as it was
  /// — when any segment is truncated, corrupt, or missing.
  [[nodiscard]] bool restore(DetectionStore& out) const {
    DetectionStore decoded;
    for (const std::vector<std::uint8_t>& seg : segments) {
      if (!decoded.append_segment(seg)) return false;
    }
    if (decoded.size() != rows || decoded.cold_block_count() != cold_blocks) {
      return false;
    }
    out = std::move(decoded);
    return true;
  }
};

}  // namespace stcn
