// Wire protocol between coordinator and workers.
//
// Message types and their payload encodings. Every payload is produced with
// BinaryWriter so the simulated network accounts real byte volumes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "core/recovery.h"
#include "index/bloom.h"
#include "partition/load_stats.h"
#include "query/executor.h"
#include "query/query.h"
#include "query/result.h"
#include "trace/detection.h"

namespace stcn {

enum class MsgType : std::uint32_t {
  kIngestBatch = 1,     // router → worker: detections for one partition
  kQueryRequest = 2,    // coordinator → worker
  kQueryResponse = 3,   // worker → coordinator
  kInstallMonitor = 4,  // coordinator → worker: continuous query spec
  kRemoveMonitor = 5,   // coordinator → worker
  kDeltaBatch = 6,      // worker → coordinator: continuous query deltas
  kSyncRequest = 7,     // recovering worker → holder: delta or image ask
  kSyncResponse = 8,    // holder → recovering worker: log delta or image
  kHeartbeat = 9,       // worker → coordinator: liveness
  kIngestForward = 10,   // gateway → coordinator: relay-mode ingest
  kObjectSummary = 11,   // retired (summaries ride kHeartbeat); tools name it
  kReliableData = 12,    // reliable-channel DATA frame (wraps another type)
  kReliableAck = 13,     // reliable-channel ACK frame
  kRecoveryDone = 16,    // worker → coordinator: partition caught up
};

// ------------------------------------------------------------ ingest batch

struct IngestBatch {
  PartitionId partition;
  bool is_replica = false;  // replica copies do not drive monitors/deltas
  std::vector<Detection> detections;
  /// Per-(source, partition) monotonically increasing batch id, assigned by
  /// the sender at flush time. The same pbid is stamped on the primary and
  /// replica copies (identical contents), so watermarks are comparable
  /// across holders. 0 = unsequenced (direct test sends): never advances a
  /// watermark, always included in delta replays.
  std::uint64_t pbid = 0;
};

inline std::vector<std::uint8_t> encode(const IngestBatch& batch) {
  BinaryWriter w;
  w.reserve(8 + 1 + 8 + wire_size(batch.detections));
  w.write_id(batch.partition);
  w.write_bool(batch.is_replica);
  w.write_u64(batch.pbid);
  w.write_vector(batch.detections,
                 [](BinaryWriter& bw, const Detection& d) { serialize(bw, d); });
  return w.take();
}

inline IngestBatch decode_ingest_batch(BinaryReader& r) {
  IngestBatch batch;
  batch.partition = r.read_id<PartitionIdTag>();
  batch.is_replica = r.read_bool();
  batch.pbid = r.read_u64();
  batch.detections = r.read_vector<Detection>(
      [](BinaryReader& br) { return deserialize_detection(br); });
  return batch;
}

/// The row vector (u32 count, then wire rows) of an encode(IngestBatch)
/// payload that decoded whole, after the partition, replica flag and pbid:
/// the bytes a replay log keeps for the batch.
inline std::span<const std::uint8_t> ingest_batch_rows(
    std::span<const std::uint8_t> payload) {
  return payload.subspan(8 + 1 + 8);
}

// ---------------------------------------------------------- ingest forward

/// Relay-mode ingest: a gateway without routing knowledge ships raw
/// detections to the coordinator for re-routing (ablation baseline).
struct IngestForward {
  std::vector<Detection> detections;
};

inline std::vector<std::uint8_t> encode(const IngestForward& fwd) {
  BinaryWriter w;
  w.reserve(wire_size(fwd.detections));
  w.write_vector(fwd.detections,
                 [](BinaryWriter& bw, const Detection& d) { serialize(bw, d); });
  return w.take();
}

inline IngestForward decode_ingest_forward(BinaryReader& r) {
  IngestForward fwd;
  fwd.detections = r.read_vector<Detection>(
      [](BinaryReader& br) { return deserialize_detection(br); });
  return fwd;
}

// ----------------------------------------------------------- query request

struct QueryRequest {
  std::uint64_t request_id = 0;
  /// Fragment id: identifies this (request, worker, partition-set) send so
  /// the coordinator can tell a hedged duplicate's answer from the
  /// original's. Workers echo it verbatim in the response.
  std::uint64_t sub_id = 0;
  Query query;
  std::vector<PartitionId> partitions;  // partitions this worker must serve
};

inline std::vector<std::uint8_t> encode(const QueryRequest& req) {
  BinaryWriter w;
  w.write_u64(req.request_id);
  w.write_u64(req.sub_id);
  serialize(w, req.query);
  w.write_vector(req.partitions, [](BinaryWriter& bw, PartitionId p) {
    bw.write_id(p);
  });
  return w.take();
}

inline QueryRequest decode_query_request(BinaryReader& r) {
  QueryRequest req;
  req.request_id = r.read_u64();
  req.sub_id = r.read_u64();
  req.query = deserialize_query(r);
  req.partitions = r.read_vector<PartitionId>(
      [](BinaryReader& br) { return br.read_id<PartitionIdTag>(); });
  return req;
}

// ---------------------------------------------------------- query response

struct QueryResponse {
  std::uint64_t request_id = 0;
  std::uint64_t sub_id = 0;  // echoed from the QueryRequest fragment
  QueryResult result;
  /// EXPLAIN/ANALYZE scan stats, summed over the fragment's partitions.
  /// `zone_fast_path` is not on the wire (decodes as 0).
  ScanStats scan;
  /// Real microseconds the worker's scan loop took.
  std::uint64_t scan_wall_us = 0;
};

/// The response's trailing scan stats: ten u64s.
inline void write_scan_stats(BinaryWriter& w, const ScanStats& scan,
                             std::uint64_t scan_wall_us) {
  const MorselStats& m = scan.store;
  w.write_u64(scan.rows_scanned);
  w.write_u64(scan_wall_us);
  w.write_u64(m.blocks_scanned);
  w.write_u64(m.blocks_skipped);
  w.write_u64(m.rows_evaluated);
  w.write_u64(m.rows_selected);
  w.write_u64(m.morsels);
  w.write_u64(m.cold_blocks_scanned);
  w.write_u64(m.cold_blocks_skipped);
  w.write_u64(m.decode_morsels);
}

inline std::vector<std::uint8_t> encode(const QueryResponse& resp) {
  BinaryWriter w;
  w.write_u64(resp.request_id);
  w.write_u64(resp.sub_id);
  serialize(w, resp.result);
  write_scan_stats(w, resp.scan, resp.scan_wall_us);
  return w.take();
}

/// One row a worker selected for a fragment, still in its partition's
/// store, with the key that orders it.
struct FragmentRow {
  RowKey key;
  const DetectionStore* store = nullptr;
  DetectionRef ref{};
};

/// A worker's response to a row-returning query, written from the stores:
/// `rows` (every held partition's select(), in request order) are ordered
/// and cut by order_rows, and each survivor is written by
/// DetectionStore::write_row. The bytes equal encode(QueryResponse) of the
/// same fragment materialized and merged by ResultMerger.
inline std::vector<std::uint8_t> encode_rows_response(
    std::uint64_t request_id, std::uint64_t sub_id, const Query& query,
    std::vector<FragmentRow> rows, const ScanStats& scan,
    std::uint64_t scan_wall_us) {
  order_rows(query, rows,
             [](const FragmentRow& r) -> const RowKey& { return r.key; });
  std::size_t bytes = 8 * 3 + 4 + 4 + 8 * 10;
  for (const FragmentRow& r : rows) bytes += r.store->row_wire_size(r.ref);
  BinaryWriter w;
  w.reserve(bytes);
  w.write_u64(request_id);
  w.write_u64(sub_id);
  w.write_id(query.id);
  w.write_u32(static_cast<std::uint32_t>(rows.size()));
  for (const FragmentRow& r : rows) r.store->write_row(w, r.ref);
  w.write_u32(0);  // no group counts
  write_scan_stats(w, scan, scan_wall_us);
  return w.take();
}

inline QueryResponse decode_query_response(BinaryReader& r) {
  QueryResponse resp;
  resp.request_id = r.read_u64();
  resp.sub_id = r.read_u64();
  resp.result = deserialize_query_result(r);
  MorselStats& m = resp.scan.store;
  resp.scan.rows_scanned = r.read_u64();
  resp.scan_wall_us = r.read_u64();
  m.blocks_scanned = r.read_u64();
  m.blocks_skipped = r.read_u64();
  m.rows_evaluated = r.read_u64();
  m.rows_selected = r.read_u64();
  m.morsels = r.read_u64();
  m.cold_blocks_scanned = r.read_u64();
  m.cold_blocks_skipped = r.read_u64();
  m.decode_morsels = r.read_u64();
  return resp;
}

// -------------------------------------------------------- monitor install

struct MonitorInstall {
  QueryId query;
  Rect region;
  Duration window;
};

inline std::vector<std::uint8_t> encode(const MonitorInstall& m) {
  BinaryWriter w;
  w.write_id(m.query);
  w.write_double(m.region.min.x);
  w.write_double(m.region.min.y);
  w.write_double(m.region.max.x);
  w.write_double(m.region.max.y);
  w.write_duration(m.window);
  return w.take();
}

inline MonitorInstall decode_monitor_install(BinaryReader& r) {
  MonitorInstall m;
  m.query = r.read_id<QueryIdTag>();
  m.region.min.x = r.read_double();
  m.region.min.y = r.read_double();
  m.region.max.x = r.read_double();
  m.region.max.y = r.read_double();
  m.window = r.read_duration();
  return m;
}

// ------------------------------------------------------------ delta batch

struct WireDelta {
  QueryId query;
  bool positive = true;
  Detection detection;
};

struct DeltaBatch {
  std::vector<WireDelta> deltas;
};

inline std::vector<std::uint8_t> encode(const DeltaBatch& batch) {
  BinaryWriter w;
  w.write_vector(batch.deltas, [](BinaryWriter& bw, const WireDelta& d) {
    bw.write_id(d.query);
    bw.write_bool(d.positive);
    serialize(bw, d.detection);
  });
  return w.take();
}

inline DeltaBatch decode_delta_batch(BinaryReader& r) {
  DeltaBatch batch;
  batch.deltas = r.read_vector<WireDelta>([](BinaryReader& br) {
    WireDelta d;
    d.query = br.read_id<QueryIdTag>();
    d.positive = br.read_bool();
    d.detection = deserialize_detection(br);
    return d;
  });
  return batch;
}

// -------------------------------------------------------------- heartbeat

/// Per-partition Bloom filter of the object ids a worker holds, and the
/// batches its data covers (the partition's contiguous watermark). See
/// Coordinator::footprint for when it may prune a trajectory query.
struct ObjectSummary {
  PartitionId partition;
  Watermark covers;
  BloomFilter objects;
};

struct Heartbeat {
  WorkerId worker;
  std::uint64_t stored_detections = 0;  // piggybacked load signal
  /// Per-partition heat telemetry (see partition/load_stats.h): piggybacked
  /// on the liveness signal so the coordinator's HeatMapSnapshot stays
  /// fresh without a dedicated stats round-trip.
  std::vector<PartitionHeat> heat;
  /// One object-presence summary per held partition.
  std::vector<ObjectSummary> summaries;
};

inline std::vector<std::uint8_t> encode(const Heartbeat& hb) {
  BinaryWriter w;
  w.write_id(hb.worker);
  w.write_u64(hb.stored_detections);
  w.write_vector(hb.heat, [](BinaryWriter& bw, const PartitionHeat& ph) {
    bw.write_id(ph.partition);
    bw.write_u64(ph.ingested_rows);
    bw.write_u64(ph.rows_evaluated);
    bw.write_u64(ph.rows_selected);
    bw.write_u64(ph.blocks_scanned);
    bw.write_u64(ph.blocks_skipped);
    bw.write_u64(ph.fragments_served);
    bw.write_u64(ph.wire_bytes_out);
    bw.write_u64(ph.store_memory_bytes);
    bw.write_double(ph.ewma_load_per_s);
  });
  w.write_vector(hb.summaries, [](BinaryWriter& bw, const ObjectSummary& s) {
    bw.write_id(s.partition);
    write_watermark(bw, s.covers);
    s.objects.serialize_to(bw);
  });
  return w.take();
}

inline Heartbeat decode_heartbeat(BinaryReader& r) {
  Heartbeat hb;
  hb.worker = r.read_id<WorkerIdTag>();
  hb.stored_detections = r.read_u64();
  hb.heat = r.read_vector<PartitionHeat>([](BinaryReader& br) {
    PartitionHeat ph;
    ph.partition = br.read_id<PartitionIdTag>();
    ph.ingested_rows = br.read_u64();
    ph.rows_evaluated = br.read_u64();
    ph.rows_selected = br.read_u64();
    ph.blocks_scanned = br.read_u64();
    ph.blocks_skipped = br.read_u64();
    ph.fragments_served = br.read_u64();
    ph.wire_bytes_out = br.read_u64();
    ph.store_memory_bytes = br.read_u64();
    ph.ewma_load_per_s = br.read_double();
    return ph;
  });
  hb.summaries = r.read_vector<ObjectSummary>([](BinaryReader& br) {
    // Braced initializers evaluate left to right: wire order.
    return ObjectSummary{br.read_id<PartitionIdTag>(), read_watermark(br),
                         BloomFilter::deserialize_from(br)};
  });
  return hb;
}

// ------------------------------------------------------------------- sync

/// Recovering worker → holder: the one recovery exchange. `since` is the
/// requester's watermark when it installed a vault snapshot ("I have
/// everything up to here"); without one it asks for the whole partition.
struct SyncRequest {
  PartitionId partition;
  std::optional<Watermark> since;
};

inline std::vector<std::uint8_t> encode(const SyncRequest& req) {
  BinaryWriter w;
  w.write_id(req.partition);
  w.write_bool(req.since.has_value());
  if (req.since) write_watermark(w, *req.since);
  return w.take();
}

inline SyncRequest decode_sync_request(BinaryReader& r) {
  SyncRequest req;
  req.partition = r.read_id<PartitionIdTag>();
  if (r.read_bool()) req.since = read_watermark(r);
  return req;
}

/// Holder → recovering worker, in one of two forms. A delta answers a
/// `since` the holder's replay log still covers: `entries` are the log's
/// batches past it. An image answers everything else: `image` is the
/// holder's partition (DetectionStore::serialize_to on the wire, so cold
/// blocks stay compressed) and `entries` the log's batches past
/// `watermark` (rows delivered out of order that the contiguous watermark
/// does not cover). A partition the holder does not have is an empty image.
struct SyncResponse {
  PartitionId partition;
  std::optional<DetectionStore> image;
  /// Holder's contiguous per-source watermark for this partition; the
  /// receiver adopts it. For an image it is also the receiver's new replay
  /// floor: everything at or below it arrived in `image`.
  Watermark watermark;
  /// Replayed under their true (source, pbid) identity, so the receiver's
  /// own log can serve later deltas.
  std::vector<ReplayEntry> entries;
};

/// A holder writes its answer from its live store (`image`, nullptr for a
/// delta) rather than copying the store into a SyncResponse.
inline std::vector<std::uint8_t> encode_sync_response(
    PartitionId partition, const DetectionStore* image,
    const Watermark& watermark, const std::vector<ReplayEntry>& entries) {
  BinaryWriter w;
  w.write_id(partition);
  w.write_bool(image != nullptr);
  if (image != nullptr) image->serialize_to(w);
  write_watermark(w, watermark);
  w.write_vector(entries, write_replay_entry);
  return w.take();
}

inline SyncResponse decode_sync_response(BinaryReader& r) {
  SyncResponse resp;
  resp.partition = r.read_id<PartitionIdTag>();
  if (r.read_bool()) resp.image = DetectionStore::deserialize_from(r);
  resp.watermark = read_watermark(r);
  resp.entries = r.read_vector<ReplayEntry>(read_replay_entry);
  return resp;
}

// ---------------------------------------------------------- recovery done

/// Worker → coordinator: one partition's recovery exchange finished and the
/// partition is caught up. `recovery_id` identifies the restart_worker
/// plan that started it, so a stale completion from a previous incarnation
/// (worker re-crashed mid-recovery) cannot flip routing back early.
struct RecoveryDone {
  std::uint64_t recovery_id = 0;
  PartitionId partition;
  std::uint64_t detections = 0;  // rows held at completion time
};

inline std::vector<std::uint8_t> encode(const RecoveryDone& done) {
  BinaryWriter w;
  w.write_u64(done.recovery_id);
  w.write_id(done.partition);
  w.write_u64(done.detections);
  return w.take();
}

inline RecoveryDone decode_recovery_done(BinaryReader& r) {
  RecoveryDone done;
  done.recovery_id = r.read_u64();
  done.partition = r.read_id<PartitionIdTag>();
  done.detections = r.read_u64();
  return done;
}

}  // namespace stcn
