// Worker node: hosts partitions, executes query fragments, runs monitors.
//
// A worker owns one WorkerIndexes bundle per partition it hosts (primary or
// backup replica — same storage either way; the role matters only for
// monitor/delta emission, which only primaries do). Queries name the
// partitions they want served, so a worker answers consistently regardless
// of how many partitions it holds or gains via failover.
//
// Crash modeling: a real crash loses in-memory state. `lose_state` clears
// every partition; on restart the framework triggers `start_recovery`,
// which installs the local snapshot (the vault survives a process crash,
// like a checkpoint on disk) and fetches only post-watermark data back from
// the surviving holders — falling back to a full copy when the holders'
// replay logs have been pruned past the snapshot's watermark.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "core/protocol.h"
#include "core/recovery.h"
#include "net/node.h"
#include "net/reliable_channel.h"
#include "net/sim_network.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "query/continuous.h"
#include "query/executor.h"

namespace stcn {

struct WorkerConfig {
  Rect world;
  /// Monitor windows are advanced (negative deltas emitted) on this period.
  Duration monitor_tick = Duration::seconds(1);
  /// Deltas are flushed to the coordinator when this many accumulate or on
  /// the monitor tick, whichever first.
  std::size_t delta_flush_threshold = 64;
  /// Detections older than this are evicted by periodic compaction.
  /// Duration::max() (the default) disables retention entirely.
  Duration retention = Duration::max();
  /// Tiered storage: when enabled, sealed 4096-row detection blocks past
  /// the hot watermark are demoted into compressed cold blocks
  /// (index/compressed_block.h) that remain scannable in place.
  bool tiered_storage = false;
  /// Full hot blocks each partition retains before fill-triggered demotion.
  std::uint32_t hot_sealed_blocks = 2;
  /// Age-triggered demotion: on each monitor tick, sealed blocks whose
  /// newest row is older than this are demoted even below the hot
  /// watermark. Duration::max() (the default) disables the age trigger.
  Duration demote_after = Duration::max();
  /// Compaction runs every this-many monitor ticks (when retention is on).
  std::uint32_t compaction_every_ticks = 30;
  /// Emit a liveness heartbeat to the coordinator on every monitor tick.
  bool send_heartbeats = true;
  /// Publish per-partition object-presence Bloom summaries every
  /// `summary_every_ticks` monitor ticks (0 disables). The coordinator
  /// uses them to prune trajectory-query fan-out.
  std::uint32_t summary_every_ticks = 5;
  std::size_t summary_bloom_bits = 2048;
  /// Snapshot every partition every this-many monitor ticks (0 disables
  /// the ticker; take_snapshots() can still be driven manually).
  std::uint32_t snapshot_every_ticks = 10;
  /// Per-partition replay-log budget; oldest batches are pruned past it,
  /// raising the delta-serving floor.
  std::size_t replay_log_max_bytes = 4u << 20;
  /// Recovery exchange retry ladder: first retry after this timeout,
  /// doubling per attempt, giving up after `resync_max_attempts`.
  Duration resync_retry_timeout = Duration::millis(500);
  int resync_max_attempts = 6;
  /// Per-partition heat telemetry (rings, rate window, EWMA smoothing).
  HeatTrackerConfig heat;
  /// Reliable-transport knobs (delta batches, query replies, resync).
  ReliableChannelConfig channel;
};

class WorkerNode final : public NetworkNode {
 public:
  WorkerNode(WorkerId id, NodeId coordinator, const WorkerConfig& config)
      : id_(id), coordinator_(coordinator), config_(config),
        monitors_(config.world),
        ingested_primary_(metrics_.counter(
            "ingested_primary", "Detections ingested as partition primary")),
        ingested_replica_(metrics_.counter(
            "ingested_replica", "Detections ingested as backup replica")),
        ingested_resync_(metrics_.counter(
            "ingested_resync", "Detections installed by recovery syncs")),
        ingest_dups_skipped_(metrics_.counter(
            "ingest_dups_skipped",
            "Duplicate detections dropped by ingest idempotency")),
        monitors_tested_(metrics_.counter(
            "monitors_tested",
            "Detection-vs-monitor predicate evaluations")),
        queries_served_(metrics_.counter(
            "queries_served", "Query fragments answered by this worker")),
        store_blocks_scanned_(metrics_.counter(
            "store_blocks_scanned",
            "Columnar blocks whose rows were examined")),
        store_blocks_skipped_(metrics_.counter(
            "store_blocks_skipped",
            "Columnar blocks skipped wholesale by zone maps")),
        vectorized_morsels_(metrics_.counter(
            "vectorized_morsels",
            "4096-row morsels run through vectorized filter kernels")),
        store_cold_blocks_scanned_(metrics_.counter(
            "store_cold_blocks_scanned",
            "Compressed cold blocks whose rows were examined")),
        store_cold_blocks_skipped_(metrics_.counter(
            "store_cold_blocks_skipped",
            "Compressed cold blocks skipped wholesale by zone maps")),
        store_decode_morsels_(metrics_.counter(
            "store.decode_morsels",
            "Cold morsels evaluated through decode-fused filter kernels")),
        snapshots_taken_(metrics_.counter(
            "snapshots_taken",
            "Partition snapshots written to the vault (unchanged partitions "
            "are skipped)")),
        snapshot_bytes_written_(metrics_.counter(
            "snapshot_bytes_written",
            "Bytes snapshots wrote into the vault: appended rows, re-encoded "
            "demoted blocks, and whole-image rewrites")),
        snapshots_installed_(metrics_.counter(
            "snapshots_installed",
            "Snapshots restored into the store during recovery")),
        snapshot_rows_installed_(metrics_.counter(
            "snapshot_rows_installed", "Rows restored from snapshots")),
        delta_syncs_served_(metrics_.counter(
            "delta_syncs_served",
            "Delta-sync requests served from the replay log")),
        replayed_detections_(metrics_.counter(
            "replayed_detections",
            "Detections replayed from a holder's log during recovery")),
        delta_sync_fallback_(metrics_.counter(
            "delta_sync_fallback_full",
            "Delta syncs refused (log pruned) that fell back to full copy")),
        resync_retries_(metrics_.counter(
            "resync_exchange_retries",
            "Recovery sync exchanges re-sent after a timeout")),
        recovery_failed_(metrics_.counter(
            "recovery_failed",
            "Partitions whose recovery exchange exhausted its retries")),
        store_memory_bytes_(metrics_.gauge(
            "store_memory_bytes", "Resident bytes in the detection store")),
        store_hot_bytes_(metrics_.gauge(
            "store_hot_bytes",
            "Resident bytes in hot (uncompressed) detection columns")),
        store_cold_blocks_(metrics_.gauge(
            "store.cold_blocks",
            "Compressed cold blocks held across partitions")),
        store_compressed_bytes_(metrics_.gauge(
            "store.compressed_bytes",
            "Resident bytes in compressed cold blocks")),
        store_scratch_bytes_(metrics_.gauge(
            "store_scratch_bytes",
            "Process-wide thread-local cold decode scratch bytes")),
        snapshot_bytes_(metrics_.gauge(
            "snapshot_bytes", "Bytes held in vault snapshots")),
        replay_log_bytes_(metrics_.gauge(
            "replay_log_bytes", "Bytes retained in the ingest replay log")),
        heat_partitions_tracked_(metrics_.gauge(
            "heat.partitions_tracked",
            "Partitions with live heat telemetry on this worker")),
        scan_wall_us_(metrics_.histogram(
            "scan_wall_us", "Real microseconds per fragment scan loop")),
        heat_(config.heat),
        channel_(NodeId(id.value()), metrics_, config.channel) {}

  [[nodiscard]] NodeId node_id() const override { return NodeId(id_.value()); }
  [[nodiscard]] WorkerId worker_id() const { return id_; }

  void handle_message(const Message& message, SimNetwork& network) override;
  void handle_timer(std::uint64_t timer_token, SimNetwork& network) override;

  /// Arms the recurring monitor tick. Call once after attaching.
  void start(SimNetwork& network);

  /// Re-arms the monitor tick after a crash+restart (a crash suppresses the
  /// pending tick, breaking the re-arm chain). Stale chains from before the
  /// restart are ignored via a generation counter.
  void restart_ticks(SimNetwork& network);

  /// Simulates state loss at crash time. The snapshot vault deliberately
  /// survives — it models a checkpoint on local disk.
  void lose_state();

  /// Captures a versioned snapshot of every held partition that changed
  /// since its last one: the store image keyed by the current watermark,
  /// plus the replay-log tail past it. Images are written incrementally
  /// (see PartitionSnapshot); a partition mutated other than by appends
  /// and demotions is rewritten whole. Also driven periodically by the
  /// snapshot ticker.
  void take_snapshots(TimePoint now);

  /// Starts incremental recovery for `specs`: install each partition's
  /// vault snapshot, then fetch the post-watermark delta from its holder
  /// (full sync when no snapshot or the holder's log can't serve it).
  /// Each exchange retries on a doubling ladder and gives up after
  /// `resync_max_attempts`, surfacing `recovery_failed`. `recovery_id`
  /// ties completions back to the coordinator's routing plan (0 = none).
  void start_recovery(std::uint64_t recovery_id,
                      const std::vector<RecoverySpec>& specs,
                      TraceContext parent, SimNetwork& network);

  /// Legacy entry point: full-resync semantics via start_recovery with no
  /// coordinator plan attached.
  void start_resync(
      const std::vector<std::pair<PartitionId, NodeId>>& replica_holders,
      SimNetwork& network);

  [[nodiscard]] bool resync_complete() const {
    return recovery_tasks_.empty();
  }
  /// Partitions whose recovery exchange finished / gave up since the last
  /// start_recovery call.
  [[nodiscard]] std::size_t recovery_recovered_count() const {
    return recovered_last_;
  }
  [[nodiscard]] std::size_t recovery_failed_count() const {
    return failed_last_;
  }
  /// Contiguous per-source ingest watermark for one partition.
  [[nodiscard]] Watermark watermark_of(PartitionId p) const;
  [[nodiscard]] const std::unordered_map<PartitionId, PartitionSnapshot>&
  snapshot_vault() const {
    return vault_;
  }
  /// Fault injection: the vault models a checkpoint on local disk, which
  /// tests damage in place to exercise install-time validation.
  [[nodiscard]] std::unordered_map<PartitionId, PartitionSnapshot>&
  snapshot_vault_for_fault_injection() {
    return vault_;
  }
  /// Read-only view of a held partition's store (nullptr when not held).
  [[nodiscard]] const DetectionStore* store_of(PartitionId p) const {
    auto it = partitions_.find(p);
    return it == partitions_.end() ? nullptr : &it->second->store;
  }

  /// Total detections stored across partitions (incl. replicas).
  [[nodiscard]] std::size_t stored_detections() const;
  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }
  /// Every metric this node exports, registered at construction.
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Per-partition heat telemetry (read-only; shipped on heartbeats).
  [[nodiscard]] const HeatTracker& heat() const { return heat_; }

  /// Attaches the cluster-wide tracer (shared with the reliable channel).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    channel_.set_tracer(tracer);
  }

  /// Reliable-transport frames sent but not yet acked (0 == quiescent).
  [[nodiscard]] std::size_t unacked_frames() const {
    return channel_.unacked();
  }

 private:
  WorkerIndexes& partition(PartitionId p);

  /// Application-level dispatch; `reliable` records whether the message
  /// arrived through the reliable channel, so replies mirror the
  /// transport the requester chose.
  void dispatch(const Message& message, bool reliable, SimNetwork& network);

  void on_ingest(const IngestBatch& batch, NodeId source,
                 SimNetwork& network);
  void on_query(const QueryRequest& request, NodeId reply_to, bool reliable,
                TraceContext parent, SimNetwork& network);
  void on_sync_request(const SyncRequest& request, NodeId reply_to,
                       bool reliable, SimNetwork& network);
  void on_sync_response(const SyncResponse& response, SimNetwork& network);
  void on_delta_sync_request(const DeltaSyncRequest& request, NodeId reply_to,
                             bool reliable, SimNetwork& network);
  void on_delta_sync_response(const DeltaSyncResponse& response,
                              SimNetwork& network);
  void flush_deltas(SimNetwork& network);

  // ----------------------------------------------------------- recovery

  /// One in-flight recovery exchange (per partition being recovered).
  struct RecoveryTask {
    PartitionId partition;
    NodeId holder;
    std::uint64_t recovery_id = 0;
    int attempts = 0;
    Duration rto;
    bool delta = false;  // true: DeltaSyncRequest; false: full SyncRequest
    std::uint64_t token = 0;
    TraceContext span;
  };

  ReplayLog& replay_log(PartitionId p);
  /// Ingests `d` unless already present; returns true if it was new.
  bool dedup_ingest(PartitionId p, const Detection& d);
  /// Installs the vault snapshot for `p` (no-op without one). Returns true
  /// iff a snapshot was applied, enabling delta-mode recovery.
  bool install_snapshot(PartitionId p);
  void send_recovery_request(RecoveryTask& task, SimNetwork& network);
  void finish_task(std::uint64_t token, SimNetwork& network);
  void apply_replay_entries(PartitionId p,
                            const std::vector<ReplayEntry>& entries);
  void update_recovery_gauges();

  WorkerId id_;
  NodeId coordinator_;
  WorkerConfig config_;
  std::unordered_map<PartitionId, std::unique_ptr<WorkerIndexes>> partitions_;
  ContinuousQueryManager monitors_;
  std::vector<DeltaUpdate> pending_deltas_;
  // Per-partition ids already ingested: makes ingest idempotent so
  // retransmission races, dead-incarnation redeliveries, and resync
  // overlapping a live replica stream cannot double-count detections.
  std::unordered_map<PartitionId, std::unordered_set<std::uint64_t>>
      ingested_ids_;
  // Per-(partition, source) contiguous batch watermarks; the map key is the
  // raw source node id.
  std::unordered_map<PartitionId, std::map<std::uint64_t, PbidTracker>>
      watermarks_;
  std::unordered_map<PartitionId, ReplayLog> replay_logs_;
  // Snapshot vault: survives lose_state() (checkpoint on local disk), and
  // only take_snapshots() writes it, so a crash at any point finds the last
  // consistent image.
  std::unordered_map<PartitionId, PartitionSnapshot> vault_;
  // Sum of vault_ image bytes, kept as entries change.
  std::size_t vault_bytes_ = 0;
  // Partitions whose store changed other than by appends and demotions
  // (created afresh, compacted, installed into) since their last snapshot:
  // the next take_snapshots() rewrites their image whole.
  std::unordered_set<PartitionId> vault_rewrite_;
  std::uint64_t snapshot_version_ = 0;
  std::unordered_map<std::uint64_t, RecoveryTask> recovery_tasks_;
  std::unordered_map<PartitionId, std::uint64_t> task_by_partition_;
  // Monotonic across restarts so a parked timer from a dead incarnation
  // can never alias a live task's token.
  std::uint64_t next_task_token_ = 0;
  std::size_t recovered_last_ = 0;
  std::size_t failed_last_ = 0;
  bool started_ = false;
  std::uint64_t tick_generation_ = 0;
  std::uint32_t ticks_since_compaction_ = 0;
  std::uint32_t ticks_since_summary_ = 0;
  MetricsRegistry metrics_;
  Counter& ingested_primary_;
  Counter& ingested_replica_;
  Counter& ingested_resync_;
  Counter& ingest_dups_skipped_;
  Counter& monitors_tested_;
  Counter& queries_served_;
  Counter& store_blocks_scanned_;
  Counter& store_blocks_skipped_;
  /// 4096-row morsels this worker pushed through the vectorized scan path.
  Counter& vectorized_morsels_;
  Counter& store_cold_blocks_scanned_;
  Counter& store_cold_blocks_skipped_;
  Counter& store_decode_morsels_;
  Counter& snapshots_taken_;
  Counter& snapshot_bytes_written_;
  Counter& snapshots_installed_;
  Counter& snapshot_rows_installed_;
  Counter& delta_syncs_served_;
  Counter& replayed_detections_;
  Counter& delta_sync_fallback_;
  Counter& resync_retries_;
  Counter& recovery_failed_;
  Gauge& store_memory_bytes_;
  Gauge& store_hot_bytes_;
  Gauge& store_cold_blocks_;
  Gauge& store_compressed_bytes_;
  Gauge& store_scratch_bytes_;
  Gauge& snapshot_bytes_;
  Gauge& replay_log_bytes_;
  Gauge& heat_partitions_tracked_;
  /// Real (wall-clock) scan cost per query fragment — virtual time treats
  /// worker compute as instantaneous, so this is the only place the actual
  /// index work shows up.
  LatencyHistogram& scan_wall_us_;
  // Background and recovery events.
  Counter& recovery_failed_partitions_ = metrics_.counter(
      "recovery_failed_partitions",
      "Partitions whose recovery gave up permanently");
  Counter& summaries_published_ = metrics_.counter(
      "summaries_published", "Object-presence summaries published upstream");
  Counter& detections_evicted_ = metrics_.counter(
      "detections_evicted", "Detections dropped by retention compaction");
  Counter& compactions_ =
      metrics_.counter("compactions", "Retention compaction sweeps run");
  Counter& unknown_message_ = metrics_.counter(
      "unknown_message", "Messages dropped for an unrecognized type");
  Counter& sync_requests_served_ = metrics_.counter(
      "sync_requests_served", "Full-state sync requests answered for peers");
  Counter& delta_syncs_refused_ = metrics_.counter(
      "delta_syncs_refused", "Delta syncs refused (replay log too shallow)");
  Counter& state_losses_ = metrics_.counter(
      "state_losses", "Crash events that wiped local state");
  Counter& snapshot_corrupt_ = metrics_.counter(
      "snapshot_corrupt", "Snapshots rejected by checksum validation");
  Counter& partitions_resynced_ = metrics_.counter(
      "partitions_resynced", "Partitions rebuilt from a surviving holder");
  Counter& recovered_local_only_ = metrics_.counter(
      "recovered_local_only",
      "Partitions restored from the local vault snapshot with no surviving "
      "holder");
  Counter& recovery_no_source_ = metrics_.counter(
      "recovery_no_source",
      "Partitions unrecoverable: no snapshot and no holder");
  Tracer* tracer_ = nullptr;
  // Per-partition load telemetry; snapshots ride on heartbeats. Cleared by
  // lose_state() — heat totals are per-incarnation like the store itself.
  HeatTracker heat_;
  // Declared after metrics_ (it registers its accounting there).
  ReliableChannel channel_;
};

}  // namespace stcn
