// Coordinator node: ingest routing, query scatter-gather, failover.
//
// The coordinator is the client-facing brain of the framework:
//  * Ingest — each detection is routed by the PartitionStrategy to its
//    partition's primary (and backup replica), batched per destination, and
//    shipped over the reliable channel so fabric loss cannot silently drop
//    detections.
//  * Queries — the strategy turns a query footprint into a partition set;
//    partitions are grouped by owning worker; each worker gets one request
//    fragment (identified by a sub_id it echoes back) naming exactly the
//    partitions it must serve; fragments are merged. The per-query worker
//    fan-out is the pruning metric of E2/E3.
//  * Hedging — a fragment unanswered after `hedge_delay_fraction *
//    query_timeout` is speculatively re-issued to the partition backups;
//    the first answer (original or hedge) wins. This masks gray failures
//    (slow-but-alive workers) that heartbeat-based detection cannot see.
//  * Failover — if a fragment misses the reply deadline outright, its
//    partitions are re-pointed to their backups and the fragment is
//    re-issued there.
//  * Continuous queries — monitors are installed on every worker whose
//    partitions overlap the region; delta batches stream back and are
//    folded into live answer sets.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "core/protocol.h"
#include "core/recovery.h"
#include "net/node.h"
#include "net/reliable_channel.h"
#include "net/sim_network.h"
#include "obs/cost.h"
#include "obs/explain.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/tracer.h"
#include "partition/partition_map.h"
#include "query/continuous.h"
#include "query/result.h"

namespace stcn {

struct CoordinatorConfig {
  std::size_t ingest_batch_size = 32;
  Duration query_timeout = Duration::millis(50);
  /// Maximum failover re-issues per query before reporting partial results.
  int max_retries = 2;
  bool replicate = true;
  /// Heartbeat-based failure detection: a worker silent for longer than
  /// `heartbeat_timeout` has its partitions proactively failed over, so
  /// queries after detection avoid the dead worker entirely (no per-query
  /// retry latency).
  bool detect_failures = true;
  Duration heartbeat_timeout = Duration::seconds(5);
  Duration failure_sweep_period = Duration::seconds(2);
  /// Hedged requests: when a query fragment is still unanswered after
  /// `hedge_delay_fraction * query_timeout`, speculatively re-issue it to
  /// the partition backups and take whichever answer lands first. One hedge
  /// round per query.
  bool hedge_queries = true;
  double hedge_delay_fraction = 0.5;
  /// Queries slower than this get their full span tree captured in the
  /// slow-query log (only effective when a tracer is attached).
  Duration slow_query_threshold = Duration::millis(25);
  std::size_t slow_query_log_capacity = 64;
  /// Reliable-transport knobs for loss-sensitive traffic (ingest, queries).
  ReliableChannelConfig channel;
  /// Per-query cost accounting (top-K heavy-hitter capacity, recent ring).
  ResourceLedgerConfig ledger;
  /// Cluster-wide heat map (per-partition rings, skew rollup window).
  HeatSnapshotConfig heat;
};

class Coordinator final : public NetworkNode {
 public:
  Coordinator(NodeId id, const PartitionStrategy& strategy, PartitionMap map,
              CoordinatorConfig config)
      : id_(id), strategy_(strategy), map_(std::move(map)), config_(config),
        ingested_(metrics_.counter(
            "ingested", "Detections routed into the cluster by this node")),
        queries_submitted_(metrics_.counter(
            "queries_submitted", "Queries accepted for scatter-gather")),
        query_fanout_total_(metrics_.counter(
            "query_fanout_total",
            "Worker fragments issued, summed over queries (pruning metric)")),
        query_partitions_total_(metrics_.counter(
            "query_partitions_total",
            "Partitions selected by query footprints, summed over queries")),
        query_latency_us_(metrics_.histogram(
            "query_latency_us",
            "End-to-end query latency, submit to last fragment (sim us)")),
        hedges_issued_(metrics_.counter(
            "hedges_issued",
            "Speculative backup fragments sent for slow primaries")),
        hedges_won_(metrics_.counter(
            "hedges_won", "Primary fragments retired by hedge answers")),
        failover_retries_(metrics_.counter(
            "failover_retries",
            "Query timeout rounds that re-routed fragments to backups")),
        queries_partial_(metrics_.counter(
            "queries_partial",
            "Queries answered incompletely after exhausting retries")),
        workers_suspected_(metrics_.counter(
            "workers_suspected",
            "Workers declared dead by the heartbeat failure detector")),
        partitions_recovering_(metrics_.gauge(
            "partitions_recovering",
            "Partitions currently mid-resync (routing points at survivor)")),
        trajectory_partitions_pruned_(metrics_.counter(
            "trajectory_partitions_pruned",
            "Trajectory fragments skipped via object-presence summaries")),
        estimate_q_error_x100_(metrics_.histogram(
            "estimate_q_error_x100",
            "Selectivity q-error per realized estimate, x100")),
        heat_(config.heat),
        partition_load_relative_stddev_(metrics_.gauge(
            "partition.load_relative_stddev",
            "Relative stddev (stddev/mean) of windowed per-partition load")),
        partition_hot_cold_ratio_(metrics_.gauge(
            "partition.hot_cold_ratio",
            "Hottest / coldest partition windowed-load ratio")),
        partition_replicate_factor_(metrics_.gauge(
            "partition.replicate_factor",
            "Mean replicas per heat-tracked partition")),
        partition_scan_gini_(metrics_.gauge(
            "partition.scan_gini",
            "Gini coefficient of windowed per-worker scan load")),
        partition_hottest_load_(metrics_.gauge(
            "partition.hottest_load",
            "Windowed load of the hottest partition (labeled with its id)")),
        partition_tracked_(metrics_.gauge(
            "partition.tracked",
            "Partitions with heat telemetry in the coordinator's map")),
        slow_log_(config.slow_query_threshold,
                  config.slow_query_log_capacity),
        ledger_(config.ledger),
        channel_(id, metrics_, config.channel) {}

  [[nodiscard]] NodeId node_id() const override { return id_; }
  void handle_message(const Message& message, SimNetwork& network) override;
  void handle_timer(std::uint64_t timer_token, SimNetwork& network) override;

  /// Arms the failure-detection sweep (call once after attaching).
  void start(SimNetwork& network);

  /// Number of partitions with a current object-presence summary.
  [[nodiscard]] std::size_t summarized_partitions() const {
    return summaries_.size();
  }
  /// Turns trajectory pruning off for good: direct-mode gateways write to
  /// workers past this node, so no summary can be shown to cover them.
  void stop_trajectory_pruning() { prune_trajectories_ = false; }

  /// Workers currently considered dead by the failure detector.
  [[nodiscard]] const std::unordered_set<WorkerId>& suspected_workers()
      const {
    return suspected_;
  }
  /// Clears suspicion (a restarted worker resumes heartbeating anyway, but
  /// recovery paths may clear eagerly).
  void clear_suspicion(WorkerId w) { suspected_.erase(w); }

  // ------------------------------------------------------------- ingest
  /// Routes one detection (batched; call flush_ingest when done).
  void ingest(const Detection& d, SimNetwork& network);
  void flush_ingest(SimNetwork& network);

  // ------------------------------------------------------------- queries
  /// Starts a query; returns a request handle. Completion is observed via
  /// `poll` after pumping the network. A valid `parent` attaches the
  /// query's span tree under the caller's span (gateway entry point).
  /// `estimated_rows` (>= 0) is the caller's pre-submit cardinality
  /// estimate; it is apportioned across fragments so EXPLAIN's per-worker
  /// scan stages carry estimated-vs-actual pairs.
  std::uint64_t submit(const Query& query, SimNetwork& network,
                       TraceContext parent = {},
                       double estimated_rows = -1.0);

  /// Result if the request completed (all fragments in, or retries
  /// exhausted → partial). nullopt while still pending.
  [[nodiscard]] std::optional<QueryResult> poll(std::uint64_t request_id);

  /// True once the request is no longer awaiting any fragment.
  [[nodiscard]] bool is_complete(std::uint64_t request_id) const;

  // --------------------------------------------------- continuous queries
  void install_monitor(const ContinuousQuerySpec& spec, SimNetwork& network);
  void remove_monitor(QueryId id, const Rect& region, SimNetwork& network);

  /// Deltas received for `id` since the last drain.
  std::vector<DeltaUpdate> drain_deltas(QueryId id);
  /// Live answer set maintained from the delta stream.
  [[nodiscard]] std::vector<Detection> live_answer(QueryId id) const;

  // -------------------------------------------------------------- failover
  /// Promotes backups for every partition whose primary is `worker`.
  void promote_backups_of(WorkerId worker);

  // -------------------------------------------------------------- recovery

  /// The routing plan for one worker's restart: which holder each lost
  /// partition recovers from, tagged with a recovery id so stale
  /// completions from a previous incarnation are ignored.
  struct RecoveryPlan {
    std::uint64_t recovery_id = 0;
    std::vector<RecoverySpec> specs;
  };

  /// Flips routing *before* any data moves: every partition `w` held is
  /// pointed at its surviving holder (the recovering worker rides along as
  /// backup so the live replica stream warms it), marked RECOVERING, and
  /// given a recovery spec. Partitions with no surviving holder get a
  /// local-only spec (holder NodeId(0)) and are not marked — there is
  /// nothing to wait for, and queries against them go partial rather than
  /// silently empty.
  [[nodiscard]] RecoveryPlan begin_worker_recovery(WorkerId w);

  /// Partitions currently marked RECOVERING with `w` as the rejoining
  /// target (0 == recovery complete from the router's point of view).
  [[nodiscard]] std::size_t recovering_count_for(WorkerId w) const {
    std::size_t n = 0;
    for (const auto& [p, r] : recovering_) {
      if (r.target == w) ++n;
    }
    return n;
  }
  [[nodiscard]] bool partition_recovering(PartitionId p) const {
    return recovering_.contains(p);
  }

  [[nodiscard]] const PartitionMap& partition_map() const { return map_; }
  /// Mutable access for recovery orchestration (re-replication after
  /// failover leaves a partition with primary == backup).
  [[nodiscard]] PartitionMap& mutable_partition_map() { return map_; }

  /// Partitions `query` is sent to: the one owner of each query kind's
  /// partition set.
  [[nodiscard]] std::vector<PartitionId> footprint(const Query& query) const;

  /// Events the Cluster drives (crash/restart orchestration and k-NN
  /// planning), accounted on this node's registry.
  struct ClusterEvents {
    Counter& workers_crashed;
    Counter& workers_restarted;
    Counter& resync_timeout;
    Counter& knn_adaptive_plans;
    Counter& knn_adaptive_degenerate;
    Counter& knn_adaptive_rounds;
  };
  ClusterEvents& cluster_events() { return cluster_events_; }

  /// Every metric this node exports, registered at construction.
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches the cluster-wide tracer (shared with the reliable channel).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    channel_.set_tracer(tracer);
  }

  /// Span trees of queries that exceeded `slow_query_threshold`.
  [[nodiscard]] const SlowQueryLog& slow_query_log() const {
    return slow_log_;
  }
  SlowQueryLog& slow_query_log() { return slow_log_; }

  /// Per-query resource costs attributed by kind / tenant / hottest camera.
  [[nodiscard]] const ResourceLedger& cost_ledger() const { return ledger_; }
  ResourceLedger& cost_ledger() { return ledger_; }

  // ------------------------------------------------------- heat observatory
  /// Cluster-wide per-partition heat, folded in from heartbeat piggybacks.
  [[nodiscard]] const HeatMapSnapshot& heat() const { return heat_; }

  /// Recomputes the partition.* skew gauges (and the exemplar partition-id
  /// labels) from the heat map. Heartbeats only record heat; the cluster
  /// calls this at the head of its health-sampling pipeline and before a
  /// metrics snapshot, so the gauges are fresh whenever they are read.
  void refresh_heat_gauges(TimePoint now);

  /// Read-only placement advice over the current heat map (never mutates
  /// routing state).
  [[nodiscard]] std::vector<PlacementRecommendation> placement_advice(
      TimePoint now, PlacementAdvisorConfig config = {}) const {
    return PlacementAdvisor::advise(heat_, map_, now, config);
  }

  /// Attaches an EXPLAIN/ANALYZE profiler (may be null). While the profiler
  /// has an active profile, submit/on_response record planning and
  /// per-worker scan stages into it.
  void set_profiler(QueryProfiler* profiler) { profiler_ = profiler; }

  /// Feeds a realized estimate-vs-actual pair into the planner-calibration
  /// histogram (stored as q-error × 100 for bucket resolution).
  void observe_estimate_error(double estimated, double actual) {
    estimate_q_error_x100_.observe(q_error(estimated, actual) * 100.0);
  }

  /// Reliable-transport state: frames sent but not yet acked. 0 means every
  /// ingest batch and query fragment this node sent has been delivered (the
  /// "acked" in the chaos invariant *no acked detection is ever lost*).
  [[nodiscard]] std::size_t unacked_frames() const {
    return channel_.unacked();
  }

  /// Cumulative worker fan-out / query count (E2/E3 pruning metric).
  [[nodiscard]] double mean_fanout() const {
    auto q = queries_submitted_.value();
    return q ? static_cast<double>(query_fanout_total_.value()) /
                   static_cast<double>(q)
             : 0.0;
  }

 private:
  /// One scatter unit of a query: a partition set sent to one worker. A
  /// hedge fragment duplicates part of a primary fragment (`covers` names
  /// it); the primary is satisfied when it answers itself, or when hedge
  /// answers cumulatively cover every one of its partitions (its partitions
  /// may back up to different workers, so one hedge answer is not enough).
  struct Fragment {
    NodeId worker;
    std::vector<PartitionId> partitions;
    std::uint64_t covers = 0;  // != 0 → hedge for that primary fragment
    bool retired = false;      // answered, hedged-over, or abandoned
    std::unordered_set<std::uint64_t> hedge_covered;  // partitions answered
    TraceContext span;  // fragment span (send → retire)
    /// EXPLAIN: caller's estimate apportioned to this fragment, or -1.
    double est_rows = -1.0;
    /// When the fragment was (re-)issued; answers observe per-peer latency.
    TimePoint sent_at;
  };

  struct PendingQuery {
    Query query;
    std::unordered_map<std::uint64_t, Fragment> fragments;  // by sub_id
    std::vector<QueryResult> results;
    std::size_t outstanding = 0;  // unretired primary fragments
    int retries_left = 0;
    bool hedged = false;
    bool partial = false;
    TraceContext root;  // coordinator.fanout span
    TimePoint submitted_at;
    bool finished = false;  // latency observed, root span ended
    /// Resource-cost accumulator, committed to the ledger at finish.
    CostVector cost;
    /// Detections returned per camera, for hottest-camera attribution.
    std::unordered_map<std::uint64_t, std::uint64_t> camera_counts;
  };

  static NodeId worker_node(WorkerId w) { return NodeId(w.value()); }

  /// Per-peer health signals: hedges issued against / won from a worker,
  /// fragment timeouts, and end-to-end fragment latency. Registered lazily
  /// under `peer.<node>.` so the health monitor's wildcard rules can watch
  /// every worker without enumeration.
  struct PeerStats {
    Counter* hedged = nullptr;
    Counter* hedge_wins = nullptr;
    Counter* timeouts = nullptr;
    LatencyHistogram* latency = nullptr;
  };
  PeerStats& peer_stats(NodeId worker);

  /// Application-level dispatch (after reliable-channel unwrapping).
  void dispatch(const Message& message, SimNetwork& network);

  /// Returns the encoded request payload size (ledger bytes-out accounting).
  std::size_t send_query_to(NodeId worker, std::uint64_t request_id,
                            std::uint64_t sub_id, const Query& query,
                            const std::vector<PartitionId>& partitions,
                            SimNetwork& network, TraceContext ctx);
  /// `wire_bytes` is the response payload size as it arrived off the wire.
  void on_response(const QueryResponse& response, std::size_t wire_bytes,
                   TimePoint now);
  /// Ends the root span and observes latency once all fragments resolve.
  void maybe_finish(std::uint64_t request_id, PendingQuery& pending,
                    TimePoint now);
  void on_deltas(const DeltaBatch& batch);
  void on_recovery_done(const RecoveryDone& done);
  /// Speculatively re-issues unanswered fragments to partition backups.
  void hedge(std::uint64_t request_id, SimNetwork& network);
  /// Re-routes a timed-out request's unanswered partitions to backups.
  void failover_retry(std::uint64_t request_id, SimNetwork& network);

  NodeId id_;
  const PartitionStrategy& strategy_;
  PartitionMap map_;
  CoordinatorConfig config_;

  /// Flushes one partition's buffer: assigns the batch its pbid and sends
  /// the identical detection set to the primary and (distinct) backup.
  void flush_partition_buffer(PartitionId p, std::vector<Detection>& buffer,
                              SimNetwork& network);

  // Ingest batching: per partition, so one pbid covers the identical batch
  // sent to both holders (that is what makes watermarks comparable across
  // replicas).
  std::unordered_map<std::uint64_t, std::vector<Detection>> ingest_buffers_;
  // Next batch id per partition (pbid 0 is reserved for "unsequenced").
  std::unordered_map<std::uint64_t, std::uint64_t> ingest_pbids_;

  /// RECOVERING bookkeeping for one partition: who is rejoining, who is
  /// serving meanwhile, and whether the rejoiner was the primary (so roles
  /// are restored on completion).
  struct RecoveringPartition {
    WorkerId target;
    WorkerId holder;
    bool restore_primary = false;
    std::uint64_t recovery_id = 0;
  };
  std::unordered_map<PartitionId, RecoveringPartition> recovering_;
  std::uint64_t next_recovery_id_ = 1;

  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_sub_id_ = 1;
  std::unordered_map<std::uint64_t, PendingQuery> pending_;

  std::unordered_map<QueryId, std::vector<DeltaUpdate>> delta_log_;
  std::unordered_map<QueryId, std::unordered_map<std::uint64_t, Detection>>
      live_answers_;

  // Failure detector state.
  std::unordered_map<WorkerId, TimePoint> last_heartbeat_;
  std::unordered_set<WorkerId> suspected_;

  // Latest object-presence summary per partition (trajectory pruning).
  std::unordered_map<PartitionId, ObjectSummary> summaries_;
  bool prune_trajectories_ = true;

  // Metric handles, each registered with its help string at construction.
  MetricsRegistry metrics_;
  Counter& ingested_;
  Counter& queries_submitted_;
  Counter& query_fanout_total_;
  Counter& query_partitions_total_;
  LatencyHistogram& query_latency_us_;
  Counter& hedges_issued_;
  Counter& hedges_won_;
  Counter& failover_retries_;
  Counter& queries_partial_;
  Counter& workers_suspected_;
  Gauge& partitions_recovering_;
  // Reference member: bumped from the const footprint() planning path.
  Counter& trajectory_partitions_pruned_;
  // Planner calibration: q-error × 100 per realized estimate.
  LatencyHistogram& estimate_q_error_x100_;
  // Cluster-wide per-partition heat, fed from heartbeat piggybacks; the
  // skew rollups are exported through the gauges below.
  HeatMapSnapshot heat_;
  Gauge& partition_load_relative_stddev_;
  Gauge& partition_hot_cold_ratio_;
  Gauge& partition_replicate_factor_;
  Gauge& partition_scan_gini_;
  Gauge& partition_hottest_load_;
  Gauge& partition_tracked_;
  std::unordered_map<std::uint64_t, PeerStats> peer_stats_;  // by node id
  // Protocol events (membership, failover, recovery, monitors).
  Counter& workers_unsuspected_ = metrics_.counter(
      "workers_unsuspected",
      "Suspected workers cleared after a heartbeat resumed");
  Counter& ingest_forwards_ = metrics_.counter(
      "ingest_forwards", "Detections routed to workers by the ingest path");
  Counter& unknown_message_ = metrics_.counter(
      "unknown_message", "Messages dropped for an unrecognized type");
  Counter& hedges_suppressed_recovering_ = metrics_.counter(
      "hedges_suppressed_recovering",
      "Hedges skipped because the backup was still recovering");
  Counter& partitions_failed_over_ = metrics_.counter(
      "partitions_failed_over",
      "Partitions re-pointed at a replica after a crash");
  Counter& partitions_rereplicated_ = metrics_.counter(
      "partitions_rereplicated",
      "Partitions assigned a new replica after failover");
  Counter& recoveries_started_ = metrics_.counter(
      "recoveries_started", "Worker restarts that began partition resync");
  Counter& recovery_done_stale_ = metrics_.counter(
      "recovery_done_stale",
      "Recovery completions for an already-superseded plan");
  Counter& partitions_recovered_ = metrics_.counter(
      "partitions_recovered",
      "Partitions fully resynced onto a restarted worker");
  Counter& monitors_installed_ = metrics_.counter(
      "monitors_installed", "Continuous monitors installed across workers");
  Counter& monitor_fanout_total_ = metrics_.counter(
      "monitor_fanout_total",
      "Worker installations summed over all monitors");
  Counter& deltas_positive_ = metrics_.counter(
      "deltas_positive",
      "Continuous-monitor delta notifications with new rows");
  Counter& deltas_negative_ = metrics_.counter(
      "deltas_negative",
      "Continuous-monitor delta notifications retracting rows");
  ClusterEvents cluster_events_{
      metrics_.counter("workers_crashed",
                       "Worker crashes injected or observed"),
      metrics_.counter("workers_restarted",
                       "Worker restarts driven through the cluster"),
      metrics_.counter("resync_timeout",
                       "Recovery resyncs abandoned after the drain deadline"),
      metrics_.counter("knn_adaptive_plans",
                       "kNN queries planned with the adaptive radius ladder"),
      metrics_.counter(
          "knn_adaptive_degenerate",
          "kNN plans that fell back to asking every partition"),
      metrics_.counter("knn_adaptive_rounds",
                       "kNN rounds issued; rounds minus plans = coverage "
                       "fallbacks")};

  Tracer* tracer_ = nullptr;
  SlowQueryLog slow_log_;
  ResourceLedger ledger_;
  QueryProfiler* profiler_ = nullptr;
  // Request the active profile belongs to; responses for other requests
  // (late monitors, unrelated traffic) do not record stages.
  std::uint64_t profiled_request_ = 0;

  // Reliable transport for ingest batches and query fragments. Declared
  // after metrics_ (it registers its accounting there).
  ReliableChannel channel_;
};

}  // namespace stcn
