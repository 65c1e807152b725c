// Cluster: the framework's top-level façade and public API.
//
// Wires together the simulated network, one coordinator, N workers, a
// partition strategy, and a partition map, and exposes the operations a
// downstream application uses:
//
//   Cluster cluster(world, std::make_unique<HybridStrategy>(...), config);
//   cluster.ingest_all(trace.detections);
//   QueryResult r = cluster.execute(
//       Query::range(cluster.next_query_id(), region, interval));
//
// Everything is driven by the deterministic virtual clock; `execute` pumps
// the network until the query completes (or fails over and completes
// partially), so callers see a synchronous API over an asynchronous
// distributed system.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.h"
#include "core/coordinator.h"
#include "core/gateway.h"
#include "core/worker.h"
#include "net/sim_network.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/tracer.h"
#include "partition/partition_map.h"
#include "query/planner.h"
#include "query/selectivity.h"
#include "reid/path_reconstruction.h"
#include "reid/reid_engine.h"
#include "trace/camera.h"

namespace stcn {

/// Continuous health monitoring. The monitor and its sources are always
/// wired (manual `sample_health` works regardless); `enabled` additionally
/// attaches a ticker node that samples on the sim clock.
struct ClusterHealthConfig {
  bool enabled = false;
  Duration sample_period = Duration::millis(500);
  bool install_default_rules = true;
  HealthThresholds thresholds;
  HealthMonitorConfig monitor;
  /// SLO burn-rate engine: ships with a query-availability and a
  /// query-latency objective unless disabled; specs evaluate on every
  /// health sample through the monitor's hysteresis.
  bool install_default_slos = true;
  double slo_latency_threshold_us = 25'000.0;
  double slo_availability_objective = 0.99;
  double slo_latency_objective = 0.90;
  /// Burn-rate windows (sim clock), applied to the default SLOs. Tests
  /// shrink these so a chaos scenario burns visibly within seconds.
  Duration slo_short_window = Duration::minutes(5);
  Duration slo_long_window = Duration::hours(1);
  /// Alert-triggered flight recorder (see obs/flight_recorder.h).
  FlightRecorderConfig flight;
};

struct ClusterConfig {
  std::size_t worker_count = 4;
  NetworkConfig network;
  CoordinatorConfig coordinator;
  Duration monitor_tick = Duration::seconds(1);
  /// Worker-side retention window; Duration::max() disables eviction.
  Duration retention = Duration::max();
  /// Reliable-transport knobs, applied to the coordinator and every worker.
  ReliableChannelConfig reliable;
  /// Snapshot cadence in monitor ticks (0 disables the snapshot ticker).
  std::uint32_t snapshot_every_ticks = 10;
  /// Per-partition replay-log retention budget on each worker.
  std::size_t replay_log_max_bytes = 4 * 1024 * 1024;
  /// First retry timeout of a recovery sync exchange (doubles per attempt).
  Duration resync_retry_timeout = Duration::millis(500);
  /// Attempts per sync exchange before the partition is declared failed.
  std::uint32_t resync_max_attempts = 6;
  /// Overall restart_worker deadline (virtual time).
  Duration resync_timeout = Duration::seconds(30);
  /// Distributed-tracing retention; max_traces = 0 disables tracing.
  TracerConfig tracer;
  /// Continuous cluster health monitoring (see ClusterHealthConfig).
  ClusterHealthConfig health;
  /// Tiered detection storage on every worker: sealed blocks past the hot
  /// window are compressed in place (see StoreTierConfig in
  /// index/detection_store.h).
  bool tiered_storage = false;
  /// Sealed blocks kept hot (uncompressed) per partition when tiering is on.
  std::uint32_t hot_sealed_blocks = 2;
  /// Age-triggered demotion: blocks whose newest detection is older than
  /// this are compressed on the next monitor tick. Duration::max() leaves
  /// demotion purely fill-triggered.
  Duration demote_after = Duration::max();
};

/// Dedicated node that drives the health-sampling pipeline (monitor, SLO
/// engine, flight recorder) on a recurring timer, so health sampling
/// advances with the virtual clock like every other periodic process in
/// the simulation.
class HealthTicker final : public NetworkNode {
 public:
  using SampleFn = std::function<void(TimePoint)>;

  HealthTicker(NodeId id, SampleFn sample, Duration period)
      : id_(id), sample_(std::move(sample)), period_(period) {}

  [[nodiscard]] NodeId node_id() const override { return id_; }
  void handle_message(const Message&, SimNetwork&) override {}
  void handle_timer(std::uint64_t, SimNetwork& network) override {
    sample_(network.now());
    network.set_timer(id_, period_, 0);
  }
  void start(SimNetwork& network) { network.set_timer(id_, period_, 0); }

 private:
  NodeId id_;
  SampleFn sample_;
  Duration period_;
};

class Cluster {
 public:
  Cluster(Rect world, std::unique_ptr<PartitionStrategy> strategy,
          const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -------------------------------------------------------------- ingest
  /// Routes one detection into the cluster (delivery happens on pump()).
  void ingest(const Detection& d) { coordinator_->ingest(d, network_); }
  /// Ingests a full batch: routes, flushes, and pumps to delivery.
  void ingest_all(std::span<const Detection> detections);
  void flush_ingest() { coordinator_->flush_ingest(network_); }

  /// Creates an edge gateway fleet attached to this cluster's network,
  /// seeded with a snapshot of the current partition map. See gateway.h.
  /// A direct-mode fleet writes past the coordinator, which therefore stops
  /// pruning trajectory queries by object-presence summaries.
  [[nodiscard]] GatewayFleet make_gateway_fleet(std::size_t gateway_count,
                                                GatewayConfig config = {}) {
    if (!config.relay_through_coordinator) {
      coordinator_->stop_trajectory_pruning();
    }
    return GatewayFleet(gateway_count, NodeId(kCoordinatorNode), *strategy_,
                        coordinator_->partition_map(), config, network_);
  }

  // ------------------------------------------------------------- queries
  [[nodiscard]] QueryId next_query_id() { return QueryId(next_query_id_++); }

  /// Executes a query to completion (synchronous over the virtual clock).
  /// Range/circle/heatmap results feed the selectivity estimator as a side
  /// effect (the framework's query-feedback loop). A k-NN asks only the
  /// partitions of the circle the planner picks, and asks every partition
  /// once more only when the answer could lie outside them; it is exact
  /// either way.
  QueryResult execute(const Query& query);

  // ------------------------------------------------------ EXPLAIN/ANALYZE
  struct ExplainResult {
    QueryResult result;
    QueryProfile profile;
  };
  struct ExplainPathResult {
    ReconstructedPath path;
    QueryProfile profile;
  };

  /// Executes `query` with the profiler armed: the returned profile holds
  /// every planning/execution stage with estimated vs actual cardinalities.
  /// The profile is also attached to the slow-query log entry when the
  /// query qualified.
  ExplainResult explain(const Query& query);

  /// Profiled multi-hop path reconstruction: per-hop stages with the
  /// distributed camera-window queries they issued nested under them.
  ExplainPathResult explain_path(const ReidEngine& engine,
                                 const PathParams& params,
                                 const Detection& probe,
                                 const CandidateSource& source);

  [[nodiscard]] QueryProfiler& profiler() { return profiler_; }

  [[nodiscard]] const SelectivityEstimator& selectivity() const {
    return estimator_;
  }

  // --------------------------------------------------- continuous queries
  void install_monitor(const ContinuousQuerySpec& spec) {
    coordinator_->install_monitor(spec, network_);
    pump();
  }
  std::vector<DeltaUpdate> drain_deltas(QueryId id) {
    return coordinator_->drain_deltas(id);
  }
  [[nodiscard]] std::vector<Detection> live_answer(QueryId id) const {
    return coordinator_->live_answer(id);
  }

  // ------------------------------------------------------------ failures
  /// Crashes a worker: network partitions it away AND its in-memory state
  /// is lost (real crash semantics). Snapshots persist (local disk model).
  void crash_worker(WorkerId w);

  /// Outcome of restart_worker: how long recovery took (virtual time) and
  /// whether every partition actually caught up. `completed == false`
  /// means the deadline expired or some exchange exhausted its retry
  /// ladder — the coordinator keeps routing those partitions to the
  /// surviving holder, so queries stay correct either way.
  struct RecoveryReport {
    Duration duration = Duration::zero();
    bool completed = false;
    std::size_t partitions_total = 0;
    std::size_t partitions_recovered = 0;
    std::size_t partitions_failed = 0;
  };

  /// Restarts a crashed worker and recovers the partitions it should hold
  /// via snapshot install + replay-log delta resync (full copy when no
  /// usable snapshot/log survives). Routing flips to the surviving holder
  /// before any data moves and flips back per partition on catch-up, so
  /// serving stays correct throughout.
  RecoveryReport restart_worker(WorkerId w);

  // ------------------------------------------------------------ plumbing
  /// Delivers all in-flight messages (bounded by `horizon` of virtual time
  /// ahead of now, so recurring timers cannot spin forever).
  void pump(Duration horizon = Duration::seconds(2));

  /// Advances the virtual clock (drives monitor window expiry).
  void advance_time(Duration d);

  // ------------------------------------------------------- observability
  /// Cluster-wide tracer (shared by coordinator, workers, channels).
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  /// Trace id of the most recent `execute` call (0 if tracing is off).
  [[nodiscard]] std::uint64_t last_trace_id() const {
    return last_trace_id_;
  }

  /// One registry holding every node's metrics, namespaced: `net.*`,
  /// `coordinator.*`, `worker.*` (summed across workers). Counter-only
  /// node stats not yet on handles are imported too, so the snapshot is a
  /// complete machine-readable view of the cluster. Refreshes the
  /// coordinator's heat-skew gauges first.
  [[nodiscard]] MetricsRegistry metrics_snapshot();

  /// Continuous health monitor over every node's registry. Sources and
  /// rules are wired at construction; sampling runs on the sim clock when
  /// `config.health.enabled`, or manually via sample_health().
  [[nodiscard]] HealthMonitor& health_monitor() { return health_monitor_; }
  [[nodiscard]] const HealthMonitor& health_monitor() const {
    return health_monitor_;
  }
  /// Per-node healthy/degraded/suspect rollup as of the last sample.
  [[nodiscard]] ClusterHealth health() const {
    return health_monitor_.health();
  }
  /// Takes one health sample now (manual drive for tests): monitor, SLO
  /// burn rates, flight-recorder frame, and trigger check, in that order —
  /// the same pipeline the ticker runs.
  void sample_health() { sample_health_at(network_.now()); }

  /// SLO burn-rate engine (objectives evaluated on every health sample).
  [[nodiscard]] SloEngine& slo_engine() { return slo_engine_; }
  [[nodiscard]] const SloEngine& slo_engine() const { return slo_engine_; }

  /// Per-query cost ledger assembled by the coordinator.
  [[nodiscard]] const ResourceLedger& cost_ledger() const {
    return coordinator_->cost_ledger();
  }

  /// Flight recorder: pre-trigger frames and frozen postmortem bundles.
  [[nodiscard]] FlightRecorder& flight_recorder() { return flight_recorder_; }
  [[nodiscard]] const FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

  /// Assembles and freezes a postmortem bundle right now (manual trigger;
  /// the sampling pipeline calls this automatically on alert transitions).
  const PostmortemBundle& freeze_postmortem(const FlightTrigger& trigger);

  [[nodiscard]] SimNetwork& network() { return network_; }
  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] const Coordinator& coordinator() const {
    return *coordinator_;
  }
  [[nodiscard]] WorkerNode& worker(WorkerId w);
  [[nodiscard]] const std::vector<WorkerId>& worker_ids() const {
    return worker_ids_;
  }
  [[nodiscard]] const PartitionStrategy& strategy() const {
    return *strategy_;
  }
  [[nodiscard]] TimePoint now() const { return network_.now(); }

 private:
  static constexpr std::uint64_t kCoordinatorNode = 1'000'000;
  // Gateways occupy [2'000'000, …); the health ticker sits above them.
  static constexpr std::uint64_t kHealthNode = 3'000'000;

  /// One coordinator round of `query`: submit, pump until complete, poll,
  /// and feed the estimator.
  QueryResult submit_and_wait(const Query& query, TraceContext root);
  /// The k-NN plan: a bounded round, then the coverage check.
  QueryResult execute_knn(const Query& query, TraceContext root);

  /// The full sampling pipeline behind sample_health() and the ticker.
  void sample_health_at(TimePoint now);
  /// Appends one compact cluster-state frame to the flight recorder.
  void record_flight_frame(TimePoint now);
  /// Freezes a bundle for every new firing transition / recovery failure.
  void check_flight_triggers(TimePoint now);
  /// Sum of `recovery_failed` across all workers.
  [[nodiscard]] std::uint64_t recovery_failed_total() const;

  Rect world_;
  ClusterConfig config_;
  std::unique_ptr<PartitionStrategy> strategy_;
  SimNetwork network_;
  Tracer tracer_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<WorkerNode>> workers_;
  std::vector<WorkerId> worker_ids_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t last_trace_id_ = 0;
  SelectivityEstimator estimator_;
  QueryProfiler profiler_;
  HealthMonitor health_monitor_;
  SloEngine slo_engine_;
  FlightRecorder flight_recorder_;
  // Trigger-edge detection state for the flight recorder.
  std::uint64_t flight_events_seen_ = 0;
  std::uint64_t flight_recovery_failed_seen_ = 0;
  std::unique_ptr<HealthTicker> health_ticker_;
};

/// CandidateSource backed by distributed camera-window queries — this is
/// how the re-identification engine runs on the framework.
class DistributedCandidateSource final : public CandidateSource {
 public:
  DistributedCandidateSource(Cluster& cluster, const CameraNetwork& cameras)
      : cluster_(cluster), cameras_(cameras) {}

  [[nodiscard]] std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const override {
    Query q = Query::camera_window(cluster_.next_query_id(), camera, window);
    return cluster_.execute(q).detections;
  }

  [[nodiscard]] std::vector<CameraId> all_cameras() const override {
    std::vector<CameraId> out;
    out.reserve(cameras_.size());
    for (const Camera& cam : cameras_.cameras()) out.push_back(cam.id);
    return out;
  }

 private:
  Cluster& cluster_;
  const CameraNetwork& cameras_;
};

}  // namespace stcn
