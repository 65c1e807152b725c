#include "core/framework.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace stcn {

Cluster::Cluster(Rect world, std::unique_ptr<PartitionStrategy> strategy,
                 const ClusterConfig& config)
    : world_(world),
      config_(config),
      strategy_(std::move(strategy)),
      network_(config.network),
      tracer_(config.tracer),
      estimator_(SelectivityConfig{world, 16, 16, Duration::minutes(1), 32}),
      health_monitor_(config.health.monitor),
      flight_recorder_(config.health.flight) {
  STCN_CHECK(strategy_ != nullptr);
  STCN_CHECK(config_.worker_count > 0);
  STCN_CHECK(!world.is_empty());

  worker_ids_.reserve(config_.worker_count);
  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    worker_ids_.emplace_back(i + 1);
  }

  PartitionMap map =
      PartitionMap::round_robin(strategy_->partition_count(), worker_ids_);
  coordinator_ = std::make_unique<Coordinator>(
      NodeId(kCoordinatorNode), *strategy_, std::move(map),
      config_.coordinator, config_.reliable);
  network_.attach(*coordinator_);
  coordinator_->set_tracer(&tracer_);
  coordinator_->set_profiler(&profiler_);
  coordinator_->start(network_);

  WorkerConfig worker_config;
  worker_config.world = world;
  worker_config.monitor_tick = config_.monitor_tick;
  worker_config.retention = config_.retention;
  worker_config.channel = config_.reliable;
  worker_config.snapshot_every_ticks = config_.snapshot_every_ticks;
  worker_config.replay_log_max_bytes = config_.replay_log_max_bytes;
  worker_config.resync_retry_timeout = config_.resync_retry_timeout;
  worker_config.resync_max_attempts = config_.resync_max_attempts;
  worker_config.tiered_storage = config_.tiered_storage;
  worker_config.hot_sealed_blocks = config_.hot_sealed_blocks;
  worker_config.demote_after = config_.demote_after;
  for (WorkerId w : worker_ids_) {
    auto worker = std::make_unique<WorkerNode>(
        w, NodeId(kCoordinatorNode), worker_config);
    network_.attach(*worker);
    worker->set_tracer(&tracer_);
    worker->start(network_);
    workers_.push_back(std::move(worker));
  }

  // Health monitoring: every node's registry is a sample source; worker
  // source names match the subjects the coordinator's per-peer rules
  // indict ("worker.<node id>"), so both observation paths agree on who is
  // unhealthy.
  health_monitor_.add_source("net", &network_.metrics());
  health_monitor_.add_source("coordinator", &coordinator_->metrics());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    health_monitor_.add_source(
        "worker." + std::to_string(worker_ids_[i].value()),
        &workers_[i]->metrics());
  }
  health_monitor_.add_default_rules(config_.health.thresholds);

  if (config_.health.enabled) {
    health_ticker_ = std::make_unique<HealthTicker>(
        NodeId(kHealthNode),
        [this](TimePoint now) { sample_health_at(now); },
        config_.health.sample_period);
    network_.attach(*health_ticker_);
    health_ticker_->start(network_);
  }
}

WorkerNode& Cluster::worker(WorkerId w) {
  STCN_CHECK(w.value() >= 1 && w.value() <= workers_.size());
  return *workers_[w.value() - 1];
}

void Cluster::ingest_all(std::span<const Detection> detections) {
  for (const Detection& d : detections) {
    // Keep virtual time in step with detection time, draining queued
    // events along the way — jumping the clock past pending heartbeats
    // would make the failure detector see artificial silences.
    if (d.time > network_.now()) network_.run_until_idle(d.time);
    coordinator_->ingest(d, network_);
  }
  coordinator_->flush_ingest(network_);
  pump();
}

QueryResult Cluster::execute(const Query& query) {
  // The gateway span is the client-facing root: it covers submission, the
  // network pump, and result assembly; the coordinator's fan-out nests
  // under it. Node 0 = "the client side" (no simulated node has id 0).
  TraceContext root;
  if (tracer_.enabled()) {
    root = tracer_.start_trace("gateway.execute", 0, network_.now());
    last_trace_id_ = root.trace_id;
  }
  QueryResult result = query.kind == QueryKind::kKnn
                           ? execute_knn(query, root)
                           : submit_and_wait(query, root);
  if (root.valid()) {
    tracer_.tag(root, "results", result.detections.size());
    tracer_.end_span(root, network_.now());
  }
  return result;
}

QueryResult Cluster::submit_and_wait(
    const Query& query, TraceContext root,
    std::optional<std::vector<PartitionId>> partitions) {
  // Pre-submit cardinality estimate for the kinds the feedback loop also
  // observes, so every such query yields an estimate-vs-actual pair for
  // the planner-calibration histograms (and an EXPLAIN stage when
  // profiling).
  double estimated = -1.0;
  switch (query.kind) {
    case QueryKind::kRange:
      estimated = estimator_.estimate(query.region, query.interval);
      break;
    case QueryKind::kCircle:
      estimated =
          estimator_.estimate(query.circle.bounding_box(), query.interval);
      break;
    case QueryKind::kHeatmap:
      estimated = estimator_.estimate(query.region, query.interval);
      break;
    default:
      break;
  }

  bool profiling = profiler_.active();
  std::size_t sel_stage = QueryProfiler::kNoStage;
  if (profiling) {
    profiler_.set_time(network_.now());
    if (root.valid()) profiler_.set_trace(root.trace_id);
    if (estimated >= 0.0) {
      sel_stage = profiler_.open_stage("selectivity.estimate",
                                       network_.now());
      ExplainStage& s = profiler_.stage(sel_stage);
      s.estimated = estimated;
      s.note("kind", query_kind_name(query.kind));
    }
  }

  std::uint64_t request =
      partitions ? coordinator_->submit_to(std::move(*partitions), query,
                                           network_, root, estimated)
                 : coordinator_->submit(query, network_, root, estimated);
  while (!coordinator_->is_complete(request)) {
    if (!network_.step()) break;  // should not happen: timers pend
  }
  auto result = coordinator_->poll(request);
  STCN_CHECK(result.has_value());

  double actual = query.kind == QueryKind::kHeatmap
                      ? static_cast<double>(result->total_count())
                      : static_cast<double>(result->detections.size());
  if (estimated >= 0.0) {
    coordinator_->observe_estimate_error(estimated, actual);
  }
  if (sel_stage != QueryProfiler::kNoStage) {
    ExplainStage& s = profiler_.stage(sel_stage);
    s.actual = static_cast<std::int64_t>(actual);
    profiler_.close_stage(sel_stage, network_.now());
  }
  if (profiling) profiler_.set_time(network_.now());

  // Query feedback refines the selectivity histogram (no stream scanning).
  switch (query.kind) {
    case QueryKind::kRange:
      estimator_.observe(query.region, query.interval,
                         result->detections.size());
      break;
    case QueryKind::kCircle:
      estimator_.observe(query.circle.bounding_box(), query.interval,
                         result->detections.size());
      break;
    case QueryKind::kHeatmap:
      estimator_.observe(query.region, query.interval,
                         result->total_count());
      break;
    default:
      break;
  }
  return std::move(*result);
}

namespace {

/// Relative slack on the k-th answer's distance in the k-NN coverage check,
/// so rounding never drops a row at exactly that distance from the square.
constexpr double kKnnReachSlack = 1e-9;

}  // namespace

QueryResult Cluster::execute_knn(const Query& query, TraceContext root) {
  bool profiling = profiler_.active();
  if (profiling) profiler_.set_time(network_.now());
  Point center = query.circle.center;
  KnnPlan plan = KnnPlanner(estimator_, world_)
                     .plan(center, query.k, query.interval,
                           profiling ? &profiler_ : nullptr);
  Coordinator::ClusterEvents& events = coordinator_->cluster_events();
  events.knn_adaptive_plans.inc();
  if (plan.degenerate) events.knn_adaptive_degenerate.inc();

  // One round asks `partitions`, each for its own k nearest, under a
  // knn.round stage; returns its rows and that stage.
  auto run_round = [&](const Query& round,
                       std::vector<PartitionId> partitions,
                       double estimated) {
    events.knn_adaptive_rounds.inc();
    std::size_t stage = QueryProfiler::kNoStage;
    if (profiling) {
      stage = profiler_.open_stage("knn.round", network_.now());
      ExplainStage& s = profiler_.stage(stage);
      s.estimated = estimated;
      s.note("radius", std::to_string(round.circle.radius));
      profiler_.push_depth();
    }
    QueryResult result = submit_and_wait(round, root, std::move(partitions));
    if (stage != QueryProfiler::kNoStage) {
      profiler_.pop_depth();
      profiler_.stage(stage).actual =
          static_cast<std::int64_t>(result.detections.size());
      profiler_.close_stage(stage, network_.now());
    }
    return std::pair{std::move(result), stage};
  };

  // Round 1 asks the partitions of the planned circle. Every row nearer
  // than the merged k-th answer lies in the square around the circle
  // through that answer (all of the world when fewer than k came back).
  // The partitions of that square round 1 did not ask are the only ones
  // that can hold a nearer row; one more round asks exactly those, and
  // merging both rounds' rows is then exact, ties included.
  Query round = query;
  round.circle.radius = plan.initial_radius;
  std::vector<PartitionId> asked = coordinator_->footprint(round);
  auto [result, stage] = run_round(
      round, asked,
      std::min(static_cast<double>(query.k), plan.estimated_count));

  Query reach = query;
  reach.circle.radius = std::numeric_limits<double>::infinity();
  if (result.detections.size() >= query.k) {
    reach.circle.radius =
        query.k == 0 ? 0.0
                     : distance(result.detections.back().position, center) *
                           (1.0 + kKnnReachSlack);
  }
  std::vector<PartitionId> needed = coordinator_->footprint(reach);
  std::sort(asked.begin(), asked.end());
  std::sort(needed.begin(), needed.end());
  std::vector<PartitionId> missing;
  std::set_difference(needed.begin(), needed.end(), asked.begin(),
                      asked.end(), std::back_inserter(missing));
  if (stage != QueryProfiler::kNoStage) {
    profiler_.stage(stage).note("covered", missing.empty() ? "true" : "false");
  }
  if (missing.empty()) return result;

  ResultMerger merger(query);
  merger.add(std::move(result));
  merger.add(run_round(reach, std::move(missing), -1.0).first);
  return merger.take();
}

Cluster::ExplainResult Cluster::explain(const Query& query) {
  profiler_.begin(std::string("query kind=") + query_kind_name(query.kind),
                  network_.now());
  ExplainResult out;
  out.result = execute(query);
  out.profile = profiler_.finish(network_.now());
  // The slow-query log records by request id in maybe_finish; if this query
  // qualified, enrich its entry with the plan profile.
  coordinator_->slow_query_log().attach_profile(out.profile);
  return out;
}

Cluster::ExplainPathResult Cluster::explain_path(
    const ReidEngine& engine, const PathParams& params,
    const Detection& probe, const CandidateSource& source) {
  profiler_.begin("path_reconstruction", network_.now());
  PathReconstructor reconstructor(engine, params);
  ExplainPathResult out;
  out.path = reconstructor.reconstruct(probe, source, &profiler_);
  out.profile = profiler_.finish(network_.now());
  coordinator_->slow_query_log().attach_profile(out.profile);
  return out;
}

MetricsRegistry Cluster::metrics_snapshot() {
  coordinator_->refresh_heat_gauges(network_.now());
  MetricsRegistry snapshot;
  network_.metrics().merge_into(snapshot, "net.");
  coordinator_->metrics().merge_into(snapshot, "coordinator.");
  for (const auto& worker : workers_) {
    worker->metrics().merge_into(snapshot, "worker.");
  }
  coordinator_->cost_ledger().metrics().merge_into(snapshot, "cost.");
  return snapshot;
}

// ------------------------------------------------ health sampling pipeline

void Cluster::sample_health_at(TimePoint now) {
  // Heat rollups first, so the partition_imbalance / hot_partition gauge
  // rules below sample fresh skew values, not the last heartbeat's.
  coordinator_->refresh_heat_gauges(now);
  health_monitor_.sample(now);
  record_flight_frame(now);
  check_flight_triggers(now);
}

std::uint64_t Cluster::recovery_failed_total() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    const auto& counters = worker->metrics().counters();
    auto it = counters.find("recovery_failed");
    if (it != counters.end()) total += it->second->value();
  }
  return total;
}

void Cluster::record_flight_frame(TimePoint now) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("health");
  w.begin_object();
  for (const auto& [node, status] : health_monitor_.health().nodes) {
    w.key(node);
    w.value(health_status_name(status));
  }
  w.end_object();
  w.key("firing");
  w.value(static_cast<std::uint64_t>(health_monitor_.firing().size()));
  const ResourceLedger& ledger = coordinator_->cost_ledger();
  w.key("queries");
  w.value(ledger.queries());
  w.key("rows_evaluated");
  w.value(ledger.totals().rows_evaluated);
  w.key("recovery_failed");
  w.value(recovery_failed_total());
  w.key("slo_burn");
  w.begin_object();
  for (const SloState& slo : health_monitor_.slos()) {
    w.key(slo.name());
    w.value(slo.burn());
  }
  w.end_object();
  w.end_object();
  flight_recorder_.record_frame(now, w.take());
}

void Cluster::check_flight_triggers(TimePoint) {
  // New firing transitions since the last check (SLO rules included, named
  // "slo:<objective>").
  const EventLog& log = health_monitor_.events();
  std::uint64_t total = log.total();
  if (total > flight_events_seen_) {
    std::uint64_t fresh = total - flight_events_seen_;
    const auto& events = log.events();
    std::size_t start =
        events.size() > fresh ? events.size() - static_cast<std::size_t>(fresh)
                              : 0;
    for (std::size_t i = start; i < events.size(); ++i) {
      const HealthEvent& e = events[i];
      if (e.kind != "firing") continue;
      FlightTrigger t;
      t.kind = e.rule.rfind("slo:", 0) == 0 ? "slo" : "alert";
      t.rule = e.rule;
      t.subject = e.subject;
      t.severity = e.severity;
      t.value = e.value;
      t.threshold = e.threshold;
      freeze_postmortem(t);
    }
    flight_events_seen_ = total;
  }

  // A recovery_failed increment means a partition permanently gave up
  // catching up — no alert rule needs to cover it for the recorder to care.
  std::uint64_t failed = recovery_failed_total();
  if (failed > flight_recovery_failed_seen_) {
    FlightTrigger t;
    t.kind = "recovery_failed";
    t.rule = "recovery_failed";
    t.severity = "suspect";
    t.value = static_cast<double>(failed);
    t.threshold = static_cast<double>(flight_recovery_failed_seen_);
    flight_recovery_failed_seen_ = failed;
    freeze_postmortem(t);
  }
}

namespace {
void append_spans_json(obs::JsonWriter& w,
                       const std::vector<SpanRecord>& spans) {
  w.begin_array();
  for (const SpanRecord& span : spans) {
    w.begin_object();
    w.key("span_id");
    w.value(span.span_id);
    w.key("parent_id");
    w.value(span.parent_id);
    w.key("name");
    w.value(span.name);
    w.key("node");
    w.value(span.node);
    w.key("start_us");
    w.value(span.start.micros_since_origin());
    w.key("duration_us");
    w.value(span.duration().count_micros());
    for (const auto& [k, v] : span.tags) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
  }
  w.end_array();
}
}  // namespace

const PostmortemBundle& Cluster::freeze_postmortem(
    const FlightTrigger& trigger) {
  PostmortemSections s;
  obs::JsonWriter sw;
  health_monitor_.append_slo_json(sw);
  s.slo_json = sw.take();
  s.cost_json = coordinator_->cost_ledger().to_json();

  // Exemplars: every pinned bucket of the query-latency histogram, each
  // with its cost summary and (when the trace is still retained) the full
  // span tree — the p99 bucket links to the query that actually landed
  // there and the worker that made it slow.
  obs::JsonWriter ew;
  ew.begin_array();
  const auto& hists = coordinator_->metrics().histograms();
  if (auto it = hists.find("query_latency_us"); it != hists.end()) {
    const LatencyHistogram& h = *it->second;
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const Exemplar* e = h.exemplar(b);
      if (e == nullptr) continue;
      ew.begin_object();
      ew.key("metric");
      ew.value("coordinator.query_latency_us");
      ew.key("bucket");
      ew.value(b);
      ew.key("value_us");
      ew.value(e->value);
      ew.key("trace_id");
      ew.value(e->trace_id);
      ew.key("summary");
      ew.value(e->summary);
      if (tracer_.enabled() && e->trace_id != 0 &&
          tracer_.has_trace(e->trace_id)) {
        ew.key("spans");
        append_spans_json(ew, tracer_.trace(e->trace_id));
      }
      ew.end_object();
    }
  }
  ew.end_array();
  s.exemplars_json = ew.take();

  obs::JsonWriter evw;
  health_monitor_.events().append_json(evw);
  s.events_json = evw.take();
  s.slow_queries_json = coordinator_->slow_query_log().to_json();

  obs::JsonWriter cw;
  cw.begin_object();
  cw.key("worker_count");
  cw.value(static_cast<std::uint64_t>(config_.worker_count));
  cw.key("query_timeout_us");
  cw.value(config_.coordinator.query_timeout.count_micros());
  cw.key("hedge_queries");
  cw.value(config_.coordinator.hedge_queries);
  cw.key("max_retries");
  cw.value(config_.coordinator.max_retries);
  cw.key("health_sample_period_us");
  cw.value(config_.health.sample_period.count_micros());
  cw.key("slo_short_window_us");
  cw.value(config_.health.thresholds.slo_short_window.count_micros());
  cw.key("slo_long_window_us");
  cw.value(config_.health.thresholds.slo_long_window.count_micros());
  cw.end_object();
  s.config_json = cw.take();

  // Heat table + top-K placement advice: "who was hot, and what would
  // have fixed it" frozen alongside the alert that fired.
  obs::JsonWriter hw;
  hw.begin_object();
  hw.key("table");
  coordinator_->heat().append_json(hw, network_.now());
  hw.key("advisor");
  PlacementAdvisor::append_json(
      hw, coordinator_->placement_advice(network_.now()));
  hw.end_object();
  s.heat_json = hw.take();

  return flight_recorder_.freeze(network_.now(), trigger, std::move(s));
}

void Cluster::pump(Duration horizon) {
  network_.run_until_idle(network_.now() + horizon);
}

void Cluster::advance_time(Duration d) {
  network_.run_until_idle(network_.now() + d);
}

void Cluster::crash_worker(WorkerId w) {
  network_.crash(NodeId(w.value()));
  worker(w).lose_state();
  coordinator_->cluster_events().workers_crashed.inc();
}

Cluster::RecoveryReport Cluster::restart_worker(WorkerId w) {
  TimePoint start = network_.now();
  network_.restart(NodeId(w.value()));

  WorkerNode& node = worker(w);
  node.restart_ticks(network_);
  coordinator_->clear_suspicion(w);

  TraceContext rspan;
  if (tracer_.enabled()) {
    rspan = tracer_.start_trace("recovery", w.value(), network_.now());
    tracer_.tag(rspan, "worker", w.value());
    last_trace_id_ = rspan.trace_id;
  }

  // Routing flips before any data moves: the surviving holder serves as
  // primary while the rejoiner rides as backup (warmed by the live replica
  // stream), and per-partition RECOVERING state gates hedging/failover
  // until RecoveryDone flips roles back.
  Coordinator::RecoveryPlan plan = coordinator_->begin_worker_recovery(w);
  node.start_recovery(plan.recovery_id, plan.specs, rspan, network_);

  RecoveryReport report;
  report.partitions_total = plan.specs.size();

  // Bounded by virtual time: each sync exchange has its own retry/backoff
  // ladder, but recurring timers keep the queue non-empty forever, so the
  // pump itself needs a deadline too.
  TimePoint deadline = network_.now() + config_.resync_timeout;
  while (network_.now() < deadline) {
    if (node.resync_complete() &&
        coordinator_->recovering_count_for(w) <= node.recovery_failed_count()) {
      break;
    }
    if (!network_.step()) break;
  }

  report.duration = network_.now() - start;
  report.partitions_recovered = node.recovery_recovered_count();
  report.partitions_failed = node.recovery_failed_count();
  report.completed =
      node.resync_complete() && coordinator_->recovering_count_for(w) == 0 &&
      report.partitions_failed == 0;
  if (!report.completed && network_.now() >= deadline) {
    coordinator_->cluster_events().resync_timeout.inc();
  }
  if (rspan.valid()) {
    tracer_.tag(rspan, "partitions", report.partitions_total);
    tracer_.tag(rspan, "recovered", report.partitions_recovered);
    tracer_.tag(rspan, "outcome", report.completed ? "ok" : "incomplete");
    tracer_.end_span(rspan, network_.now());
  }
  coordinator_->cluster_events().workers_restarted.inc();
  return report;
}

}  // namespace stcn
