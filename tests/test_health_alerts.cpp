// Continuous health monitoring: ring-buffer series, rule evaluation with
// hysteresis, wildcard fan-out with subject attribution, and the
// end-to-end chaos contract — a gray-slow worker must drive a `suspect`
// alert within a bounded number of samples, and healing must resolve it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

TimePoint at(int seconds) {
  return TimePoint::origin() + Duration::seconds(seconds);
}

// ----------------------------------------------------------- time series

TEST(TimeSeries, RingKeepsNewestSamples) {
  TimeSeries ts(4);
  EXPECT_EQ(ts.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    ts.push(at(i), static_cast<double>(i));
  }
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts.at(0), 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(ts.at(3), 5.0);
  EXPECT_DOUBLE_EQ(ts.back(), 5.0);
  EXPECT_EQ(ts.time_at(0), at(2));
  EXPECT_EQ(ts.time_at(3), at(5));
}

TEST(TimeSeries, ZeroCapacityIsInert) {
  TimeSeries ts(0);
  ts.push(at(0), 1.0);
  EXPECT_EQ(ts.size(), 0u);
}

TEST(TimeSeries, RepeatedWraparoundPreservesOrderAndTimes) {
  TimeSeries ts(5);
  // Wrap the ring many times over, stopping at an offset that is not a
  // multiple of the capacity so the head lands mid-buffer.
  const int total = 5 * 7 + 3;
  for (int i = 0; i < total; ++i) {
    ts.push(at(i), static_cast<double>(i * 10));
  }
  ASSERT_EQ(ts.size(), 5u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    int logical = total - 5 + static_cast<int>(i);
    EXPECT_DOUBLE_EQ(ts.at(i), logical * 10.0) << "index " << i;
    EXPECT_EQ(ts.time_at(i), at(logical)) << "index " << i;
  }
  EXPECT_DOUBLE_EQ(ts.back(), (total - 1) * 10.0);
  // Exactly one more push evicts exactly the oldest.
  ts.push(at(total), static_cast<double>(total * 10));
  EXPECT_DOUBLE_EQ(ts.at(0), (total - 4) * 10.0);
}

TEST(TimeSeries, WindowedRateIsExactAcrossWraparoundSeam) {
  // A cumulative counter growing exactly 10/s, sampled once per second
  // into a capacity-4 ring. After the ring wraps, a window wider than the
  // ring reaches past the seam: the baseline clamps to the oldest retained
  // sample, and the divisor must be the span the ring actually covers —
  // dividing by the nominal window would undercount the first window
  // after the wrap (here 30/5 = 6/s instead of the true 10/s).
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) ts.push(at(i), 10.0 * i);
  // Ring holds t=6..9 (values 60..90). A 5s window wants a t=4 baseline.
  EXPECT_DOUBLE_EQ(ts.rate_over(at(9), Duration::seconds(5)), 10.0);
  // Windows that fit inside the ring are exact too.
  EXPECT_DOUBLE_EQ(ts.rate_over(at(9), Duration::seconds(2)), 10.0);
  EXPECT_DOUBLE_EQ(ts.delta_over(at(9), Duration::seconds(2)), 20.0);
  // delta_over past the seam is the covered delta, never an extrapolation.
  EXPECT_DOUBLE_EQ(ts.delta_over(at(9), Duration::seconds(5)), 30.0);

  // A counter reset (subject restarted) clamps at zero, never negative.
  ts.push(at(10), 0.0);
  EXPECT_DOUBLE_EQ(ts.rate_over(at(10), Duration::seconds(3)), 0.0);
  EXPECT_DOUBLE_EQ(ts.delta_over(at(10), Duration::seconds(3)), 0.0);

  // Degenerate cases: empty / single-sample series report zero.
  TimeSeries fresh(4);
  EXPECT_DOUBLE_EQ(fresh.rate_over(at(1), Duration::seconds(1)), 0.0);
  fresh.push(at(0), 5.0);
  EXPECT_DOUBLE_EQ(fresh.rate_over(at(1), Duration::seconds(1)), 0.0);
}

// ------------------------------------------------------- rule evaluation

AlertRule rate_rule(std::string name, std::string metric, double threshold) {
  AlertRule r;
  r.name = std::move(name);
  r.metric = std::move(metric);
  r.kind = MetricKind::kCounterRate;
  r.threshold = threshold;
  r.for_samples = 2;
  r.resolve_samples = 2;
  return r;
}

TEST(HealthMonitor, CounterRateRuleFiresWithHysteresisAndResolves) {
  MetricsRegistry reg;
  Counter& retransmits = reg.counter("retransmits");
  HealthMonitor monitor;
  monitor.add_source("net", &reg);
  monitor.add_rule(rate_rule("storm", "retransmits", 10.0));

  monitor.sample(at(0));  // first sample: no dt, rates not ready
  EXPECT_FALSE(monitor.is_firing("storm"));

  retransmits.add(100);
  monitor.sample(at(1));  // rate 100/s: breach 1 of 2
  EXPECT_FALSE(monitor.is_firing("storm"));

  retransmits.add(100);
  monitor.sample(at(2));  // breach 2 of 2: fires
  EXPECT_TRUE(monitor.is_firing("storm"));
  EXPECT_TRUE(monitor.is_firing("storm", "net"));  // subject = source name
  EXPECT_EQ(monitor.events().count("firing", "storm"), 1u);
  EXPECT_EQ(monitor.health().status("net"), HealthStatus::kDegraded);

  monitor.sample(at(3));  // rate 0: clear 1 of 2, still firing
  EXPECT_TRUE(monitor.is_firing("storm"));
  monitor.sample(at(4));  // clear 2 of 2: resolves
  EXPECT_FALSE(monitor.is_firing("storm"));
  EXPECT_EQ(monitor.events().count("resolved", "storm"), 1u);
  EXPECT_EQ(monitor.health().status("net"), HealthStatus::kHealthy);

  const TimeSeries* series =
      monitor.series("net", "retransmits", MetricKind::kCounterRate);
  ASSERT_NE(series, nullptr);
  EXPECT_GT(series->size(), 0u);
}

TEST(HealthMonitor, WildcardRuleIndictsCapturedSubject) {
  MetricsRegistry coord;
  Counter& wins3 = coord.counter("peer.3.hedge_wins");
  coord.counter("peer.5.hedge_wins");
  MetricsRegistry w3;
  MetricsRegistry w5;

  HealthMonitor monitor;
  monitor.add_source("coordinator", &coord);
  monitor.add_source("worker.3", &w3);
  monitor.add_source("worker.5", &w5);
  AlertRule rule = rate_rule("hedge_spike", "peer.*.hedge_wins", 0.5);
  rule.severity = AlertSeverity::kSuspect;
  rule.source_filter = "coordinator";
  rule.subject_prefix = "worker.";
  monitor.add_rule(rule);

  monitor.sample(at(0));
  wins3.add(10);
  monitor.sample(at(1));
  wins3.add(10);
  monitor.sample(at(2));

  // The coordinator-side observation indicts worker 3, not the coordinator.
  EXPECT_TRUE(monitor.is_firing("hedge_spike", "worker.3"));
  EXPECT_FALSE(monitor.is_firing("hedge_spike", "worker.5"));
  ClusterHealth health = monitor.health();
  EXPECT_EQ(health.status("worker.3"), HealthStatus::kSuspect);
  EXPECT_EQ(health.status("worker.5"), HealthStatus::kHealthy);
  EXPECT_EQ(health.status("coordinator"), HealthStatus::kHealthy);
  EXPECT_EQ(health.overall(), HealthStatus::kSuspect);
  EXPECT_NE(health.render().find("worker.3: suspect"), std::string::npos);
}

TEST(HealthMonitor, BreachIsStrictExactlyAtThreshold) {
  // The hysteresis contract at the boundary: a sample exactly AT the
  // threshold is a clear sample, not a breach (kAbove means strictly
  // above). This keeps a gauge parked at its limit from flapping.
  MetricsRegistry reg;
  Gauge& queue = reg.gauge("unacked_frames");
  HealthMonitor monitor;
  monitor.add_source("worker.1", &reg);
  AlertRule rule;
  rule.name = "queue_buildup";
  rule.metric = "unacked_frames";
  rule.kind = MetricKind::kGaugeLevel;
  rule.threshold = 64.0;
  rule.for_samples = 2;
  rule.resolve_samples = 2;
  monitor.add_rule(rule);

  queue.set(64.0);  // == threshold: never a breach
  for (int i = 0; i < 6; ++i) monitor.sample(at(i));
  EXPECT_FALSE(monitor.is_firing("queue_buildup"));

  queue.set(64.0 + 1e-9);  // the smallest excursion above is a breach
  monitor.sample(at(6));
  EXPECT_FALSE(monitor.is_firing("queue_buildup"));  // breach 1 of 2
  monitor.sample(at(7));
  EXPECT_TRUE(monitor.is_firing("queue_buildup"));  // breach 2 of 2

  // Dropping back to exactly the threshold counts toward resolution.
  queue.set(64.0);
  monitor.sample(at(8));
  EXPECT_TRUE(monitor.is_firing("queue_buildup"));  // clear 1 of 2
  monitor.sample(at(9));
  EXPECT_FALSE(monitor.is_firing("queue_buildup"));  // resolved
  EXPECT_EQ(monitor.events().count("firing", "queue_buildup"), 1u);
  EXPECT_EQ(monitor.events().count("resolved", "queue_buildup"), 1u);
}

TEST(HealthMonitor, BelowRuleArmsOnlyAfterTrafficSeen) {
  MetricsRegistry reg;
  Counter& ingested = reg.counter("ingested");
  HealthMonitor monitor;
  monitor.add_source("coordinator", &reg);
  AlertRule rule = rate_rule("ingest_stall", "ingested", 1.0);
  rule.compare = AlertComparison::kBelow;
  monitor.add_rule(rule);

  // An idle cluster that never ingested must not page.
  for (int i = 0; i < 5; ++i) monitor.sample(at(i));
  EXPECT_FALSE(monitor.is_firing("ingest_stall"));

  ingested.add(100);
  monitor.sample(at(5));  // rate 100/s: armed, no breach
  EXPECT_FALSE(monitor.is_firing("ingest_stall"));
  monitor.sample(at(6));  // stalled: breach 1
  monitor.sample(at(7));  // stalled: breach 2, fires
  EXPECT_TRUE(monitor.is_firing("ingest_stall"));
}

TEST(HealthMonitor, GaugeLevelAndHistogramMeanRules) {
  MetricsRegistry reg;
  Gauge& queue = reg.gauge("unacked_frames");
  LatencyHistogram& lat = reg.histogram("fragment_latency_us");

  HealthMonitor monitor;
  monitor.add_source("worker.1", &reg);
  AlertRule gauge_rule;
  gauge_rule.name = "queue_buildup";
  gauge_rule.metric = "unacked_frames";
  gauge_rule.kind = MetricKind::kGaugeLevel;
  gauge_rule.threshold = 64.0;
  gauge_rule.for_samples = 2;
  gauge_rule.resolve_samples = 2;
  monitor.add_rule(gauge_rule);
  AlertRule mean_rule;
  mean_rule.name = "latency_burn";
  mean_rule.metric = "fragment_latency_us";
  mean_rule.kind = MetricKind::kHistogramMean;
  mean_rule.threshold = 5'000.0;
  mean_rule.for_samples = 2;
  mean_rule.resolve_samples = 2;
  mean_rule.severity = AlertSeverity::kSuspect;
  monitor.add_rule(mean_rule);

  queue.set(100.0);
  lat.observe(20'000.0);
  monitor.sample(at(0));  // gauge breach 1; histogram window not ready
  lat.observe(20'000.0);
  monitor.sample(at(1));  // gauge fires; histogram mean 20ms breach 1
  EXPECT_TRUE(monitor.is_firing("queue_buildup"));
  lat.observe(20'000.0);
  monitor.sample(at(2));  // histogram breach 2: fires
  EXPECT_TRUE(monitor.is_firing("latency_burn"));
  // Both alerts target the same node; the worse severity wins the rollup.
  EXPECT_EQ(monitor.health().status("worker.1"), HealthStatus::kSuspect);

  // No new observations: the windowed mean has no data, which freezes the
  // streaks instead of resolving a possibly-still-sick node.
  monitor.sample(at(3));
  monitor.sample(at(4));
  EXPECT_TRUE(monitor.is_firing("latency_burn"));

  // Healthy traffic resumes: fast samples resolve the burn, and the gauge
  // dropping resolves the buildup.
  queue.set(0.0);
  lat.observe(100.0);
  monitor.sample(at(5));
  lat.observe(100.0);
  monitor.sample(at(6));
  EXPECT_FALSE(monitor.is_firing("latency_burn"));
  EXPECT_FALSE(monitor.is_firing("queue_buildup"));
  EXPECT_EQ(monitor.health().status("worker.1"), HealthStatus::kHealthy);

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(monitor.to_json(), v, &error)) << error;
  EXPECT_GE(v.at("events").array().size(), 4u);  // 2 firing + 2 resolved
}

// --------------------------------------------------------- cluster wiring

struct Scenario {
  Trace trace;
  Rect world;

  Scenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 6;
          c.roads.grid_rows = 6;
          c.cameras.camera_count = 20;
          c.mobility.object_count = 20;
          c.duration = Duration::minutes(3);
          c.seed = 777;
          return c;
        }())),
        world(trace.roads.bounds(120.0)) {}
};

Scenario& scenario() {
  static Scenario s;
  return s;
}

std::unique_ptr<Cluster> make_cluster(ClusterConfig config = {}) {
  Scenario& s = scenario();
  config.worker_count = 4;
  auto cluster = std::make_unique<Cluster>(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config);
  cluster->ingest_all(s.trace.detections);
  return cluster;
}

TEST(ClusterHealthWiring, SourcesRulesAndSnapshotNamespacing) {
  auto cluster = make_cluster();
  HealthMonitor& monitor = cluster->health_monitor();
  EXPECT_GE(monitor.rules().size(), 5u);  // the default rule set

  cluster->sample_health();
  cluster->advance_time(Duration::millis(500));
  cluster->sample_health();
  EXPECT_EQ(monitor.samples_taken(), 2u);

  // Every node appears in the rollup, healthy on an unperturbed cluster.
  ClusterHealth health = cluster->health();
  EXPECT_EQ(health.status("net"), HealthStatus::kHealthy);
  EXPECT_EQ(health.status("coordinator"), HealthStatus::kHealthy);
  for (WorkerId w : cluster->worker_ids()) {
    EXPECT_EQ(health.status("worker." + std::to_string(w.value())),
              HealthStatus::kHealthy);
  }
  EXPECT_EQ(health.overall(), HealthStatus::kHealthy);

  // metrics_snapshot namespaces every node's registry without collisions:
  // per-node counters survive under their prefix and workers sum.
  MetricsRegistry snapshot = cluster->metrics_snapshot();
  EXPECT_GT(snapshot.counter("net.messages_sent").value(), 0u);
  EXPECT_EQ(snapshot.counter("coordinator.ingested").value(),
            scenario().trace.detections.size());
  EXPECT_EQ(snapshot.counter("worker.ingested_primary").value(),
            scenario().trace.detections.size());
}

TEST(ClusterHealthWiring, EventCountersReachAlertRules) {
  // A crash bumps the worker's state_losses handle; the health monitor
  // samples that registry, so a rate rule on the event fires.
  auto cluster = make_cluster();
  AlertRule rule = rate_rule("state_loss", "state_losses", 0.0);
  rule.for_samples = 1;
  rule.source_filter = "worker.*";
  cluster->health_monitor().add_rule(rule);
  WorkerId victim = cluster->worker_ids().front();

  cluster->sample_health();
  cluster->advance_time(Duration::millis(500));
  cluster->crash_worker(victim);
  cluster->sample_health();
  EXPECT_TRUE(cluster->health_monitor().is_firing(
      "state_loss", "worker." + std::to_string(victim.value())));
}

TEST(ClusterHealthWiring, SnapshotSumsEventCountersAcrossNodes) {
  auto cluster = make_cluster();
  std::vector<WorkerId> ids = cluster->worker_ids();
  cluster->crash_worker(ids[0]);
  cluster->crash_worker(ids[1]);

  MetricsRegistry snapshot = cluster->metrics_snapshot();
  EXPECT_EQ(snapshot.counter_value("worker.state_losses"), 2u);
  EXPECT_EQ(snapshot.counter_value("coordinator.workers_crashed"), 2u);
  EXPECT_FALSE(snapshot.help("worker.state_losses").empty());
}

TEST(ClusterHealthWiring, TickerSamplesOnSimClock) {
  ClusterConfig config;
  config.health.enabled = true;
  config.health.sample_period = Duration::millis(250);
  auto cluster = make_cluster(config);

  std::uint64_t before = cluster->health_monitor().samples_taken();
  cluster->advance_time(Duration::seconds(2));
  EXPECT_GT(cluster->health_monitor().samples_taken(), before + 3);
}

// ------------------------------------------------------------ chaos: gray

TEST(ChaosHealth, GraySlowWorkerFiresSuspectAndHealingResolves) {
  ClusterConfig config;
  config.health.enabled = true;
  config.health.sample_period = Duration::millis(250);
  auto cluster = make_cluster(config);
  Scenario& s = scenario();

  WorkerId victim = cluster->worker_ids()[1];
  std::string subject = "worker." + std::to_string(victim.value());
  cluster->network().set_slow(NodeId(victim.value()), 40.0);

  auto run_queries = [&](int n) {
    Rng rng(91);
    for (int i = 0; i < n; ++i) {
      Rect region = Rect::centered(
          {rng.uniform(s.world.min.x, s.world.max.x),
           rng.uniform(s.world.min.y, s.world.max.y)},
          rng.uniform(200.0, 600.0));
      cluster->execute(Query::range(cluster->next_query_id(), region,
                                    TimeInterval::all()));
      cluster->advance_time(Duration::millis(100));
    }
  };

  // The coordinator's per-peer stats (hedge wins raced against the slow
  // primary, fragment latency) must indict the victim within a bounded
  // number of samples.
  bool fired = false;
  std::uint64_t sample_budget =
      cluster->health_monitor().samples_taken() + 200;
  while (!fired && cluster->health_monitor().samples_taken() < sample_budget) {
    run_queries(5);
    fired = cluster->health_monitor().is_firing("hedge_win_spike", subject) ||
            cluster->health_monitor().is_firing("latency_burn", subject);
  }
  ASSERT_TRUE(fired) << "gray-slow worker never flagged;\n"
                     << cluster->health_monitor().events().render();
  EXPECT_EQ(cluster->health().status(subject), HealthStatus::kSuspect);
  EXPECT_GE(cluster->health_monitor().events().count("firing"), 1u);

  // Healing: the slowdown clears, traffic continues, the alert resolves and
  // the node returns to healthy.
  cluster->network().clear_slow(NodeId(victim.value()));
  bool resolved = false;
  sample_budget = cluster->health_monitor().samples_taken() + 200;
  while (!resolved &&
         cluster->health_monitor().samples_taken() < sample_budget) {
    run_queries(5);
    resolved =
        !cluster->health_monitor().is_firing("hedge_win_spike", subject) &&
        !cluster->health_monitor().is_firing("latency_burn", subject);
  }
  ASSERT_TRUE(resolved) << cluster->health_monitor().events().render();
  EXPECT_EQ(cluster->health().status(subject), HealthStatus::kHealthy);
  EXPECT_GE(cluster->health_monitor().events().count("resolved"), 1u);

  // The whole episode is visible in the machine-readable snapshot.
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(
      obs::JsonValue::parse(cluster->health_monitor().to_json(), v, &error))
      << error;
  EXPECT_GE(v.at("events").array().size(), 2u);
}

// ----------------------------------------------- chaos: flight recorder

TEST(ChaosHealth, SlowWorkerFreezesPostmortemBundle) {
  ClusterConfig config;
  // Tight SLO so the injected slowdown burns error budget fast, and short
  // windows so the burn-rate series reacts within the test's horizon.
  // Sampling is manual (no ticker): a ticker would sample through the
  // bursty trace replay in make_cluster and freeze an ingest_stall bundle
  // before the first query ever runs.
  config.health.slo_latency_threshold_us = 5'000.0;
  config.health.slo_short_window = Duration::seconds(2);
  config.health.slo_long_window = Duration::seconds(10);
  auto cluster = make_cluster(config);
  Scenario& s = scenario();

  WorkerId victim = cluster->worker_ids()[1];
  cluster->network().set_slow(NodeId(victim.value()), 40.0);

  Rng rng(92);
  std::size_t drip = 0;
  auto run_queries = [&](int n) {
    for (int i = 0; i < n; ++i) {
      // Full-region scans over a random bounded time slice: the time
      // predicate drives the per-row filter kernels (nonzero rows
      // evaluated), and full coverage guarantees a fragment span on the
      // slow partition in every trace.
      double span_us = static_cast<double>(Duration::minutes(3).count_micros());
      auto start = Duration::micros(
          static_cast<std::int64_t>(rng.uniform(0.0, 0.4) * span_us));
      auto len = Duration::micros(
          static_cast<std::int64_t>(rng.uniform(0.3, 0.6) * span_us));
      TimeInterval slice{TimePoint::origin() + start,
                         TimePoint::origin() + start + len};
      cluster->execute(Query::range(cluster->next_query_id(), s.world, slice)
                           .with_tenant(1 + (i % 3)));
      // Keep ingest flowing so the stall rule stays quiet and the bundle's
      // trigger names the actual slow-worker signal.
      for (int d = 0; d < 4; ++d) {
        cluster->ingest(
            s.trace.detections[drip++ % s.trace.detections.size()]);
      }
      cluster->flush_ingest();
      cluster->advance_time(Duration::millis(100));
      cluster->sample_health();
    }
  };

  // Drive traffic until something pages and the recorder freezes a bundle.
  int rounds = 0;
  while (cluster->flight_recorder().total_frozen() == 0 && rounds < 40) {
    run_queries(5);
    ++rounds;
  }
  ASSERT_GT(cluster->flight_recorder().total_frozen(), 0u)
      << cluster->health_monitor().events().render();

  const PostmortemBundle* bundle = cluster->flight_recorder().latest();
  ASSERT_NE(bundle, nullptr);

  // 1. The trigger names the firing rule.
  EXPECT_FALSE(bundle->trigger.rule.empty());
  EXPECT_TRUE(bundle->trigger.kind == "alert" || bundle->trigger.kind == "slo")
      << bundle->trigger.kind;

  // 2. The SLO section carries the burn-rate series.
  obs::JsonValue slo;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(bundle->slo_json, slo, &error)) << error;
  ASSERT_TRUE(slo.is_array());
  ASSERT_FALSE(slo.array().empty());
  bool has_series = false;
  for (const auto& entry : slo.array()) {
    if (entry.has("burn_series") && !entry.at("burn_series").array().empty()) {
      has_series = true;
    }
  }
  EXPECT_TRUE(has_series) << bundle->slo_json;

  // 3. At least one exemplar trace's span tree reaches the slow partition:
  // a fragment span tagged with the victim's node id.
  ASSERT_FALSE(bundle->exemplars_json.empty());
  obs::JsonValue exemplars;
  ASSERT_TRUE(obs::JsonValue::parse(bundle->exemplars_json, exemplars, &error))
      << error;
  ASSERT_FALSE(exemplars.array().empty());
  std::string victim_id = std::to_string(victim.value());
  bool victim_in_span_tree = false;
  for (const auto& ex : exemplars.array()) {
    if (!ex.has("spans")) continue;
    for (const auto& span : ex.at("spans").array()) {
      if (span.has("worker") && span.at("worker").string() == victim_id) {
        victim_in_span_tree = true;
      }
    }
  }
  EXPECT_TRUE(victim_in_span_tree) << bundle->exemplars_json;

  // 4. The cost section's top-K rows name the dominant source: every query
  // was a tenant-tagged range scan, so by_kind leads with "range" and the
  // tenant table is populated.
  obs::JsonValue cost;
  ASSERT_TRUE(obs::JsonValue::parse(bundle->cost_json, cost, &error)) << error;
  ASSERT_TRUE(cost.at("by_kind").is_array());
  ASSERT_FALSE(cost.at("by_kind").array().empty());
  EXPECT_EQ(cost.at("by_kind").array().front().at("key").string(), "range");
  EXPECT_GT(cost.at("by_kind").array().front().at("cost").at("rows_evaluated")
                .number(),
            0.0);
  EXPECT_FALSE(cost.at("by_tenant").array().empty());

  // 5. The bundle round-trips: parse + re-serialize is byte-stable.
  std::string json = bundle->to_json();
  PostmortemBundle parsed;
  ASSERT_TRUE(parse_bundle(json, parsed));
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.trigger.rule, bundle->trigger.rule);
  EXPECT_EQ(parsed.sequence, bundle->sequence);

  // Chaos runs dump the bundle for offline inspection (ci.sh sets this).
  if (const char* path = std::getenv("STCN_BUNDLE_OUT")) {
    std::ofstream out(path);
    out << json << "\n";
  }
}

}  // namespace
}  // namespace stcn
