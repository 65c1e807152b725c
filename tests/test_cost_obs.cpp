// Cost ledger, exemplar-linked histograms, SLO burn-rate rules, and the
// flight recorder: unit coverage for the sketch's conservation invariant,
// the exemplar export formats, burn-rate math against hand-computed
// windows, and bundle freezing — plus cluster-level
// integration (tenant attribution, EXPLAIN cost stage, slow-log cost
// lines, Prometheus HELP output).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "obs/cost.h"
#include "obs/flight_recorder.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

TimePoint at(int seconds) {
  return TimePoint::origin() + Duration::seconds(seconds);
}

// ------------------------------------------------------------ cost vector

TEST(CostVector, AddAccumulatesEveryAxis) {
  CostVector a;
  a.rows_evaluated = 10;
  a.bytes_in = 100;
  a.hedges = 1;
  CostVector b;
  b.rows_evaluated = 5;
  b.bytes_in = 50;
  b.retransmits = 2;
  a.add(b);
  EXPECT_EQ(a.rows_evaluated, 15u);
  EXPECT_EQ(a.bytes_in, 150u);
  EXPECT_EQ(a.hedges, 1u);
  EXPECT_EQ(a.retransmits, 2u);
}

TEST(CostVector, SummaryMentionsHedgesOnlyWhenPresent) {
  CostVector c;
  c.rows_evaluated = 812;
  c.bytes_out = 40;
  c.bytes_in = 9211;
  std::string quiet = c.summary();
  EXPECT_NE(quiet.find("rows_eval=812"), std::string::npos);
  EXPECT_NE(quiet.find("bytes=40/9211"), std::string::npos);
  EXPECT_EQ(quiet.find("hedges="), std::string::npos);
  c.hedges = 3;
  c.retransmits = 1;
  std::string noisy = c.summary();
  EXPECT_NE(noisy.find("hedges=3"), std::string::npos);
  EXPECT_NE(noisy.find("rtx=1"), std::string::npos);
}

// ---------------------------------------------------------- top-K sketch

TEST(TopKSketch, TracksHeavyHitterExactlyUnderCapacity) {
  TopKSketch sketch(4);
  CostVector unit;
  unit.rows_evaluated = 10;
  for (int i = 0; i < 7; ++i) sketch.update("whale", unit);
  sketch.update("minnow", unit);
  auto rows = sketch.top();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "whale");
  EXPECT_EQ(rows[0].count, 7u);
  EXPECT_EQ(rows[0].error, 0u);
  EXPECT_EQ(rows[0].cost.rows_evaluated, 70u);
  EXPECT_EQ(rows[1].key, "minnow");
}

TEST(TopKSketch, EvictionConservesCountAndCost) {
  // Feed 3x more distinct keys than capacity. Space-saving eviction folds
  // the victim's tally into the newcomer, so the sketch's rows must still
  // sum to everything ever inserted — the invariant ci.sh checks on bench
  // output.
  TopKSketch sketch(4);
  std::uint64_t fed_rows = 0;
  for (int i = 0; i < 12; ++i) {
    CostVector c;
    c.rows_evaluated = static_cast<std::uint64_t>(100 + i);
    fed_rows += c.rows_evaluated;
    sketch.update("key" + std::to_string(i), c);
  }
  auto rows = sketch.top();
  ASSERT_EQ(rows.size(), 4u);
  std::uint64_t total_count = 0;
  std::uint64_t total_rows = 0;
  bool saw_inherited = false;
  for (const auto& r : rows) {
    total_count += r.count;
    total_rows += r.cost.rows_evaluated;
    if (r.error > 0) saw_inherited = true;
    EXPECT_LE(r.error, r.count);
  }
  EXPECT_EQ(total_count, 12u);
  EXPECT_EQ(total_rows, fed_rows);
  EXPECT_TRUE(saw_inherited);  // evictions definitely happened
}

TEST(ResourceLedger, DimensionsSumToTotalsEvenPastCapacity) {
  ResourceLedgerConfig config;
  config.top_k = 3;
  config.recent_rows = 4;
  ResourceLedger ledger(config);
  // 10 tenants through a 3-row sketch; rows must still conserve.
  for (int i = 0; i < 20; ++i) {
    CostRecord rec;
    rec.request_id = static_cast<std::uint64_t>(i);
    rec.kind = (i % 2 == 0) ? "range" : "knn";
    rec.tenant = static_cast<std::uint32_t>(i % 10);
    rec.cost.rows_evaluated = static_cast<std::uint64_t>(50 + i);
    rec.cost.bytes_in = 10;
    ledger.record(rec);
  }
  EXPECT_EQ(ledger.queries(), 20u);
  auto conserve = [&](const TopKSketch& dim) {
    std::uint64_t rows = 0;
    std::uint64_t count = 0;
    for (const auto& r : dim.top()) {
      rows += r.cost.rows_evaluated;
      count += r.count;
    }
    EXPECT_EQ(rows, ledger.totals().rows_evaluated);
    EXPECT_EQ(count, ledger.queries());
  };
  conserve(ledger.by_kind());
  conserve(ledger.by_tenant());
  EXPECT_EQ(ledger.recent().size(), 4u);  // ring kept the newest only

  // Totals mirror into the registry for the Prometheus path.
  auto it = ledger.metrics().counters().find("rows_evaluated");
  ASSERT_NE(it, ledger.metrics().counters().end());
  EXPECT_EQ(it->second->value(), ledger.totals().rows_evaluated);

  // JSON export parses and carries all three dimensions.
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(ledger.to_json(), v, &error)) << error;
  EXPECT_EQ(v.at("queries").number(), 20.0);
  EXPECT_EQ(v.at("by_kind").array().size(), 2u);
  EXPECT_LE(v.at("by_tenant").array().size(), 3u);
  EXPECT_EQ(v.at("recent").array().size(), 4u);
}

TEST(ResourceLedger, CountQueriesCarryNoCameraAttribution) {
  ResourceLedger ledger;
  CostRecord rec;
  rec.kind = "count";
  rec.cost.rows_evaluated = 5;
  ledger.record(rec);  // hottest_camera defaults to kNoCamera
  EXPECT_EQ(ledger.by_camera().size(), 0u);
  EXPECT_EQ(ledger.by_kind().size(), 1u);
}

// -------------------------------------------------------------- exemplars

TEST(Exemplars, BucketKeepsMostRecentTraceAndExportsBothFormats) {
  MetricsRegistry reg;
  LatencyHistogram& h =
      reg.histogram("query_latency_us", "End-to-end query latency");
  h.observe(700.0);
  h.set_exemplar(700.0, 41, "rows_eval=1");
  h.observe(900.0);
  h.set_exemplar(900.0, 42, "rows_eval=812 bytes=40/9211");

  // 700 and 900 land in the same log2 bucket; the newer pin wins.
  const Exemplar* e = h.exemplar(h.bucket_index(900.0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->trace_id, 42u);
  EXPECT_DOUBLE_EQ(e->value, 900.0);
  EXPECT_EQ(e->summary, "rows_eval=812 bytes=40/9211");
  EXPECT_EQ(h.exemplar_count(), 1u);

  // Prometheus: HELP line plus OpenMetrics exemplar annotation.
  std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# HELP stcn_query_latency_us End-to-end query latency"),
            std::string::npos);
  EXPECT_NE(prom.find("# {trace_id=\"42\"} 900"), std::string::npos);

  // JSON: exemplars round-trip through metrics_registry_from_json.
  MetricsRegistry back;
  ASSERT_TRUE(metrics_registry_from_json(reg.to_json(), back));
  auto it = back.histograms().find("query_latency_us");
  ASSERT_NE(it, back.histograms().end());
  const Exemplar* rt = it->second->exemplar(it->second->bucket_index(900.0));
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->trace_id, 42u);
  EXPECT_EQ(rt->summary, "rows_eval=812 bytes=40/9211");
}

TEST(Exemplars, CountAtOrBelowInterpolatesWithinBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.observe(1000.0);  // bucket [512, 1024)
  EXPECT_DOUBLE_EQ(h.count_at_or_below(2048.0), 100.0);
  EXPECT_DOUBLE_EQ(h.count_at_or_below(100.0), 0.0);
  // Inside the bucket: linear interpolation, monotone in the threshold.
  double lo = h.count_at_or_below(600.0);
  double hi = h.count_at_or_below(900.0);
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, 100.0);
  EXPECT_LT(lo, hi);
}

// ------------------------------------------------- SLO burn-rate rules

// An SLO is a burn-rate AlertRule: the monitor keeps its (good, total)
// rings and fires it through the shared hysteresis.
AlertRule slo_rule(std::string name, MetricKind kind, std::string metric) {
  AlertRule rule;
  rule.name = std::move(name);
  rule.kind = kind;
  rule.metric = std::move(metric);
  rule.short_window = Duration::seconds(5);
  rule.long_window = Duration::seconds(20);
  rule.threshold = 1.0;
  return rule;
}

struct SloHarness {
  MetricsRegistry reg;
  Counter& total;
  Counter& bad;
  HealthMonitor monitor;

  SloHarness()
      : total(reg.counter("queries_submitted")),
        bad(reg.counter("queries_partial")),
        monitor(HealthMonitorConfig{64, 256}) {
    monitor.add_source("coordinator", &reg);
    AlertRule rule =
        slo_rule("slo:avail", MetricKind::kCounterBurn, "queries_submitted");
    rule.bad_metric = "queries_partial";
    rule.objective = 0.99;  // 1% error budget
    rule.for_samples = 2;
    rule.resolve_samples = 2;
    monitor.add_rule(rule);
  }

  [[nodiscard]] const SloState& slo() const { return monitor.slos().at(0); }
};

TEST(SloRule, BurnRateMatchesHandComputedWindow) {
  SloHarness x;
  // 100 queries/second, all good: burn 0.
  for (int t = 0; t <= 10; ++t) {
    x.total.add(100);
    x.monitor.sample(at(t));
  }
  ASSERT_EQ(x.monitor.slos().size(), 1u);
  EXPECT_EQ(x.slo().name(), "avail");
  EXPECT_DOUBLE_EQ(x.slo().burn_short.back(), 0.0);
  EXPECT_FALSE(x.monitor.is_firing("slo:avail"));

  // 10% of traffic goes bad: error rate 0.1 against a 1% budget is a
  // burn rate of 10 in the short window.
  for (int t = 11; t <= 16; ++t) {
    x.total.add(100);
    x.bad.add(10);
    x.monitor.sample(at(t));
  }
  EXPECT_NEAR(x.slo().burn_short.back(), 10.0, 1.0);
  EXPECT_GT(x.slo().burn_long.back(), 1.0);
  // min(short, long) crossed 1.0 for >= 2 samples: the rule fires with the
  // monitor's hysteresis, indicting its source under the metric slo.avail.
  EXPECT_TRUE(x.monitor.is_firing("slo:avail", "coordinator"));
  ASSERT_EQ(x.monitor.alerts().size(), 1u);
  EXPECT_EQ(x.monitor.alerts().front()->metric, "slo.avail");

  // Traffic heals; the short window clears first, and once the long
  // window drains the alert resolves.
  for (int t = 17; t <= 45; ++t) {
    x.total.add(100);
    x.monitor.sample(at(t));
  }
  EXPECT_DOUBLE_EQ(x.slo().burn_short.back(), 0.0);
  EXPECT_FALSE(x.monitor.is_firing("slo:avail"));
  EXPECT_GE(x.monitor.events().count("resolved", "slo:avail"), 1u);

  // The burn series ring retained the episode for the flight recorder.
  const TimeSeries& burn = x.slo().burn_short;
  double peak = 0.0;
  for (std::size_t i = 0; i < burn.size(); ++i) {
    peak = std::max(peak, burn.at(i));
  }
  EXPECT_GT(peak, 5.0);
}

TEST(SloRule, LatencySloCountsSlowFractionAgainstObjective) {
  MetricsRegistry reg;
  LatencyHistogram& lat = reg.histogram("query_latency_us");
  HealthMonitor monitor(HealthMonitorConfig{64, 256});
  monitor.add_source("coordinator", &reg);
  AlertRule rule =
      slo_rule("slo:latency", MetricKind::kHistogramBurn, "query_latency_us");
  rule.bad_above = 4096.0;  // a bucket boundary: no interpolation
  rule.objective = 0.90;    // 10% may be slow
  monitor.add_rule(rule);

  // All fast: no burn.
  for (int t = 0; t <= 6; ++t) {
    for (int i = 0; i < 50; ++i) lat.observe(1000.0);
    monitor.sample(at(t));
  }
  ASSERT_EQ(monitor.slos().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor.slos()[0].burn_short.back(), 0.0);

  // Half the traffic goes slow: error rate 0.5 against a 0.1 budget → 5.
  for (int t = 7; t <= 12; ++t) {
    for (int i = 0; i < 25; ++i) lat.observe(1000.0);
    for (int i = 0; i < 25; ++i) lat.observe(100'000.0);
    monitor.sample(at(t));
  }
  EXPECT_NEAR(monitor.slos()[0].burn_short.back(), 5.0, 0.5);
  EXPECT_TRUE(monitor.is_firing("slo:latency"));
}

TEST(SloRule, MissingSourceReportsNothingAndNeverFires) {
  HealthMonitor monitor(HealthMonitorConfig{8, 256});
  AlertRule rule = slo_rule("slo:ghost", MetricKind::kCounterBurn, "nope");
  rule.bad_metric = "nada";
  monitor.add_rule(rule);
  for (int t = 0; t < 5; ++t) monitor.sample(at(t));
  // A source without the metrics is no better than no source at all.
  MetricsRegistry empty;
  monitor.add_source("coordinator", &empty);
  for (int t = 5; t < 10; ++t) monitor.sample(at(t));

  EXPECT_TRUE(monitor.slos().empty());
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_FALSE(monitor.is_firing("slo:ghost"));
  obs::JsonWriter w;
  monitor.append_slo_json(w);
  EXPECT_EQ(w.take(), "[]");
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, FrameRingEvictsOldestAndBundleCapHolds) {
  FlightRecorderConfig config;
  config.frame_capacity = 3;
  config.max_bundles = 2;
  FlightRecorder rec(config);
  for (int i = 0; i < 5; ++i) {
    rec.record_frame(at(i), "{\"i\":" + std::to_string(i) + "}");
  }
  ASSERT_EQ(rec.frames().size(), 3u);
  EXPECT_EQ(rec.frames().front().data_json, "{\"i\":2}");
  EXPECT_EQ(rec.frames().back().data_json, "{\"i\":4}");

  for (int i = 0; i < 4; ++i) {
    FlightTrigger t;
    t.kind = "alert";
    t.rule = "rule" + std::to_string(i);
    rec.freeze(at(10 + i), t, {});
  }
  EXPECT_EQ(rec.total_frozen(), 4u);
  ASSERT_EQ(rec.bundles().size(), 2u);  // capped, oldest dropped
  EXPECT_EQ(rec.bundles().front().trigger.rule, "rule2");
  ASSERT_NE(rec.latest(), nullptr);
  EXPECT_EQ(rec.latest()->trigger.rule, "rule3");
  // Sequence numbers keep counting even as old bundles fall off.
  EXPECT_EQ(rec.latest()->sequence, 4u);
}

TEST(FlightRecorder, BundleKeepsSectionsVerbatim) {
  FlightRecorder rec;
  rec.record_frame(at(1), "{\"queries\":10,\"firing\":0}");
  FlightTrigger t;
  t.kind = "slo";
  t.rule = "slo:query_latency";
  t.subject = "coordinator";
  t.severity = "degraded";
  t.value = 14.5;
  t.threshold = 1.0;
  // Keys out of order and a trailing-zero fraction: nothing rewrites them.
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"slo", "[{\"name\":\"query_latency\",\"burn\":14.50}]"},
      {"cost", "{\"queries\":10,\"by_tenant\":[]}"},
      {"exemplars", "[{\"trace_id\":42,\"bucket\":11}]"},
      {"events", "[{\"kind\":\"firing\",\"rule\":\"slo:query_latency\"}]"},
      {"config", "{\"worker_count\":4}"},
  };
  PostmortemSections s;
  s.slo_json = sections[0].second;
  s.cost_json = sections[1].second;
  s.exemplars_json = sections[2].second;
  s.events_json = sections[3].second;
  s.config_json = sections[4].second;
  const PostmortemBundle& bundle = rec.freeze(at(2), t, std::move(s));
  EXPECT_EQ(bundle.slo_json, sections[0].second);
  EXPECT_EQ(bundle.config_json, sections[4].second);

  std::string json = bundle.to_json();
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(json, parsed, &error)) << error;
  EXPECT_EQ(parsed.at("trigger").at("rule").string(), "slo:query_latency");
  EXPECT_DOUBLE_EQ(parsed.at("trigger").at("value").number(), 14.5);
  EXPECT_EQ(parsed.at("frozen_at_us").number(),
            static_cast<double>(at(2).micros_since_origin()));
  for (const auto& [key, raw] : sections) {
    EXPECT_NE(json.find("\"" + key + "\":" + raw), std::string::npos) << key;
  }
  EXPECT_FALSE(parsed.has("slow_queries"));  // empty sections are omitted
  EXPECT_EQ(parsed.at("frames").array().size(), 1u);
}

// -------------------------------------------------- cluster integration

struct Scenario {
  Trace trace;
  Rect world;

  Scenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 4;
          c.roads.grid_rows = 4;
          c.cameras.camera_count = 12;
          c.mobility.object_count = 12;
          c.duration = Duration::minutes(2);
          c.seed = 4242;
          return c;
        }())),
        world(trace.roads.bounds(120.0)) {}
};

Scenario& scenario() {
  static Scenario s;
  return s;
}

// A bounded time window over the full region forces the scan through the
// per-row filter kernels (an unbounded window over full bounds takes the
// zone fast path and evaluates zero rows), so the ledger sees real work.
TimeInterval kernel_window() {
  return {TimePoint::origin(), TimePoint::origin() + Duration::seconds(70)};
}

std::unique_ptr<Cluster> make_cluster(ClusterConfig config = {}) {
  Scenario& s = scenario();
  config.worker_count = 3;
  auto cluster = std::make_unique<Cluster>(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config);
  cluster->ingest_all(s.trace.detections);
  return cluster;
}

TEST(CostLedgerCluster, AttributesTenantsAndConservesAcrossDimensions) {
  auto cluster = make_cluster();
  Scenario& s = scenario();
  TimeInterval window = kernel_window();
  for (int i = 0; i < 9; ++i) {
    cluster->execute(
        Query::range(cluster->next_query_id(), s.world, window)
            .with_tenant(static_cast<std::uint32_t>(1 + i % 3)));
  }
  const ResourceLedger& ledger = cluster->cost_ledger();
  EXPECT_EQ(ledger.queries(), 9u);
  EXPECT_GT(ledger.totals().rows_evaluated, 0u);
  EXPECT_GT(ledger.totals().bytes_in, 0u);
  EXPECT_GT(ledger.totals().fragments, 0u);

  // Every tenant got billed, and the per-tenant rows sum to the totals.
  ASSERT_EQ(ledger.by_tenant().size(), 3u);
  std::uint64_t tenant_rows = 0;
  for (const auto& row : ledger.by_tenant().top()) {
    tenant_rows += row.cost.rows_evaluated;
    EXPECT_EQ(row.count, 3u);
  }
  EXPECT_EQ(tenant_rows, ledger.totals().rows_evaluated);

  // Range answers carry camera detail, so the camera dimension populated.
  EXPECT_GT(ledger.by_camera().size(), 0u);

  // The ledger rides the metrics snapshot under "cost." with helps intact.
  MetricsRegistry snapshot = cluster->metrics_snapshot();
  auto it = snapshot.counters().find("cost.rows_evaluated");
  ASSERT_NE(it, snapshot.counters().end());
  EXPECT_EQ(it->second->value(), ledger.totals().rows_evaluated);
  std::string prom = snapshot.to_prometheus();
  EXPECT_NE(prom.find("# HELP stcn_cost_rows_evaluated"), std::string::npos);
}

TEST(CostLedgerCluster, HottestCameraTieGoesToTheSmallestId) {
  // Cameras 9 and 4 tie at three rows each and camera 2 has one; rows
  // arrive in per-worker fragments. The smaller of the tied ids wins.
  Rect world{{0, 0}, {1000, 1000}};
  ClusterConfig config;
  config.worker_count = 3;
  Cluster cluster(world, std::make_unique<HashStrategy>(4), config);
  std::vector<Detection> rows;
  for (std::uint64_t camera : {9, 4, 9, 2, 4, 9, 4}) {
    Detection d;
    d.id = DetectionId(rows.size() + 1);
    d.camera = CameraId(camera);
    d.object = ObjectId(rows.size() % 3 + 1);
    d.time = TimePoint::origin() + Duration::seconds(1 + rows.size());
    d.position = {100.0 + 100.0 * static_cast<double>(rows.size()), 500.0};
    rows.push_back(d);
  }
  cluster.ingest_all(rows);
  QueryResult r = cluster.execute(
      Query::range(cluster.next_query_id(), world, TimeInterval::all()));
  ASSERT_EQ(r.detections.size(), rows.size());
  const ResourceLedger& ledger = cluster.cost_ledger();
  ASSERT_EQ(ledger.recent().size(), 1u);
  EXPECT_EQ(ledger.recent().back().hottest_camera, 4u);
  ASSERT_EQ(ledger.by_camera().top().size(), 1u);
  EXPECT_EQ(ledger.by_camera().top()[0].key, "camera:4");
}

TEST(CostLedgerCluster, ExemplarsLinkLatencyBucketsToTraces) {
  auto cluster = make_cluster();
  Scenario& s = scenario();
  for (int i = 0; i < 5; ++i) {
    cluster->execute(
        Query::range(cluster->next_query_id(), s.world, kernel_window()));
  }
  const auto& hists = cluster->coordinator().metrics().histograms();
  auto it = hists.find("query_latency_us");
  ASSERT_NE(it, hists.end());
  ASSERT_GT(it->second->exemplar_count(), 0u);
  // Every pinned exemplar names a retained trace and carries a cost line.
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const Exemplar* e = it->second->exemplar(b);
    if (e == nullptr) continue;
    EXPECT_TRUE(cluster->tracer().has_trace(e->trace_id));
    EXPECT_NE(e->summary.find("rows_eval="), std::string::npos);
  }
}

TEST(CostLedgerCluster, ExplainCarriesCostStageAndSlowLogCarriesCostLine) {
  ClusterConfig config;
  config.coordinator.slow_query_threshold = Duration::micros(1);  // log all
  auto cluster = make_cluster(config);
  Scenario& s = scenario();
  auto explained = cluster->explain(
      Query::range(cluster->next_query_id(), s.world, kernel_window())
          .with_tenant(7));
  auto stages = explained.profile.stages_named("query.cost");
  ASSERT_EQ(stages.size(), 1u);
  bool has_summary = false;
  bool has_tenant = false;
  for (const auto& [k, v] : stages[0]->notes) {
    if (k == "summary") has_summary = v.find("rows_eval=") != std::string::npos;
    if (k == "tenant") has_tenant = (v == "7");
  }
  EXPECT_TRUE(has_summary);
  EXPECT_TRUE(has_tenant);

  const SlowQueryLog& log = cluster->coordinator().slow_query_log();
  ASSERT_GT(log.entries().size(), 0u);
  EXPECT_NE(log.entries().back().cost.find("rows_eval="), std::string::npos);
  EXPECT_NE(log.render().find("cost: rows_eval="), std::string::npos);
  EXPECT_NE(log.to_json().find("\"cost\""), std::string::npos);
}

TEST(CostLedgerCluster, HealthSamplingRecordsFramesAndSlosStayQuiet) {
  // Manual sampling (no ticker): the generated trace replay has natural
  // multi-second gaps that would legitimately trip the ingest_stall rule
  // mid-replay, and this test wants a genuinely healthy steady state.
  auto cluster = make_cluster();
  Scenario& s = scenario();
  // Keep the ingest stream flowing between samples so the stall rule sees
  // steady traffic once armed.
  std::size_t drip = 0;
  for (int i = 0; i < 4; ++i) {
    cluster->execute(
        Query::range(cluster->next_query_id(), s.world, kernel_window()));
    for (int d = 0; d < 8; ++d) {
      cluster->ingest(s.trace.detections[drip++ % s.trace.detections.size()]);
    }
    cluster->flush_ingest();
    cluster->advance_time(Duration::millis(300));
    cluster->sample_health();
  }
  // Default SLOs installed as monitor rules and evaluated on the sim clock.
  const HealthMonitor& monitor = cluster->health_monitor();
  for (const char* name : {"slo:query_availability", "slo:query_latency"}) {
    EXPECT_TRUE(std::any_of(monitor.rules().begin(), monitor.rules().end(),
                            [&](const AlertRule& r) { return r.name == name; }))
        << name;
  }
  ASSERT_EQ(monitor.slos().size(), 2u);
  for (const SloState& slo : monitor.slos()) {
    EXPECT_FALSE(monitor.is_firing(slo.rule))
        << slo.rule << " burning on a healthy cluster";
  }
  // The recorder is buffering frames but froze nothing.
  EXPECT_GT(cluster->flight_recorder().frames().size(), 0u);
  EXPECT_EQ(cluster->flight_recorder().total_frozen(), 0u);
  // Frames parse and carry the rollup fields the postmortem relies on.
  obs::JsonValue frame;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(
      cluster->flight_recorder().frames().back().data_json, frame, &error))
      << error;
  EXPECT_TRUE(frame.has("health"));
  EXPECT_TRUE(frame.has("slo_burn"));
  EXPECT_EQ(frame.at("queries").number(), 4.0);
}

}  // namespace
}  // namespace stcn
