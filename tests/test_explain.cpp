// EXPLAIN/ANALYZE: query profiles must show, per planning/execution stage,
// what the planner estimated, what actually came back, and what each
// pruning step ruled out — for distributed queries (partition selection,
// per-worker scans), planner-assisted k-NN (radius guesses, rounds), and
// multi-hop path reconstruction (transition-cone pruning per hop).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct Scenario {
  Trace trace;
  Rect world;

  Scenario()
      : trace(TraceGenerator::generate([] {
          TraceConfig c;
          c.roads.grid_cols = 8;
          c.roads.grid_rows = 8;
          c.cameras.camera_count = 30;
          c.mobility.object_count = 25;
          c.duration = Duration::minutes(5);
          c.seed = 4242;
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
  config.network.latency_jitter = Duration::zero();
  auto cluster = std::make_unique<Cluster>(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster->ingest_all(s.trace.detections);
  return cluster;
}

/// Feeds the selectivity estimator with observed query results so later
/// plans carry meaningful estimates.
void warm_estimator(Cluster& cluster) {
  Scenario& s = scenario();
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    Rect region = Rect::centered(
        {rng.uniform(s.world.min.x, s.world.max.x),
         rng.uniform(s.world.min.y, s.world.max.y)},
        rng.uniform(100.0, 500.0));
    cluster.execute(
        Query::range(cluster.next_query_id(), region, TimeInterval::all()));
  }
}

/// A region guaranteed to contain detections: centered on one of them.
Rect populated_region(double half_extent = 150.0) {
  const Detection& d =
      scenario().trace.detections[scenario().trace.detections.size() / 2];
  return Rect::centered(d.position, half_extent);
}

// ------------------------------------------------------------- unit level

TEST(QError, RatioIsSymmetricAndSmoothed) {
  EXPECT_DOUBLE_EQ(q_error(0.0, 0.0), 1.0);  // perfect (with +1 smoothing)
  EXPECT_DOUBLE_EQ(q_error(9.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(q_error(4.0, 9.0), 2.0);  // symmetric
  EXPECT_GT(q_error(0.0, 99.0), 10.0);       // zero estimate stays finite
}

TEST(QError, ClampedAndDefinedOnDegenerateInputs) {
  // Nonzero estimate against an actual of 0: finite, defined, clamped.
  EXPECT_DOUBLE_EQ(q_error(99.0, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(q_error(1e12, 0.0), kMaxQError);
  EXPECT_DOUBLE_EQ(q_error(0.0, 1e12), kMaxQError);
  // The -1 "not recorded" sentinel must not drive a denominator to 0
  // (est=-1 ⇒ e=0 ⇒ a/e = inf before the clamp).
  EXPECT_DOUBLE_EQ(q_error(-1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(q_error(-1.0, 9.0), 10.0);
  EXPECT_DOUBLE_EQ(q_error(9.0, -1.0), 10.0);
  // Hostile floats stay inside [1, kMaxQError].
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(q_error(inf, 10.0), kMaxQError);
  EXPECT_DOUBLE_EQ(q_error(std::nan(""), 10.0), kMaxQError);
  EXPECT_GE(q_error(123.0, 456.0), 1.0);
  EXPECT_LE(q_error(123.0, 456.0), kMaxQError);
}

TEST(QueryProfiler, InactiveProfilerSwallowsWrites) {
  QueryProfiler profiler;
  EXPECT_FALSE(profiler.active());
  std::size_t h = profiler.open_stage("ghost", TimePoint::origin());
  EXPECT_EQ(h, QueryProfiler::kNoStage);
  profiler.stage(h).considered = 42;  // writes land in the scratch sink
  profiler.close_stage(h, TimePoint::origin());
}

TEST(QueryProfiler, RecordsNestedStagesAndFinishes) {
  QueryProfiler profiler;
  TimePoint t0 = TimePoint::origin();
  profiler.begin("query kind=range", t0);
  ASSERT_TRUE(profiler.active());

  std::size_t outer = profiler.open_stage("plan", t0);
  profiler.stage(outer).estimated = 100.0;
  profiler.push_depth();
  std::size_t inner =
      profiler.open_stage("scan", t0 + Duration::millis(1));
  profiler.stage(inner).actual = 37;
  profiler.stage(inner).pruned = 12;
  profiler.close_stage(inner, t0 + Duration::millis(3));
  profiler.pop_depth();
  profiler.stage(outer).actual = 37;
  profiler.close_stage(outer, t0 + Duration::millis(3));

  QueryProfile profile = profiler.finish(t0 + Duration::millis(4));
  EXPECT_FALSE(profiler.active());
  ASSERT_EQ(profile.stages.size(), 2u);
  EXPECT_EQ(profile.stages[0].depth, 0);
  EXPECT_EQ(profile.stages[1].depth, 1);
  EXPECT_EQ(profile.stages[1].sim_time, Duration::millis(2));
  EXPECT_EQ(profile.latency, Duration::millis(4));
  EXPECT_DOUBLE_EQ(profile.worst_q_error(),
                   q_error(100.0, 37.0));
  EXPECT_EQ(profile.total_pruned(), 12u);
  ASSERT_NE(profile.stage("scan"), nullptr);
  EXPECT_EQ(profile.stage("missing"), nullptr);

  std::string text = profile.render();
  EXPECT_NE(text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(profile.to_json(), v, &error)) << error;
  EXPECT_EQ(v.at("stages").array().size(), 2u);
}

TEST(QueryProfiler, BoundsStageCountAndCountsDrops) {
  QueryProfiler profiler;
  TimePoint t0 = TimePoint::origin();
  profiler.begin("deep search", t0);
  for (std::size_t i = 0; i < QueryProfiler::kMaxStages + 10; ++i) {
    std::size_t h = profiler.open_stage("s", t0);
    profiler.stage(h).considered = i;  // overflow writes hit the scratch
    profiler.close_stage(h, t0);
  }
  QueryProfile profile = profiler.finish(t0);
  EXPECT_EQ(profile.stages.size(), QueryProfiler::kMaxStages);
  EXPECT_EQ(profile.stages_dropped, 10u);
}

// --------------------------------------------------- distributed queries

TEST(Explain, RangeQueryRecordsEstimateSelectionAndScans) {
  auto cluster = make_cluster();
  warm_estimator(*cluster);

  Rect region = populated_region();
  Cluster::ExplainResult out = cluster->explain(
      Query::range(cluster->next_query_id(), region, TimeInterval::all()));
  ASSERT_FALSE(out.result.detections.empty());
  const QueryProfile& profile = out.profile;
  EXPECT_NE(profile.description.find("range"), std::string::npos);
  EXPECT_GT(profile.latency, Duration::zero());
  EXPECT_NE(profile.request_id, 0u);

  // Selectivity estimate: warmed estimator recorded both sides.
  const ExplainStage* estimate = profile.stage("selectivity.estimate");
  ASSERT_NE(estimate, nullptr);
  EXPECT_TRUE(estimate->has_estimate());
  ASSERT_TRUE(estimate->has_actual());
  EXPECT_EQ(estimate->actual,
            static_cast<std::int64_t>(out.result.detections.size()));
  EXPECT_GE(profile.worst_q_error(), 1.0);

  // Partition selection: a small region on a 3x3 spatial grid must prune.
  const ExplainStage* selection = profile.stage("partition_selection");
  ASSERT_NE(selection, nullptr);
  EXPECT_GT(selection->considered, 0u);
  EXPECT_GT(selection->actual, 0);
  EXPECT_GT(selection->pruned, 0u);
  EXPECT_EQ(selection->considered,
            static_cast<std::uint64_t>(selection->actual) + selection->pruned);

  // Worker scans: rows scanned, rows returned, measured wall time.
  auto scans = profile.stages_named("worker.scan");
  ASSERT_FALSE(scans.empty());
  std::uint64_t scanned = 0;
  std::int64_t returned = 0;
  for (const ExplainStage* s : scans) {
    scanned += s->considered;
    returned += s->actual >= 0 ? s->actual : 0;
    EXPECT_GE(s->wall_us, 0);
    EXPECT_GE(s->sim_time, Duration::zero());
  }
  EXPECT_GT(scanned, 0u);
  EXPECT_EQ(returned,
            static_cast<std::int64_t>(out.result.detections.size()));

  // Renders and serializes.
  std::string text = profile.render();
  EXPECT_NE(text.find("partition_selection"), std::string::npos);
  EXPECT_NE(text.find("worker.scan"), std::string::npos);
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(profile.to_json(), v, &error)) << error;

  // Estimate-error histogram lit by the warm-up executes and this query.
  EXPECT_GT(
      cluster->coordinator().metrics().histogram("estimate_q_error_x100")
          .count(),
      0u);
}

TEST(Explain, KnnShowsPlanRoundsWithNestedSelection) {
  auto cluster = make_cluster();
  warm_estimator(*cluster);

  const Detection& anchor =
      scenario().trace.detections[scenario().trace.detections.size() / 3];
  Cluster::ExplainResult out = cluster->explain(Query::knn(
      cluster->next_query_id(), anchor.position, 5, TimeInterval::all()));
  EXPECT_EQ(out.result.detections.size(), 5u);
  const QueryProfile& profile = out.profile;

  // The planner stage records its radius guesses and final estimate.
  const ExplainStage* plan = profile.stage("knn.plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->considered, 0u);  // radius guesses examined
  EXPECT_TRUE(plan->has_estimate());

  // At least one round; the first records estimated vs actual.
  auto rounds = profile.stages_named("knn.round");
  ASSERT_FALSE(rounds.empty());
  EXPECT_TRUE(rounds.front()->has_estimate());
  EXPECT_TRUE(rounds.front()->has_actual());
  EXPECT_GT(rounds.front()->actual, 0);

  // The round's fragments nest under it: partition selection recorded one
  // level deeper, and a bounded search circle prunes partitions.
  auto selections = profile.stages_named("partition_selection");
  ASSERT_FALSE(selections.empty());
  bool nested = false;
  std::uint64_t pruned = 0;
  for (const ExplainStage* s : selections) {
    nested = nested || s->depth > rounds.front()->depth;
    pruned += s->pruned;
  }
  EXPECT_TRUE(nested);
  EXPECT_GT(pruned, 0u);
}

TEST(Explain, ProfileAttachesToSlowQueryLog) {
  ClusterConfig config;
  config.coordinator.slow_query_threshold = Duration::zero();
  auto cluster = make_cluster(config);

  Cluster::ExplainResult out = cluster->explain(Query::range(
      cluster->next_query_id(), populated_region(), TimeInterval::all()));

  const SlowQueryLog& log = cluster->coordinator().slow_query_log();
  ASSERT_GT(log.size(), 0u);
  const SlowQueryLog::Entry& entry = log.entries().back();
  EXPECT_EQ(entry.request_id, out.profile.request_id);
  ASSERT_TRUE(entry.profile.has_value());
  EXPECT_EQ(entry.profile->stages.size(), out.profile.stages.size());
  // The rendered log interleaves the span tree with the EXPLAIN tree.
  std::string text = log.render();
  EXPECT_NE(text.find("partition_selection"), std::string::npos);
}

// ------------------------------------------------- path reconstruction

/// A probe whose object reappears at several distinct cameras.
const Detection* multi_hop_probe(const Trace& trace) {
  std::unordered_map<std::uint64_t, std::vector<const Detection*>> by_object;
  for (const Detection& d : trace.detections) {
    by_object[d.object.value()].push_back(&d);
  }
  for (const auto& [obj, dets] : by_object) {
    if (dets.size() < 4) continue;
    std::set<std::uint64_t> cameras;
    for (const Detection* d : dets) cameras.insert(d->camera.value());
    if (cameras.size() >= 3) return dets.front();
  }
  return nullptr;
}

TEST(Explain, PathReconstructionProfilesConePruningPerHop) {
  auto cluster = make_cluster();
  Scenario& s = scenario();

  TransitionGraph graph;
  graph.learn(s.trace.detections);
  ReidParams reid_params;
  reid_params.cone.max_hops = 2;
  reid_params.cone.min_edge_count = 2;
  reid_params.min_similarity = 0.6;
  reid_params.max_matches = 5;
  ReidEngine engine(graph, reid_params);

  PathParams path_params;
  path_params.beam_width = 3;
  path_params.max_path_length = 5;
  path_params.hop_horizon = Duration::minutes(2);

  DistributedCandidateSource source(*cluster, s.trace.cameras);
  const Detection* probe = multi_hop_probe(s.trace);
  ASSERT_NE(probe, nullptr);

  Cluster::ExplainPathResult out =
      cluster->explain_path(engine, path_params, *probe, source);
  ASSERT_FALSE(out.path.hops.empty());
  EXPECT_EQ(out.path.hops.front().id, probe->id);
  const QueryProfile& profile = out.profile;
  EXPECT_NE(profile.description.find("path"), std::string::npos);

  // Each beam depth records a hop stage: candidates examined vs extensions.
  auto hops = profile.stages_named("path.hop");
  ASSERT_FALSE(hops.empty());
  EXPECT_GT(hops.front()->considered, 0u);

  // Transition-cone pruning: the cone kept a subset of the network's
  // cameras, nested under the hop that ran it.
  auto cones = profile.stages_named("reid.cone");
  ASSERT_FALSE(cones.empty());
  const ExplainStage* cone = cones.front();
  EXPECT_EQ(cone->considered, s.trace.cameras.size());
  EXPECT_GT(cone->pruned, 0u);
  EXPECT_GT(cone->depth, hops.front()->depth);

  // Candidate scoring recorded scanned vs kept.
  auto scans = profile.stages_named("reid.scan");
  ASSERT_FALSE(scans.empty());
  EXPECT_GE(scans.front()->considered,
            static_cast<std::uint64_t>(scans.front()->actual));

  // The distributed camera-window fetches nest under the re-id scan.
  bool deep_selection = false;
  for (const ExplainStage* sel : profile.stages_named("partition_selection")) {
    deep_selection = deep_selection || sel->depth >= 2;
  }
  EXPECT_TRUE(deep_selection);

  EXPECT_GT(profile.total_pruned(), 0u);
  EXPECT_FALSE(profile.render().empty());
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::parse(profile.to_json(), v, &error)) << error;
}

}  // namespace
}  // namespace stcn
