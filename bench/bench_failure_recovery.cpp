// E9 — Failure recovery (figure "failure recovery").
//
// Part 1: workers crash (losing in-memory state) and restart; restart
// triggers resync of their partitions from surviving replicas. Reported per
// failure count: virtual recovery time, resynced detections, resync bytes
// on the wire, and whether whole-world queries stayed complete throughout
// (via failover to backups). Expected shape: recovery time scales with the
// data a worker holds; answers stay complete as long as one replica
// survives.
//
// Part 2: lossy-fabric sweep. The fabric drops 0–10% of messages (and
// duplicates ~1%); the reliable channel retransmits until every ingest
// batch and query frame is acked. Reported per drop rate: ingest goodput
// (unique detections stored per virtual second), query completeness vs a
// centralized oracle, and the transport/hedging counters. Expected shape:
// 100% completeness at every drop rate — drops cost retransmissions and
// virtual time, never data.
#include <cinttypes>
#include <memory>
#include <set>

#include "baseline/centralized.h"
#include "bench_util.h"
#include "core/framework.h"
#include "partition/strategies.h"

namespace stcn {
namespace {

/// Pumps the network until every node's reliable channel has no frames in
/// flight (acked or abandoned), so "stored" below means "acked".
void quiesce(Cluster& cluster) {
  auto settled = [&] {
    if (cluster.coordinator().unacked_frames() != 0) return false;
    for (WorkerId w : cluster.worker_ids()) {
      if (cluster.worker(w).unacked_frames() != 0) return false;
    }
    return true;
  };
  while (!settled()) {
    if (!cluster.network().step()) break;
  }
}

/// Sums one counter across the coordinator and all workers.
std::uint64_t cluster_counter(Cluster& cluster, const char* name) {
  std::uint64_t total = cluster.coordinator().metrics().counter_value(name);
  for (WorkerId w : cluster.worker_ids()) {
    total += cluster.worker(w).metrics().counter_value(name);
  }
  return total;
}

void run_drop_sweep(const Trace& trace, const Rect& world,
                    const std::set<std::uint64_t>& expected,
                    bench::BenchReport& report) {
  bench::print_header(
      "E9b lossy fabric sweep",
      "8 workers, 1% duplication, reliable transport + hedged queries");
  std::printf("%8s %12s %14s %12s %10s %8s %8s\n", "drop", "goodput_eps",
              "completeness", "retransmits", "dup_supp", "hedged", "won");

  std::vector<double> drops = bench::quick()
                                  ? std::vector<double>{0.0, 0.05}
                                  : std::vector<double>{0.0, 0.02, 0.05, 0.10};
  for (double drop : drops) {
    ClusterConfig config;
    config.worker_count = 8;
    config.network.drop_probability = drop;
    config.network.duplicate_probability = 0.01;
    config.network.seed = 42;
    // Generous relative to the 10ms retransmit RTO: transient drops heal
    // inside the channel instead of escalating into failover.
    config.coordinator.query_timeout = Duration::millis(200);
    // Ingest advances virtual time to detection timestamps, so frames must
    // survive a long retransmission ladder.
    config.reliable.max_attempts = 200;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);

    TimePoint t0 = cluster.now();
    cluster.ingest_all(trace.detections);
    quiesce(cluster);
    double elapsed_s = (cluster.now() - t0).to_seconds();

    QueryResult result = cluster.execute(
        Query::range(cluster.next_query_id(), world, TimeInterval::all()));
    std::set<std::uint64_t> got;
    for (const Detection& d : result.detections) got.insert(d.id.value());
    std::size_t present = 0;
    for (std::uint64_t id : expected) present += got.count(id);
    double completeness =
        expected.empty()
            ? 100.0
            : 100.0 * static_cast<double>(present) /
                  static_cast<double>(expected.size());
    double goodput =
        elapsed_s > 0.0 ? static_cast<double>(present) / elapsed_s : 0.0;

    std::printf("%7.0f%% %12.1f %13.2f%% %12" PRIu64 " %10" PRIu64
                " %8" PRIu64 " %8" PRIu64 "\n",
                drop * 100.0, goodput, completeness,
                cluster_counter(cluster, "retransmits"),
                cluster_counter(cluster, "dup_suppressed"),
                cluster_counter(cluster, "hedges_issued"),
                cluster_counter(cluster, "hedges_won"));
    std::string suffix =
        "_drop" + std::to_string(static_cast<int>(drop * 100.0));
    report.set("completeness_pct" + suffix, completeness);
    report.set("goodput_eps" + suffix, goodput);
    report.set("retransmits" + suffix,
               static_cast<double>(cluster_counter(cluster, "retransmits")));
    if (drop == drops.back()) {
      report.add_registry(cluster.metrics_snapshot());
    }
  }
  std::printf(
      "\nexpected shape: completeness pinned at 100%% across the sweep;\n"
      "drops surface as retransmissions (latency), never as lost data.\n");
}

/// Gray-failure health monitoring: a worker turns slow (not dead — it still
/// answers, late), the continuous health monitor must flag it `suspect`
/// from the coordinator's per-peer signals, and healing must resolve the
/// alert. The full monitor snapshot lands in the report ("health" section).
void run_gray_health(const Trace& trace, const Rect& world,
                     bench::BenchReport& report) {
  bench::print_header(
      "E9c gray-failure health monitoring",
      "one worker 40x slow; rule-based alerting on the sim clock");

  ClusterConfig config;
  config.worker_count = 8;
  config.health.enabled = true;
  config.health.sample_period = Duration::millis(250);
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);

  WorkerId victim = cluster.worker_ids()[1];
  std::string subject = "worker." + std::to_string(victim.value());
  HealthMonitor& monitor = cluster.health_monitor();

  auto victim_flagged = [&] {
    return monitor.is_firing("hedge_win_spike", subject) ||
           monitor.is_firing("latency_burn", subject);
  };
  auto run_queries = [&](int n) {
    Rng rng(19);
    for (int i = 0; i < n; ++i) {
      Rect region = Rect::centered(
          {rng.uniform(world.min.x, world.max.x),
           rng.uniform(world.min.y, world.max.y)},
          rng.uniform(200.0, 800.0));
      (void)cluster.execute(Query::range(cluster.next_query_id(), region,
                                         TimeInterval::all()));
      cluster.advance_time(Duration::millis(100));
    }
  };

  cluster.network().set_slow(NodeId(victim.value()), 40.0);
  std::uint64_t fire_budget = monitor.samples_taken() + 200;
  std::uint64_t fired_at = 0;
  while (!victim_flagged() && monitor.samples_taken() < fire_budget) {
    run_queries(5);
  }
  bool fired = victim_flagged();
  fired_at = monitor.samples_taken();
  bool suspect =
      cluster.health().status(subject) == HealthStatus::kSuspect;

  cluster.network().clear_slow(NodeId(victim.value()));
  std::uint64_t resolve_budget = monitor.samples_taken() + 200;
  while (victim_flagged() && monitor.samples_taken() < resolve_budget) {
    run_queries(5);
  }
  bool resolved = !victim_flagged() &&
                  cluster.health().status(subject) == HealthStatus::kHealthy;

  std::printf("victim=%s  alert fired: %s (sample %" PRIu64
              ", suspect: %s)  resolved after heal: %s\n",
              subject.c_str(), fired ? "yes" : "NO", fired_at,
              suspect ? "yes" : "NO", resolved ? "yes" : "NO");
  std::printf("%s", monitor.events().render().c_str());
  std::printf(
      "expected shape: a suspect alert fires within a bounded number of\n"
      "samples of the slowdown and resolves shortly after healing.\n");

  report.set("health_gray_alert_fired", fired ? 1.0 : 0.0);
  report.set("health_gray_victim_suspect", suspect ? 1.0 : 0.0);
  report.set("health_gray_alert_resolved", resolved ? 1.0 : 0.0);
  report.set("health_samples", static_cast<double>(monitor.samples_taken()));
  report.set("health_events",
             static_cast<double>(monitor.events().total()));
  report.add_section("health", monitor.to_json());
}

/// E9d — recovery cost vs snapshot age. A restarted worker installs its
/// last snapshot and delta-resyncs only the post-watermark tail from the
/// surviving holder's replay log; the fresher the snapshot, the less data
/// is replayed. The no-snapshot column is the full-resync baseline every
/// snapshot age must beat (bytes and replayed rows).
void run_snapshot_age(bench::BenchReport& report) {
  // Denser than the shared scenario: the tiered row only differs from the
  // raw one if hot partitions seal (and demote) full 4096-row blocks, so
  // the snapshot vault actually carries compressed cold blocks.
  TraceConfig tc = bench::scenario(
      1.0, bench::quick() ? Duration::minutes(2) : Duration::minutes(4));
  tc.mobility.object_count = 900;
  tc.mobility.hotspot_fraction = 0.5;
  tc.detection.redetect_interval = Duration::millis(500);
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);
  std::set<std::uint64_t> expected;
  for (const Detection& d : trace.detections) expected.insert(d.id.value());

  bench::print_header(
      "E9d recovery vs snapshot age",
      "snapshot install + replay-log delta resync vs full re-copy");
  std::printf("%zu detections, hotspot mobility (denser than E9a-c)\n",
              trace.detections.size());
  std::printf("%10s %16s %14s %14s %14s %12s\n", "snap_age",
              "recovery_virt_ms", "replayed", "resync_bytes", "snap_bytes",
              "complete?");

  // The tiered row repeats the freshest-snapshot case with compressed cold
  // blocks: snapshots of demoted partitions carry encoded blocks, so the
  // vault shrinks while recovery stays complete.
  struct Case {
    double age;        // seconds before crash; < 0 means no snapshot
    bool tiered;
    const char* label;
    const char* suffix;
  };
  constexpr double kNoSnapshot = -1.0;
  std::vector<Case> cases =
      bench::quick()
          ? std::vector<Case>{{0.0, false, "0s", "_age0"},
                              {0.0, true, "0s+tier", "_age0_tiered"},
                              {5.0, false, "5s", "_age5"},
                              {kNoSnapshot, false, "none", "_nosnap"}}
          : std::vector<Case>{{0.0, false, "0s", "_age0"},
                              {0.0, true, "0s+tier", "_age0_tiered"},
                              {5.0, false, "5s", "_age5"},
                              {30.0, false, "30s", "_age30"},
                              {kNoSnapshot, false, "none", "_nosnap"}};
  TimePoint end_time = trace.detections.back().time;

  // Crash the worker that holds the most rows: partition placement is
  // deterministic, so probing once picks the same worker every case, and a
  // loaded victim is the one whose partitions seal blocks under tiering.
  WorkerId victim(1);
  {
    ClusterConfig probe_config;
    probe_config.worker_count = 8;
    Cluster probe(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        probe_config);
    probe.ingest_all(trace.detections);
    std::size_t best = 0;
    for (std::uint32_t w = 1; w <= probe_config.worker_count; ++w) {
      std::size_t rows = probe.worker(WorkerId(w)).stored_detections();
      if (rows > best) {
        best = rows;
        victim = WorkerId(w);
      }
    }
  }

  for (const Case& c : cases) {
    double age = c.age;
    ClusterConfig config;
    config.worker_count = 8;
    config.coordinator.query_timeout = Duration::millis(20);
    // Snapshots are taken manually so the age at crash time is exact, and
    // the replay log is sized to retain the whole run (no pruning), so the
    // delta path is always serveable and the comparison isolates age.
    config.snapshot_every_ticks = 0;
    config.replay_log_max_bytes = 64 * 1024 * 1024;
    config.tiered_storage = c.tiered;
    config.hot_sealed_blocks = 0;
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);

    std::uint64_t snap_bytes = 0;
    if (age >= 0.0) {
      TimePoint cut =
          end_time - Duration::seconds(static_cast<std::int64_t>(age));
      std::size_t split = 0;
      while (split < trace.detections.size() &&
             trace.detections[split].time <= cut) {
        ++split;
      }
      cluster.ingest_all(
          std::span<const Detection>(trace.detections.data(), split));
      quiesce(cluster);
      cluster.worker(victim).take_snapshots(cluster.now());
      snap_bytes = static_cast<std::uint64_t>(
          cluster.worker(victim).metrics().gauge("snapshot_bytes").value());
      cluster.ingest_all(std::span<const Detection>(
          trace.detections.data() + split, trace.detections.size() - split));
    } else {
      cluster.ingest_all(trace.detections);
    }
    quiesce(cluster);

    const MetricsRegistry& net = cluster.network().metrics();
    const MetricsRegistry& vm = cluster.worker(victim).metrics();
    std::uint64_t bytes0 = net.counter_value("bytes_sent");
    cluster.crash_worker(victim);
    Cluster::RecoveryReport rep = cluster.restart_worker(victim);
    std::uint64_t bytes = net.counter_value("bytes_sent") - bytes0;
    std::uint64_t replayed = vm.counter_value("replayed_detections") +
                             vm.counter_value("ingested_resync");

    QueryResult r = cluster.execute(
        Query::range(cluster.next_query_id(), world, TimeInterval::all()));
    std::set<std::uint64_t> got;
    for (const Detection& d : r.detections) got.insert(d.id.value());
    bool complete = rep.completed && got == expected;

    std::printf("%10s %16.2f %14" PRIu64 " %14" PRIu64 " %14" PRIu64
                " %12s\n",
                c.label, rep.duration.to_seconds() * 1000.0, replayed, bytes,
                snap_bytes, complete ? "yes" : "NO");
    std::string suffix(c.suffix);
    report.set("e9d_recovery_ms" + suffix,
               rep.duration.to_seconds() * 1000.0);
    report.set("e9d_bytes" + suffix, static_cast<double>(bytes));
    report.set("e9d_replayed" + suffix, static_cast<double>(replayed));
    report.set("e9d_snapshot_bytes" + suffix,
               static_cast<double>(snap_bytes));
    report.set("e9d_complete" + suffix, complete ? 1.0 : 0.0);
  }
  std::printf(
      "\nexpected shape: replayed rows and resync bytes grow with snapshot\n"
      "age; every snapshot age beats the no-snapshot (full resync) column,\n"
      "and the tiered row shrinks the snapshot vault (compressed cold\n"
      "blocks) without losing completeness.\n");
}

void run() {
  TraceConfig tc = bench::scenario(bench::quick() ? 0.5 : 1.5,
                                   bench::quick() ? Duration::minutes(1)
                                                  : Duration::minutes(4));
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(150.0);

  CentralizedIndex oracle(world);
  oracle.ingest_all(trace.detections);
  std::set<std::uint64_t> expected;
  for (const Detection& d : trace.detections) expected.insert(d.id.value());

  bench::print_header(
      "E9 failure recovery",
      "8 workers, replication factor 2, sequential crash/restart cycles");
  std::printf("%10s %16s %16s %16s %12s\n", "failures", "recovery_virt_ms",
              "resynced_events", "resync_bytes", "complete?");

  bench::BenchReport report("failure_recovery");
  report.set("detections", static_cast<double>(trace.detections.size()));
  std::vector<std::size_t> failure_counts =
      bench::quick() ? std::vector<std::size_t>{1}
                     : std::vector<std::size_t>{1, 2, 4};
  for (std::size_t failures : failure_counts) {
    ClusterConfig config;
    config.worker_count = 8;
    config.coordinator.query_timeout = Duration::millis(20);
    Cluster cluster(
        world,
        std::make_unique<SpatialGridStrategy>(world, 4, 4, trace.cameras),
        config);
    cluster.ingest_all(trace.detections);

    double recovery_ms = 0.0;
    std::uint64_t resynced = 0;
    const MetricsRegistry& net = cluster.network().metrics();
    std::uint64_t bytes0 = net.counter_value("bytes_sent");
    bool all_complete = true;

    for (std::size_t f = 0; f < failures; ++f) {
      WorkerId victim(1 + f);
      cluster.crash_worker(victim);

      // Query during downtime: failover must keep the answer complete.
      QueryResult during = cluster.execute(Query::range(
          cluster.next_query_id(), world, TimeInterval::all()));
      std::set<std::uint64_t> got;
      for (const Detection& d : during.detections) got.insert(d.id.value());
      all_complete = all_complete && (got == expected);

      Cluster::RecoveryReport recovery = cluster.restart_worker(victim);
      all_complete = all_complete && recovery.completed;
      recovery_ms += recovery.duration.to_seconds() * 1000.0;
      resynced +=
          cluster.worker(victim).metrics().counter_value("ingested_resync");

      // Query after recovery.
      QueryResult after = cluster.execute(Query::range(
          cluster.next_query_id(), world, TimeInterval::all()));
      got.clear();
      for (const Detection& d : after.detections) got.insert(d.id.value());
      all_complete = all_complete && (got == expected);
    }
    std::uint64_t resync_bytes = net.counter_value("bytes_sent") - bytes0;
    std::printf("%10zu %16.2f %16" PRIu64 " %16" PRIu64 " %12s\n", failures,
                recovery_ms / static_cast<double>(failures),
                resynced / failures, resync_bytes / failures,
                all_complete ? "yes" : "NO");
    std::string suffix = "_f" + std::to_string(failures);
    report.set("recovery_virt_ms" + suffix,
               recovery_ms / static_cast<double>(failures));
    report.set("complete" + suffix, all_complete ? 1.0 : 0.0);
  }
  std::printf(
      "\nexpected shape: bounded recovery (proportional to per-worker\n"
      "data), complete answers throughout thanks to failover + resync.\n");

  run_drop_sweep(trace, world, expected, report);
  run_gray_health(trace, world, report);
  run_snapshot_age(report);
  report.write();
}

}  // namespace
}  // namespace stcn

int main(int argc, char** argv) {
  stcn::bench::parse_args(argc, argv);
  stcn::run();
  return 0;
}
