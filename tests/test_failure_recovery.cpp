// Failure injection: queries stay correct across worker crashes thanks to
// replication + failover, and restarted workers resync their data.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

struct FailureScenario {
  Trace trace;
  Rect world;

  FailureScenario() {
    TraceConfig c;
    c.roads.grid_cols = 6;
    c.roads.grid_rows = 6;
    c.cameras.camera_count = 20;
    c.mobility.object_count = 20;
    c.duration = Duration::minutes(3);
    c.seed = 555;
    trace = TraceGenerator::generate(c);
    world = trace.roads.bounds(120.0);
  }
};

std::set<std::uint64_t> ids_of(const QueryResult& r) {
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  return ids;
}

ClusterConfig config_with_workers(std::size_t n) {
  ClusterConfig c;
  c.worker_count = n;
  c.network.latency_jitter = Duration::zero();
  c.coordinator.query_timeout = Duration::millis(20);
  // These tests exercise the timeout-driven failover path specifically;
  // hedging would answer from the backups before the timeout ever fires.
  c.coordinator.hedge_queries = false;
  return c;
}

TEST(FailureRecovery, QueriesCorrectAfterCrashViaFailover) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config_with_workers(4));
  cluster.ingest_all(s.trace.detections);

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);

  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  auto expected = ids_of(oracle.execute(q));
  ASSERT_EQ(ids_of(cluster.execute(q)), expected);

  // Crash one worker; the query must still return the complete answer via
  // the promoted backups.
  cluster.crash_worker(WorkerId(2));
  Query q2 = Query::range(cluster.next_query_id(), s.world,
                          TimeInterval::all());
  auto after_crash = ids_of(cluster.execute(q2));
  EXPECT_EQ(after_crash, expected);
  EXPECT_GT(cluster.coordinator().metrics().counter_value("failover_retries"),
            0u);
}

TEST(FailureRecovery, CrashLosesStateRestartResyncsIt) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));
  cluster.ingest_all(s.trace.detections);

  WorkerId victim(1);
  std::size_t before = cluster.worker(victim).stored_detections();
  ASSERT_GT(before, 0u);

  cluster.crash_worker(victim);
  EXPECT_EQ(cluster.worker(victim).stored_detections(), 0u);

  Cluster::RecoveryReport recovery = cluster.restart_worker(victim);
  EXPECT_GT(recovery.duration, Duration::zero());
  EXPECT_TRUE(recovery.completed);
  EXPECT_GT(recovery.partitions_total, 0u);
  EXPECT_EQ(recovery.partitions_recovered + recovery.partitions_failed,
            recovery.partitions_total);
  EXPECT_EQ(recovery.partitions_failed, 0u);
  EXPECT_TRUE(cluster.worker(victim).resync_complete());
  EXPECT_EQ(cluster.worker(victim).stored_detections(), before)
      << "resync must restore every lost detection";
}

TEST(FailureRecovery, QueriesCorrectAfterRestartAndResync) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config_with_workers(4));
  cluster.ingest_all(s.trace.detections);
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);

  cluster.crash_worker(WorkerId(3));
  cluster.restart_worker(WorkerId(3));

  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  EXPECT_EQ(ids_of(cluster.execute(q)), ids_of(oracle.execute(q)));
}

TEST(FailureRecovery, IngestDuringDowntimeSurvivesOnReplicas) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));

  // First half before the crash, second half during downtime.
  std::size_t half = s.trace.detections.size() / 2;
  std::span<const Detection> first(s.trace.detections.data(), half);
  std::span<const Detection> second(s.trace.detections.data() + half,
                                    s.trace.detections.size() - half);
  cluster.ingest_all(first);
  cluster.crash_worker(WorkerId(1));
  // Promote backups so new ingest routes around the dead primary.
  cluster.coordinator().promote_backups_of(WorkerId(1));
  cluster.ingest_all(second);
  cluster.restart_worker(WorkerId(1));

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  EXPECT_EQ(ids_of(cluster.execute(q)), ids_of(oracle.execute(q)));
}

TEST(FailureRecovery, PartialResultsWhenNoReplicaSurvives) {
  FailureScenario s;
  // Single worker: no distinct backup exists, so a crash must surface as a
  // partial (empty) answer rather than a hang.
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(1));
  cluster.ingest_all(s.trace.detections);
  cluster.crash_worker(WorkerId(1));
  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  QueryResult r = cluster.execute(q);
  EXPECT_TRUE(r.detections.empty());
  EXPECT_GT(cluster.coordinator().metrics().counter_value("queries_partial"),
            0u);
}

TEST(FailureRecovery, MultipleSequentialFailures) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config_with_workers(5));
  cluster.ingest_all(s.trace.detections);
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query probe = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  auto expected = ids_of(oracle.execute(probe));

  for (std::uint64_t w = 1; w <= 3; ++w) {
    cluster.crash_worker(WorkerId(w));
    cluster.restart_worker(WorkerId(w));
    Query q = Query::range(cluster.next_query_id(), s.world,
                           TimeInterval::all());
    ASSERT_EQ(ids_of(cluster.execute(q)), expected)
        << "after crash/restart of worker " << w;
  }
}

// --------------------------------------------------------- recovery chaos
//
// Crash/recovery interleavings around the snapshot + replay-log resync
// path. The fixture name is load-bearing: ci.sh re-runs RecoveryChaos.*
// under ASan/UBSan.

/// Restarts `victim` by hand (network heal + routing flip + recovery kick)
/// WITHOUT pumping to completion, so tests can interleave faults and
/// queries while the recovery is in flight.
Coordinator::RecoveryPlan begin_manual_restart(Cluster& cluster,
                                               WorkerId victim) {
  SimNetwork& net = cluster.network();
  net.restart(NodeId(victim.value()));
  cluster.worker(victim).restart_ticks(net);
  cluster.coordinator().clear_suspicion(victim);
  return cluster.coordinator().begin_worker_recovery(victim);
}

/// Pumps until the victim's recovery tasks drain (or `budget` expires).
void pump_recovery(Cluster& cluster, WorkerId victim, Duration budget) {
  TimePoint deadline = cluster.now() + budget;
  while (!cluster.worker(victim).resync_complete() &&
         cluster.now() < deadline) {
    if (!cluster.network().step()) break;
  }
  cluster.pump();  // deliver trailing RecoveryDone messages
}

TEST(RecoveryChaos, CompletenessWhileRestartInFlight) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));
  cluster.ingest_all(s.trace.detections);
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query probe = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  auto expected = ids_of(oracle.execute(probe));

  WorkerId victim(1);
  cluster.crash_worker(victim);
  auto plan = begin_manual_restart(cluster, victim);
  ASSERT_FALSE(plan.specs.empty());
  ASSERT_GT(cluster.coordinator().recovering_count_for(victim), 0u);

  // Wedge the rejoiner behind a partition BEFORE its recovery exchanges go
  // out: routing has flipped, but no data can reach the victim, so every
  // recovering partition must be served entirely by the surviving holder.
  std::vector<NodeId> rest{cluster.coordinator().node_id()};
  for (WorkerId w : cluster.worker_ids()) {
    if (w != victim) rest.push_back(NodeId(w.value()));
  }
  cluster.network().partition({NodeId(victim.value())}, rest);
  cluster.worker(victim).start_recovery(plan.recovery_id, plan.specs, {},
                                        cluster.network());

  std::uint64_t partial0 =
      cluster.coordinator().metrics().counter_value("queries_partial");
  for (int i = 0; i < 5; ++i) {
    Query q = Query::range(cluster.next_query_id(), s.world,
                           TimeInterval::all());
    ASSERT_EQ(ids_of(cluster.execute(q)), expected)
        << "query " << i << " lost data while restart was in flight";
  }
  EXPECT_EQ(cluster.coordinator().metrics().counter_value("queries_partial"),
            partial0)
      << "queries during recovery must be complete, not partial";
  EXPECT_GT(cluster.coordinator().recovering_count_for(victim), 0u)
      << "recovery must still be in flight while the victim is wedged";

  cluster.network().heal();
  pump_recovery(cluster, victim, Duration::seconds(40));
  EXPECT_TRUE(cluster.worker(victim).resync_complete());
  EXPECT_EQ(cluster.worker(victim).recovery_failed_count(), 0u);
  EXPECT_EQ(cluster.coordinator().recovering_count_for(victim), 0u)
      << "RecoveryDone must flip routing back after catch-up";
  Query after = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  EXPECT_EQ(ids_of(cluster.execute(after)), expected);
}

TEST(RecoveryChaos, HolderCrashMidResync) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));
  cluster.ingest_all(s.trace.detections);
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query probe = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  auto expected = ids_of(oracle.execute(probe));

  // Checkpoint everything first: the double fault below must only be able
  // to cost availability, never snapshot-covered data.
  for (WorkerId w : cluster.worker_ids()) {
    cluster.worker(w).take_snapshots(cluster.now());
  }

  WorkerId a(1);
  cluster.crash_worker(a);
  auto plan = begin_manual_restart(cluster, a);
  ASSERT_FALSE(plan.specs.empty());
  NodeId holder_node(0);
  for (const RecoverySpec& spec : plan.specs) {
    if (spec.holder != NodeId(0)) {
      holder_node = spec.holder;
      break;
    }
  }
  ASSERT_NE(holder_node.value(), 0u);
  cluster.worker(a).start_recovery(plan.recovery_id, plan.specs, {},
                                   cluster.network());
  // The replica holder dies before any sync response lands.
  WorkerId b(holder_node.value());
  cluster.crash_worker(b);

  // Pump past the whole retry ladder: exchanges against the dead holder
  // must give up loudly instead of hanging.
  pump_recovery(cluster, a, Duration::seconds(45));
  EXPECT_TRUE(cluster.worker(a).resync_complete());
  EXPECT_GT(cluster.worker(a).recovery_failed_count(), 0u);
  EXPECT_GT(cluster.worker(a).metrics().counter_value("recovery_failed"), 0u);

  // Queries still terminate; partitions with no live holder are flagged
  // partial — never a silent hole.
  std::uint64_t partial0 =
      cluster.coordinator().metrics().counter_value("queries_partial");
  QueryResult during = cluster.execute(Query::range(
      cluster.next_query_id(), s.world, TimeInterval::all()));
  EXPECT_FALSE(during.detections.empty());
  EXPECT_GT(cluster.coordinator().metrics().counter_value("queries_partial"),
            partial0)
      << "missing partitions must surface as a partial result";

  // Bring both workers back; the cluster must converge to the full answer.
  Cluster::RecoveryReport rb = cluster.restart_worker(b);
  EXPECT_TRUE(rb.completed);
  Cluster::RecoveryReport ra = cluster.restart_worker(a);
  EXPECT_TRUE(ra.completed);
  Query final_q = Query::range(cluster.next_query_id(), s.world,
                               TimeInterval::all());
  QueryResult final_r = cluster.execute(final_q);
  auto got = ids_of(final_r);
  EXPECT_EQ(final_r.detections.size(), got.size()) << "duplicate detections";
  EXPECT_EQ(got, expected);
}

TEST(RecoveryChaos, RecoveringWorkerCrashesAgain) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));
  cluster.ingest_all(s.trace.detections);
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query probe = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  auto expected = ids_of(oracle.execute(probe));

  WorkerId a(2);
  cluster.crash_worker(a);
  auto plan = begin_manual_restart(cluster, a);
  ASSERT_FALSE(plan.specs.empty());
  std::uint64_t first_rid = plan.recovery_id;
  cluster.worker(a).start_recovery(plan.recovery_id, plan.specs, {},
                                   cluster.network());
  // Before the catch-up lands, the rejoiner dies again.
  cluster.crash_worker(a);

  // A full restart supersedes the dead plan: a fresh recovery id means any
  // straggler completions from the first incarnation are ignored.
  Cluster::RecoveryReport report = cluster.restart_worker(a);
  EXPECT_TRUE(report.completed);
  EXPECT_GT(
      cluster.coordinator().metrics().counter_value("recoveries_started"),
      0u);
  EXPECT_EQ(cluster.coordinator().recovering_count_for(a), 0u);
  auto plan2_used =
      cluster.coordinator().metrics().counter_value("recovery_done_stale");
  (void)plan2_used;  // stale completions are timing-dependent; just counted
  EXPECT_NE(first_rid, 0u);

  QueryResult final_r = cluster.execute(Query::range(
      cluster.next_query_id(), s.world, TimeInterval::all()));
  auto got = ids_of(final_r);
  EXPECT_EQ(final_r.detections.size(), got.size()) << "duplicate detections";
  EXPECT_EQ(got, expected);
}

TEST(RecoveryChaos, SnapshotInstallRacesLiveStream) {
  FailureScenario s;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config_with_workers(3));

  std::size_t half = s.trace.detections.size() / 2;
  ASSERT_GT(half, 0u);
  cluster.ingest_all(
      std::span<const Detection>(s.trace.detections.data(), half));

  WorkerId victim(2);
  cluster.worker(victim).take_snapshots(cluster.now());
  EXPECT_FALSE(cluster.worker(victim).snapshot_vault().empty());
  cluster.crash_worker(victim);

  auto plan = begin_manual_restart(cluster, victim);
  ASSERT_FALSE(plan.specs.empty());
  cluster.worker(victim).start_recovery(plan.recovery_id, plan.specs, {},
                                        cluster.network());
  // Live ingest resumes immediately: the rejoiner (riding as backup while
  // recovering) receives fresh replica batches racing its snapshot install
  // and delta replay. Dedup must keep the store exact — no dup, no loss.
  cluster.ingest_all(std::span<const Detection>(
      s.trace.detections.data() + half, s.trace.detections.size() - half));
  pump_recovery(cluster, victim, Duration::seconds(40));
  EXPECT_TRUE(cluster.worker(victim).resync_complete());
  EXPECT_EQ(cluster.worker(victim).recovery_failed_count(), 0u);
  EXPECT_EQ(cluster.coordinator().recovering_count_for(victim), 0u);
  EXPECT_GT(
      cluster.worker(victim).metrics().counter_value("snapshots_installed"),
      0u);

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  QueryResult r = cluster.execute(q);
  auto got = ids_of(r);
  EXPECT_EQ(r.detections.size(), got.size()) << "duplicate detections";
  EXPECT_EQ(got, ids_of(oracle.execute(q)));
}

}  // namespace
}  // namespace stcn
