// Failure injection: queries stay correct across worker crashes thanks to
// replication + failover, and restarted workers resync their data.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "baseline/centralized.h"
#include "common/rng.h"
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

/// Sends query fragments straight to one worker, so a test can compare two
/// holders of the same partition answer for answer.
class FragmentProbe final : public NetworkNode {
 public:
  [[nodiscard]] NodeId node_id() const override { return NodeId(4242); }
  void handle_message(const Message& message, SimNetwork&) override {
    if (static_cast<MsgType>(message.type) != MsgType::kQueryResponse) return;
    BinaryReader r(message.payload);
    answer_ = decode_query_response(r).result;
    answered_ = true;
  }
  QueryResult ask(SimNetwork& net, WorkerId w, PartitionId p,
                  const Query& q) {
    answered_ = false;
    net.send({node_id(), NodeId(w.value()),
              static_cast<std::uint32_t>(MsgType::kQueryRequest),
              encode(QueryRequest{++next_request_, 0, q, {p}}), net.now(),
              {}});
    while (!answered_ && net.step()) {
    }
    EXPECT_TRUE(answered_);
    return answer_;
  }

 private:
  QueryResult answer_;
  bool answered_ = false;
  std::uint64_t next_request_ = 0;
};

TEST(RecoveryChaos, RestartAfterCompactionMatchesNeverCrashedReplica) {
  // Tiered storage with age- and fill-triggered demotion and retention
  // compaction firing between snapshot ticks (every 7 s; compaction every
  // 30 s, horizon now − 120 s). Early traffic is sparse, so each compaction
  // evicts fewer rows than the next snapshot interval appends: a vault
  // that extended its image across a compaction instead of rewriting it
  // would silently lose rows.
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 40;
  tc.mobility.object_count = 500;
  tc.detection.redetect_interval = Duration::millis(500);
  tc.duration = Duration::seconds(200);
  tc.seed = 808;
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);
  auto at = [](double seconds) {
    return TimePoint(static_cast<std::int64_t>(seconds * 1e6));
  };
  std::vector<Detection> early, late;
  for (std::size_t i = 0; i < trace.detections.size(); ++i) {
    const Detection& d = trace.detections[i];
    if (d.time < at(60) && i % 10 != 0) continue;  // sparse first minute
    (d.time < at(178) ? early : late).push_back(d);
  }

  ClusterConfig config = config_with_workers(3);
  config.tiered_storage = true;
  config.hot_sealed_blocks = 1;
  config.demote_after = Duration::seconds(20);
  config.retention = Duration::seconds(120);
  config.snapshot_every_ticks = 7;
  Cluster cluster(
      world, std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  SimNetwork& net = cluster.network();
  FragmentProbe probe;
  net.attach(probe);

  WorkerId victim(1);
  const MetricsRegistry& vm = cluster.worker(victim).metrics();
  cluster.ingest_all(early);
  ASSERT_LT(net.now(), at(180));
  // The compaction tick at 180 s evicts rows; the next snapshot is due at
  // 182 s. Crash in between: the vault's image predates the compaction.
  std::uint64_t evicted0 = vm.counter_value("detections_evicted");
  std::uint64_t snaps0 = vm.counter_value("snapshots_taken");
  net.run_until(at(180.5));
  ASSERT_GT(vm.counter_value("detections_evicted"), evicted0);
  ASSERT_EQ(vm.counter_value("snapshots_taken"), snaps0);
  ASSERT_GT(vm.counter_value("compactions"), 1u);
  ASSERT_GT(cluster.worker(victim).metrics().gauge("store.cold_blocks").value(),
            0.0);
  cluster.crash_worker(victim);
  cluster.ingest_all(late);

  // Restart on a 30 s boundary: the victim's compaction clock (reset at
  // 180 s) then fires with the survivors' at 240 s, so both sides evict to
  // the same horizon before they are compared.
  net.run_until(at(210));
  auto plan = begin_manual_restart(cluster, victim);
  ASSERT_FALSE(plan.specs.empty());
  cluster.worker(victim).start_recovery(plan.recovery_id, plan.specs, {}, net);
  pump_recovery(cluster, victim, Duration::seconds(20));
  ASSERT_TRUE(cluster.worker(victim).resync_complete());
  ASSERT_EQ(cluster.worker(victim).recovery_failed_count(), 0u);
  EXPECT_GT(vm.counter_value("snapshots_installed"), 0u);
  std::uint64_t evicted1 = vm.counter_value("detections_evicted");
  net.run_until(at(240.5));
  ASSERT_GT(vm.counter_value("detections_evicted"), evicted1)
      << "the victim's post-restart compaction must have fired";

  std::uint64_t qid = 1'000'000;
  std::size_t compared_rows = 0;
  for (const RecoverySpec& spec : plan.specs) {
    ASSERT_NE(spec.holder, NodeId(0));
    WorkerId replica(spec.holder.value());
    auto both = [&](const Query& q) {
      return std::pair{probe.ask(net, victim, spec.partition, q),
                       probe.ask(net, replica, spec.partition, q)};
    };
    auto [all_v, all_r] =
        both(Query::range(QueryId(++qid), world, TimeInterval::all()));
    EXPECT_EQ(all_v.detections.size(), ids_of(all_v).size())
        << "duplicate detections";
    EXPECT_EQ(ids_of(all_v), ids_of(all_r))
        << "partition " << spec.partition.value();
    compared_rows += all_r.detections.size();
    auto [win_v, win_r] = both(Query::range(
        QueryId(++qid), world, TimeInterval{at(130), at(185)}));
    EXPECT_EQ(ids_of(win_v), ids_of(win_r))
        << "partition " << spec.partition.value();
    if (!all_r.detections.empty()) {
      CameraId cam = all_r.detections.front().camera;
      auto [cam_v, cam_r] = both(
          Query::camera_window(QueryId(++qid), cam, TimeInterval::all()));
      EXPECT_EQ(ids_of(cam_v), ids_of(cam_r))
          << "partition " << spec.partition.value();
    }
    auto [cnt_v, cnt_r] = both(Query::count(QueryId(++qid), world,
                                            TimeInterval::all(),
                                            GroupBy::kCamera));
    EXPECT_EQ(cnt_v.counts, cnt_r.counts)
        << "partition " << spec.partition.value();
  }
  EXPECT_GT(compared_rows, 0u);
}

/// Stands in for a worker on the network under its NodeId, forwarding
/// everything to it, and counts the distinct reliable frames (by epoch and
/// sequence number, so retransmissions count once) that one sender
/// addresses to it.
class FrameCounter final : public NetworkNode {
 public:
  FrameCounter(NetworkNode& inner, NodeId sender)
      : inner_(inner), sender_(sender) {}
  [[nodiscard]] NodeId node_id() const override { return inner_.node_id(); }
  void handle_message(const Message& message, SimNetwork& net) override {
    if (message.from == sender_ &&
        static_cast<MsgType>(message.type) == MsgType::kReliableData) {
      BinaryReader r(message.payload);
      std::uint64_t epoch = r.read_u64();
      frames_.insert({epoch, r.read_u64()});
    }
    inner_.handle_message(message, net);
  }
  void handle_timer(std::uint64_t token, SimNetwork& net) override {
    inner_.handle_timer(token, net);
  }
  [[nodiscard]] std::size_t frames() const { return frames_.size(); }

 private:
  NetworkNode& inner_;
  NodeId sender_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> frames_;
};

TEST(RecoveryChaos, PrunedLogAnswersWithImageInOneExchange) {
  FailureScenario s;
  ClusterConfig config = config_with_workers(3);
  // Every replay log keeps only its newest batch, and no snapshot ticker
  // runs: the victim's one manual snapshot goes stale while the holders
  // prune their logs past its watermark.
  config.replay_log_max_bytes = 1;
  config.snapshot_every_ticks = 0;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config);
  // Four ingest rounds after the snapshot: each ends in a flush, so every
  // partition gets batches past the snapshot's watermark and its holder's
  // floor moves past it.
  const std::size_t n = s.trace.detections.size();
  WorkerId victim(2);
  for (std::size_t round = 0; round < 5; ++round) {
    std::size_t first = n * round / 5, last = n * (round + 1) / 5;
    cluster.ingest_all(std::span<const Detection>(
        s.trace.detections.data() + first, last - first));
    if (round == 0) cluster.worker(victim).take_snapshots(cluster.now());
  }
  ASSERT_FALSE(cluster.worker(victim).snapshot_vault().empty());
  cluster.pump();
  cluster.crash_worker(victim);

  // Every reliable frame the rejoiner sends a peer worker is a recovery
  // request (its other traffic goes to the coordinator).
  SimNetwork& net = cluster.network();
  std::vector<std::unique_ptr<FrameCounter>> holders;
  for (WorkerId w : cluster.worker_ids()) {
    if (w == victim) continue;
    holders.push_back(std::make_unique<FrameCounter>(
        cluster.worker(w), NodeId(victim.value())));
    net.detach(holders.back()->node_id());
    net.attach(*holders.back());
  }
  auto summed = [&](const char* counter) {
    std::uint64_t total = 0;
    for (WorkerId w : cluster.worker_ids()) {
      total += cluster.worker(w).metrics().counter_value(counter);
    }
    return total;
  };
  std::uint64_t served0 =
      summed("delta_syncs_served") + summed("sync_requests_served");
  std::uint64_t fallback0 = summed("delta_sync_fallback_full");

  Cluster::RecoveryReport report = cluster.restart_worker(victim);
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.partitions_total, 0u);
  EXPECT_EQ(report.partitions_recovered, report.partitions_total);
  EXPECT_EQ(
      cluster.worker(victim).metrics().counter_value("snapshots_installed"),
      report.partitions_total);
  // Each delta ask met a pruned log and was answered with the store image.
  EXPECT_EQ(summed("delta_sync_fallback_full") - fallback0,
            report.partitions_total);
  EXPECT_EQ(summed("delta_syncs_served") + summed("sync_requests_served") -
                served0,
            report.partitions_total);
  std::size_t requests = 0;
  for (const auto& h : holders) requests += h->frames();
  EXPECT_EQ(requests, report.partitions_total)
      << "one sync request per partition, no refuse-then-refetch";

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  Query range = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  QueryResult got = cluster.execute(range);
  EXPECT_EQ(got.detections.size(), ids_of(got).size())
      << "duplicate detections";
  EXPECT_EQ(ids_of(got), ids_of(oracle.execute(range)));
  std::set<ObjectId> objects;
  for (const Detection& d : s.trace.detections) objects.insert(d.object);
  for (ObjectId object : objects) {
    Query q = Query::trajectory(cluster.next_query_id(), object,
                                TimeInterval::all());
    QueryResult traj = cluster.execute(q);
    EXPECT_EQ(traj.detections.size(), ids_of(traj).size())
        << "object " << object.value();
    EXPECT_EQ(ids_of(traj), ids_of(oracle.execute(q)))
        << "object " << object.value();
  }

  // Hand the network back to the workers before the proxies go away.
  for (const auto& h : holders) {
    net.detach(h->node_id());
    net.attach(cluster.worker(WorkerId(h->node_id().value())));
  }
}

// ------------------------------------------------------------- replay log

/// An encoded row vector of `n` rows with `dim`-float embeddings.
std::vector<std::uint8_t> rows_of(std::size_t n, std::size_t dim = 0) {
  std::vector<Detection> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].id = DetectionId(i + 1);
    rows[i].appearance.values.assign(dim, 0.25f);
  }
  BinaryWriter w;
  w.write_vector(rows,
                 [](BinaryWriter& bw, const Detection& d) { serialize(bw, d); });
  return w.take();
}

/// (source, pbid) of every entry, in log order.
std::vector<std::pair<std::uint64_t, std::uint64_t>> identities(
    const std::vector<ReplayEntry>& entries) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const ReplayEntry& e : entries) out.emplace_back(e.source, e.pbid);
  return out;
}

// One one-row entry with no embedding costs 16 + 4 + 60 bytes.
constexpr std::size_t kOneRowEntry = 80;

TEST(ReplayLog, PrunesOldestFirstByBytesAndKeepsOneEntry) {
  ReplayLog log;
  log.set_max_bytes(3 * kOneRowEntry);
  for (std::uint64_t pbid = 1; pbid <= 3; ++pbid) log.append(7, pbid, rows_of(1));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.bytes(), 3 * kOneRowEntry);
  EXPECT_TRUE(log.floor().empty());
  log.append(7, 4, rows_of(1));
  EXPECT_EQ(identities(log.collect({})),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {7, 2}, {7, 3}, {7, 4}}));
  EXPECT_EQ(log.floor().at(7), 1u);
  // An entry larger than the whole budget is still kept, alone.
  log.append(9, 1, rows_of(5, 16));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.collect({})[0].source, 9u);
  EXPECT_GT(log.bytes(), 3 * kOneRowEntry);
  EXPECT_EQ(log.floor().at(7), 4u);
}

TEST(ReplayLog, ServesFromItsFloor) {
  ReplayLog log;
  log.set_max_bytes(2 * kOneRowEntry);
  for (std::uint64_t pbid = 1; pbid <= 4; ++pbid) log.append(7, pbid, rows_of(1));
  ASSERT_EQ(log.floor().at(7), 2u);
  EXPECT_TRUE(log.can_serve({{7, 2}}));   // at the floor
  EXPECT_TRUE(log.can_serve({{7, 3}}));   // above it
  EXPECT_FALSE(log.can_serve({{7, 1}}));  // below it
  EXPECT_FALSE(log.can_serve({}));        // a peer with nothing from 7
  // A source the log never pruned does not constrain the answer.
  EXPECT_TRUE(log.can_serve({{7, 2}, {9, 0}}));
  // set_floor max-merges: it raises, never lowers.
  log.set_floor({{7, 5}, {9, 3}});
  log.set_floor({{7, 4}});
  EXPECT_EQ(log.floor(), (Watermark{{7, 5}, {9, 3}}));
  EXPECT_FALSE(log.can_serve({{7, 4}, {9, 3}}));
  EXPECT_TRUE(log.can_serve({{7, 5}, {9, 3}}));
}

TEST(ReplayLog, PrunedUnsequencedEntryDisablesServing) {
  ReplayLog log;
  log.set_max_bytes(2 * kOneRowEntry);
  log.append(7, 0, rows_of(1));
  log.append(7, 1, rows_of(1));
  EXPECT_TRUE(log.can_serve({}));
  log.append(7, 2, rows_of(1));  // prunes the unsequenced entry
  EXPECT_TRUE(log.floor().empty());
  EXPECT_FALSE(log.can_serve({{7, 100}}))
      << "no watermark covers an unsequenced batch";
}

TEST(ReplayLog, CollectsEntriesPastSinceAndEveryUnsequenced) {
  ReplayLog log;
  log.append(7, 1, rows_of(1));
  log.append(7, 2, rows_of(2));
  log.append(9, 1, rows_of(1));
  log.append(7, 0, rows_of(3));
  log.append(9, 2, rows_of(1, 8));
  log.append(7, 3, rows_of(1));
  std::vector<ReplayEntry> past = log.collect({{7, 2}, {9, 1}});
  EXPECT_EQ(identities(past),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {7, 0}, {9, 2}, {7, 3}}));
  EXPECT_EQ(past[0].rows, rows_of(3));
  EXPECT_EQ(past[1].rows, rows_of(1, 8));
  // A source missing from `since` is wholly past it.
  EXPECT_EQ(log.collect({{7, 3}}).size(), 3u);
  EXPECT_EQ(log.collect({}).size(), log.size());
}

TEST(ReplayLog, BytesAreTheEntriesWireBytes) {
  ReplayLog log;
  std::size_t expect = 0;
  for (std::uint64_t pbid = 1; pbid <= 6; ++pbid) {
    std::vector<std::uint8_t> rows = rows_of(pbid, pbid % 3 == 0 ? 0 : 16);
    expect += 16 + rows.size();
    log.append(pbid % 2, pbid, std::move(rows));
  }
  EXPECT_EQ(log.bytes(), expect);
  // What the log counts is what a delta answer ships for its entries.
  BinaryWriter w;
  for (const ReplayEntry& e : log.collect({})) write_replay_entry(w, e);
  EXPECT_EQ(w.size(), log.bytes());
}

// ---------------------------------------------------------- snapshot tail

/// One worker driven directly: ingest batches from two senders under
/// chosen pbids, snapshots, and a SyncRequest without `since`, whose answer
/// carries the worker's watermark and its replay log's collect() at that
/// watermark: the tail a snapshot taken now must hold.
class TailRig final : public NetworkNode {
 public:
  static constexpr NodeId kSelf{4343};

  TailRig() : worker_(WorkerId(1), kSelf, [] {
    WorkerConfig c;
    c.world = {{0, 0}, {1000, 1000}};
    return c;
  }()) {
    net_.attach(worker_);
    net_.attach(*this);
  }

  [[nodiscard]] NodeId node_id() const override { return kSelf; }
  void handle_message(const Message& message, SimNetwork&) override {
    if (static_cast<MsgType>(message.type) != MsgType::kSyncResponse) return;
    BinaryReader r(message.payload);
    answer_ = decode_sync_response(r);
  }

  WorkerNode& worker() { return worker_; }
  SimNetwork& net() { return net_; }

  /// Delivers one batch of `n` rows with ids from `first` (a repeated
  /// delivery passes the same `first`, so its rows deduplicate).
  void ingest(std::uint64_t source, PartitionId p, std::uint64_t pbid,
              std::uint64_t first, std::size_t n = 2) {
    IngestBatch batch{p, true, {}, pbid};
    for (std::size_t i = 0; i < n; ++i) {
      Detection d;
      d.id = DetectionId(first + i);
      d.camera = CameraId(1 + p.value());
      d.object = ObjectId(first % 7);
      d.time = TimePoint::origin() +
               Duration::micros(static_cast<std::int64_t>(first + i));
      d.position = {static_cast<double>((first + i) % 900), 100.0};
      batch.detections.push_back(d);
    }
    net_.send({NodeId(source), worker_.node_id(),
               static_cast<std::uint32_t>(MsgType::kIngestBatch),
               encode(batch), net_.now(), {}});
    net_.run_until_idle();
  }

  /// Snapshots, then checks each recaptured partition's tail against the
  /// worker's collect() at its watermark. Returns how many of the checked
  /// tails were non-empty.
  std::size_t snapshot_and_check() {
    std::map<PartitionId, std::uint64_t> before;
    for (const auto& [p, snap] : worker_.snapshot_vault()) {
      before[p] = snap.version;
    }
    worker_.take_snapshots(net_.now());
    std::size_t nonempty = 0;
    for (const auto& [p, snap] : worker_.snapshot_vault()) {
      auto it = before.find(p);
      if (it != before.end() && it->second == snap.version) continue;
      answer_.reset();
      net_.send({kSelf, worker_.node_id(),
                 static_cast<std::uint32_t>(MsgType::kSyncRequest),
                 encode(SyncRequest{p, std::nullopt}), net_.now(), {}});
      net_.run_until_idle();
      if (!answer_) {
        ADD_FAILURE() << "no sync answer for partition " << p.value();
        continue;
      }
      EXPECT_EQ(snap.watermark, answer_->watermark) << p.value();
      EXPECT_EQ(identities(snap.tail), identities(answer_->entries))
          << "partition " << p.value();
      for (std::size_t i = 0;
           i < std::min(snap.tail.size(), answer_->entries.size()); ++i) {
        EXPECT_EQ(snap.tail[i].rows, answer_->entries[i].rows);
      }
      if (!snap.tail.empty()) ++nonempty;
      ++checked_;
    }
    return nonempty;
  }

  [[nodiscard]] std::size_t checked() const { return checked_; }

 private:
  WorkerNode worker_;
  SimNetwork net_{[] {
    NetworkConfig nc;
    nc.latency_jitter = Duration::zero();
    return nc;
  }()};
  std::optional<SyncResponse> answer_;
  std::size_t checked_ = 0;
};

TEST(SnapshotTail, MatchesCollectUnderOutOfOrderAndDuplicateDelivery) {
  // Two senders, three partitions, 24 batches each, delivered in a
  // locally shuffled order (so gaps open and later fill) with repeats;
  // partition 2 also takes a few unsequenced batches.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TailRig rig;
    Rng rng(seed);
    struct Delivery {
      std::uint64_t source;
      PartitionId partition;
      std::uint64_t pbid;
      std::uint64_t first;
    };
    std::vector<Delivery> order;
    std::uint64_t next_id = 1;
    for (std::uint64_t pbid = 1; pbid <= 24; ++pbid) {
      for (std::uint64_t source : {21, 22}) {
        for (std::uint32_t p = 0; p < 3; ++p) {
          order.push_back({source, PartitionId(p), pbid, next_id});
          next_id += 2;
        }
      }
      if (pbid % 8 == 0) {
        order.push_back({21, PartitionId(2), 0, next_id});
        next_id += 2;
      }
    }
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      std::size_t j = i + rng.uniform_index(std::min<std::size_t>(
                              14, order.size() - i));
      std::swap(order[i], order[j]);
    }
    std::size_t nonempty = 0;
    std::size_t delivered = 0;
    for (const Delivery& d : order) {
      rig.ingest(d.source, d.partition, d.pbid, d.first);
      if (rng.uniform_index(4) == 0) {  // a repeat: same pbid, same rows
        rig.ingest(d.source, d.partition, d.pbid, d.first);
      }
      if (++delivered % 5 == 0) nonempty += rig.snapshot_and_check();
    }
    nonempty += rig.snapshot_and_check();
    // Both sides of the shortcut ran: tails the log walk had to fill, and
    // (every partition once its gaps closed) tails known empty without it.
    EXPECT_GT(nonempty, 0u);
    EXPECT_GT(rig.checked(), nonempty);
    ASSERT_TRUE(rig.worker().snapshot_vault().contains(PartitionId(0)));
    EXPECT_TRUE(rig.worker().snapshot_vault().at(PartitionId(0)).tail.empty());
    EXPECT_FALSE(
        rig.worker().snapshot_vault().at(PartitionId(2)).tail.empty())
        << "unsequenced batches stay in every tail";
  }
}

TEST(SnapshotTail, MatchesCollectAfterInstallThenIngest) {
  TailRig rig;
  PartitionId p(0);
  // pbids 1, 2, 4, 5 from sender 21: 4 and 5 park ahead of the watermark.
  rig.ingest(21, p, 1, 1);
  rig.ingest(21, p, 2, 3);
  rig.ingest(21, p, 4, 7);
  rig.ingest(21, p, 5, 9);
  rig.ingest(22, p, 1, 11);
  EXPECT_EQ(rig.snapshot_and_check(), 1u);
  ASSERT_EQ(rig.worker().snapshot_vault().at(p).tail.size(), 2u);

  // Crash, then rebuild from the vault alone: the tail's pbids are noted
  // again and park ahead of the installed watermark.
  rig.worker().lose_state();
  rig.worker().start_recovery(0, {{p, NodeId(0)}}, {}, rig.net());
  rig.net().run_until_idle();
  EXPECT_EQ(rig.snapshot_and_check(), 1u);
  EXPECT_EQ(rig.worker().snapshot_vault().at(p).tail.size(), 2u);

  // A repeat of a parked batch, then the gap fills: the tail empties.
  rig.ingest(21, p, 5, 9);
  rig.ingest(22, p, 2, 13);
  EXPECT_EQ(rig.snapshot_and_check(), 1u);
  rig.ingest(21, p, 3, 5);
  rig.ingest(21, p, 6, 15);
  EXPECT_EQ(rig.snapshot_and_check(), 0u);
  EXPECT_TRUE(rig.worker().snapshot_vault().at(p).tail.empty());
  EXPECT_EQ(rig.worker().snapshot_vault().at(p).watermark,
            (Watermark{{21, 6}, {22, 2}}));
  EXPECT_EQ(rig.checked(), 4u);
}

// ------------------------------------------------------------- sync image

TEST(SyncImage, TieredImageArrivesCompressedAndAnswersLikeTheOracle) {
  // No snapshot: every partition the victim held comes back as its
  // holder's store image, sealed blocks already cold.
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 40;
  tc.mobility.object_count = 600;
  tc.detection.redetect_interval = Duration::millis(500);
  tc.tick = Duration::millis(500);
  tc.duration = Duration::seconds(90);
  tc.seed = 909;
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);
  ClusterConfig config = config_with_workers(3);
  config.tiered_storage = true;
  config.hot_sealed_blocks = 0;
  config.snapshot_every_ticks = 0;
  Cluster cluster(
      world, std::make_unique<SpatialGridStrategy>(world, 2, 2, trace.cameras),
      config);
  cluster.ingest_all(trace.detections);
  cluster.pump();

  WorkerId victim(1);
  cluster.crash_worker(victim);
  auto plan = begin_manual_restart(cluster, victim);
  ASSERT_FALSE(plan.specs.empty());
  const MetricsRegistry& net = cluster.network().metrics();
  std::uint64_t bytes0 = net.counter_value("bytes_sent");
  cluster.worker(victim).start_recovery(plan.recovery_id, plan.specs, {},
                                        cluster.network());
  pump_recovery(cluster, victim, Duration::seconds(20));
  std::uint64_t wire = net.counter_value("bytes_sent") - bytes0;
  const WorkerNode& w = cluster.worker(victim);
  ASSERT_TRUE(w.resync_complete());
  ASSERT_EQ(w.recovery_failed_count(), 0u);
  EXPECT_EQ(w.metrics().counter_value("snapshots_installed"), 0u);

  // What the partitions would cost on the wire as rows.
  std::size_t cold = 0, rows = 0, row_bytes = 0;
  for (const RecoverySpec& spec : plan.specs) {
    const DetectionStore* mine = w.store_of(spec.partition);
    const DetectionStore* theirs =
        cluster.worker(WorkerId(spec.holder.value())).store_of(spec.partition);
    ASSERT_NE(mine, nullptr);
    ASSERT_NE(theirs, nullptr);
    EXPECT_EQ(mine->size(), theirs->size());
    EXPECT_EQ(mine->cold_block_count(), theirs->cold_block_count())
        << "partition " << spec.partition.value();
    EXPECT_EQ(mine->compressed_bytes(), theirs->compressed_bytes());
    cold += mine->cold_block_count();
    rows += mine->size();
    for (std::size_t i = 0; i < theirs->size(); ++i) {
      row_bytes += theirs->row_wire_size(static_cast<DetectionRef>(i));
    }
  }
  EXPECT_GT(cold, 0u) << "no holder sent a cold block";
  EXPECT_LT(wire, row_bytes) << "the images crossed the wire as rows";
  EXPECT_EQ(w.metrics().counter_value("ingested_resync"), rows);

  CentralizedIndex oracle(world);
  oracle.ingest_all(trace.detections);
  auto same = [&](const Query& q) {
    QueryResult got = cluster.execute(q);
    QueryResult want = oracle.execute(q);
    EXPECT_EQ(got.detections.size(), ids_of(got).size())
        << "duplicate detections";
    EXPECT_EQ(ids_of(got), ids_of(want));
    EXPECT_EQ(got.counts, want.counts);
  };
  TimeInterval all = TimeInterval::all();
  TimeInterval late{TimePoint(static_cast<std::int64_t>(40e6)),
                    TimePoint(static_cast<std::int64_t>(70e6))};
  Point centre = world.center();
  same(Query::range(cluster.next_query_id(), world, all));
  same(Query::range(cluster.next_query_id(), world, late));
  same(Query::circle_query(cluster.next_query_id(), {centre, 150.0}, all));
  same(Query::knn(cluster.next_query_id(), centre, 25, late));
  same(Query::count(cluster.next_query_id(), world, all, GroupBy::kCamera));
  same(Query::heatmap(cluster.next_query_id(), world, 100.0, late));
  same(Query::camera_window(cluster.next_query_id(),
                            trace.detections.front().camera, all));
  same(Query::trajectory(cluster.next_query_id(),
                         trace.detections.back().object, all));
}

TEST(SyncImage, DamagedImageInstallsNothingAndTheTaskRetries) {
  FailureScenario s;
  ClusterConfig config = config_with_workers(3);
  config.snapshot_every_ticks = 0;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 2, 2, s.trace.cameras),
      config);
  cluster.ingest_all(s.trace.detections);
  cluster.pump();
  SimNetwork& net = cluster.network();

  // The answer a holder of `p` gives a rejoiner with no snapshot.
  WorkerId holder(2);
  const WorkerNode& h = cluster.worker(holder);
  PartitionId p(0);
  while (h.store_of(p) == nullptr && p.value() < 64) {
    p = PartitionId(p.value() + 1);
  }
  ASSERT_NE(h.store_of(p), nullptr);
  ASSERT_GT(h.store_of(p)->size(), 0u);
  std::vector<std::uint8_t> valid =
      encode_sync_response(p, h.store_of(p), h.watermark_of(p), {});

  // The victim's request goes to a node nobody answers for, so only the
  // messages handed to it below ever reach it.
  const NodeId silent(4242);
  WorkerNode& w = cluster.worker(WorkerId(1));
  const MetricsRegistry& vm = w.metrics();
  w.lose_state();
  w.start_recovery(77, {{p, silent}}, {}, net);
  auto deliver = [&](std::vector<std::uint8_t> payload) {
    std::uint64_t sent0 = net.metrics().counter_value("messages_sent");
    w.handle_message({silent, w.node_id(),
                      static_cast<std::uint32_t>(MsgType::kSyncResponse),
                      std::move(payload), net.now(), {}},
                     net);
    return net.metrics().counter_value("messages_sent") - sent0;
  };

  // Cut inside the image, and one bit flipped inside its first segment's
  // payload (partition, image flag, magic, count, segment header).
  std::vector<std::uint8_t> truncated(
      valid.begin(), valid.begin() + static_cast<long>(valid.size() / 2));
  std::vector<std::uint8_t> flipped = valid;
  flipped[8 + 1 + 4 + 4 + DetectionStore::kSegmentHeaderBytes + 10] ^= 0x10;
  for (const auto& damaged : {truncated, flipped}) {
    EXPECT_EQ(deliver(damaged), 0u) << "a damaged image sent RecoveryDone";
    EXPECT_EQ(w.store_of(p), nullptr);
    EXPECT_EQ(w.stored_detections(), 0u);
    EXPECT_FALSE(w.resync_complete());
  }
  EXPECT_EQ(vm.counter_value("malformed_message"), 2u);
  EXPECT_EQ(vm.counter_value("ingested_resync"), 0u);
  EXPECT_EQ(w.recovery_recovered_count(), 0u);

  // The task is still open: its retry ladder re-sends the request...
  net.run_until(net.now() + config.resync_retry_timeout +
                Duration::millis(1));
  EXPECT_GT(vm.counter_value("resync_exchange_retries"), 0u);
  EXPECT_FALSE(w.resync_complete());
  // ... and a whole image then completes it.
  EXPECT_GT(deliver(valid), 0u);
  EXPECT_TRUE(w.resync_complete());
  EXPECT_EQ(w.recovery_recovered_count(), 1u);
  ASSERT_NE(w.store_of(p), nullptr);
  EXPECT_EQ(w.store_of(p)->size(), h.store_of(p)->size());
  EXPECT_EQ(vm.counter_value("ingested_resync"), h.store_of(p)->size());
}

}  // namespace
}  // namespace stcn
