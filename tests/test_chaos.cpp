// Chaos testing: randomized interleavings of ingest, queries, crashes,
// restarts, and time advances. Invariants checked at every step:
//   * the cluster never returns a detection the oracle doesn't have;
//   * whenever every worker is up and resynced, answers are complete;
//   * during failures, answers remain complete while each partition keeps
//     at least one live replica;
//   * the system never deadlocks (every operation terminates).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, InvariantsHoldUnderRandomOperations) {
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 18;
  tc.mobility.object_count = 15;
  tc.duration = Duration::minutes(5);
  tc.seed = GetParam();
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);

  ClusterConfig config;
  config.worker_count = 5;
  config.coordinator.query_timeout = Duration::millis(20);
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
      config);
  CentralizedIndex oracle(world);

  Rng rng(GetParam() * 7919);
  std::set<WorkerId> down;
  std::size_t cursor = 0;
  std::set<std::uint64_t> ingested_ids;

  auto everything_replicated = [&] {
    // With one worker down and replication 2, some partition may have its
    // only live copy on the dead worker ONLY if both replicas are down.
    if (down.size() >= 2) return false;
    if (down.empty()) return true;
    const PartitionMap& map = cluster.coordinator().partition_map();
    for (std::size_t p = 0; p < map.partition_count(); ++p) {
      bool primary_down = down.contains(map.primary(PartitionId(p)));
      bool backup_down = down.contains(map.backup(PartitionId(p)));
      if (primary_down && backup_down) return false;
    }
    return true;
  };

  for (int step = 0; step < 60; ++step) {
    switch (rng.uniform_index(6)) {
      case 0:
      case 1: {  // ingest a batch
        std::size_t n = std::min<std::size_t>(
            30 + rng.uniform_index(60), trace.detections.size() - cursor);
        if (n == 0) break;
        cluster.ingest_all(std::span<const Detection>(
            trace.detections.data() + cursor, n));
        for (std::size_t i = 0; i < n; ++i) {
          oracle.ingest(trace.detections[cursor + i]);
          ingested_ids.insert(trace.detections[cursor + i].id.value());
        }
        cursor += n;
        break;
      }
      case 2: {  // random range query
        Rect region = Rect::centered(
            {rng.uniform(world.min.x, world.max.x),
             rng.uniform(world.min.y, world.max.y)},
            rng.uniform(50.0, 800.0));
        Query q = Query::range(cluster.next_query_id(), region,
                               TimeInterval::all());
        QueryResult got = cluster.execute(q);
        std::set<std::uint64_t> got_ids;
        for (const Detection& d : got.detections) {
          got_ids.insert(d.id.value());
          // Soundness: never invent detections.
          ASSERT_TRUE(ingested_ids.contains(d.id.value()))
              << "phantom detection at step " << step;
        }
        if (everything_replicated()) {
          QueryResult want = oracle.execute(q);
          std::set<std::uint64_t> want_ids;
          for (const Detection& d : want.detections) {
            want_ids.insert(d.id.value());
          }
          ASSERT_EQ(got_ids, want_ids) << "incomplete at step " << step
                                       << " with " << down.size()
                                       << " workers down";
        }
        break;
      }
      case 3: {  // crash a random up worker (keep at most one down)
        if (!down.empty()) break;
        WorkerId victim(1 + rng.uniform_index(config.worker_count));
        cluster.crash_worker(victim);
        down.insert(victim);
        break;
      }
      case 4: {  // restart a down worker
        if (down.empty()) break;
        WorkerId w = *down.begin();
        cluster.restart_worker(w);
        down.erase(w);
        break;
      }
      case 5: {  // let time pass (ticks, summaries, failure sweeps)
        cluster.advance_time(
            Duration::seconds(1 + static_cast<std::int64_t>(
                                      rng.uniform_index(8))));
        break;
      }
    }
  }

  // Final: restore everything, verify full consistency.
  for (WorkerId w : down) cluster.restart_worker(w);
  Query final_q = Query::range(cluster.next_query_id(), world,
                               TimeInterval::all());
  QueryResult got = cluster.execute(final_q);
  QueryResult want = oracle.execute(final_q);
  std::set<std::uint64_t> got_ids;
  std::set<std::uint64_t> want_ids;
  for (const Detection& d : got.detections) got_ids.insert(d.id.value());
  for (const Detection& d : want.detections) want_ids.insert(d.id.value());
  EXPECT_EQ(got_ids, want_ids) << "final state diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Fabric-fault chaos: drops, duplication, partitions, and gray failures (no
// crashes — the suite above owns those). Core invariant: *no acked detection
// is ever absent from a healthy-cluster answer* — once the reliable channels
// are quiescent (every frame acked, none abandoned) and no partition is
// active, answers must match the oracle exactly.

class FabricChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricChaosTest, NoAckedDetectionLostOnFaultyFabric) {
  TraceConfig tc;
  tc.roads.grid_cols = 6;
  tc.roads.grid_rows = 6;
  tc.cameras.camera_count = 18;
  tc.mobility.object_count = 15;
  tc.duration = Duration::minutes(4);
  tc.seed = GetParam() * 31 + 7;
  Trace trace = TraceGenerator::generate(tc);
  Rect world = trace.roads.bounds(120.0);

  ClusterConfig config;
  config.worker_count = 5;
  // Generous relative to the retransmit RTO (10ms): a transiently dropped
  // query frame should be healed by the channel, not escalate into
  // failover (which permanently degrades the partition map).
  config.coordinator.query_timeout = Duration::millis(200);
  config.network.drop_probability = 0.05;
  config.network.duplicate_probability = 0.02;
  config.network.seed = GetParam() * 13 + 1;
  // Ingest advances virtual time to detection timestamps, so a partition
  // can stay up for tens of virtual seconds; the retransmission ladder must
  // outlive it or the invariant degrades into exhaustion.
  config.reliable.max_attempts = 200;
  Cluster cluster(
      world,
      std::make_unique<SpatialGridStrategy>(world, 3, 3, trace.cameras),
      config);
  CentralizedIndex oracle(world);

  Rng rng(GetParam() * 104729);
  std::size_t cursor = 0;
  std::set<std::uint64_t> ingested_ids;
  bool partition_active = false;
  int partition_age = 0;
  std::optional<NodeId> slow_node;

  auto quiesce = [&] {
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
  };

  auto exhausted_frames = [&] {
    std::uint64_t n =
        cluster.coordinator().metrics().counter_value("retransmit_exhausted");
    for (WorkerId w : cluster.worker_ids()) {
      n += cluster.worker(w).metrics().counter_value("retransmit_exhausted");
    }
    return n;
  };

  auto cut_off = [&](WorkerId victim) {
    // Partition the victim from the coordinator and every other worker.
    std::vector<NodeId> rest{NodeId(1'000'000)};
    for (WorkerId w : cluster.worker_ids()) {
      if (w != victim) rest.push_back(NodeId(w.value()));
    }
    cluster.network().partition({NodeId(victim.value())}, rest);
  };

  for (int step = 0; step < 60; ++step) {
    // Bound how long a partition lives: the retransmission ladder spans
    // ~13 virtual seconds, and the invariant is about *acked* data — an
    // everlasting partition would just exhaust every frame.
    if (partition_active && ++partition_age >= 3) {
      cluster.network().heal();
      partition_active = false;
      cluster.advance_time(Duration::seconds(2));
    }
    switch (rng.uniform_index(8)) {
      case 0:
      case 1: {  // ingest a batch
        std::size_t n = std::min<std::size_t>(
            30 + rng.uniform_index(60), trace.detections.size() - cursor);
        if (n == 0) break;
        cluster.ingest_all(std::span<const Detection>(
            trace.detections.data() + cursor, n));
        for (std::size_t i = 0; i < n; ++i) {
          oracle.ingest(trace.detections[cursor + i]);
          ingested_ids.insert(trace.detections[cursor + i].id.value());
        }
        cursor += n;
        break;
      }
      case 2:
      case 3: {  // random range query
        Rect region = Rect::centered(
            {rng.uniform(world.min.x, world.max.x),
             rng.uniform(world.min.y, world.max.y)},
            rng.uniform(50.0, 800.0));
        Query q = Query::range(cluster.next_query_id(), region,
                               TimeInterval::all());
        if (!partition_active) quiesce();
        QueryResult got = cluster.execute(q);
        std::set<std::uint64_t> got_ids;
        for (const Detection& d : got.detections) {
          got_ids.insert(d.id.value());
          ASSERT_TRUE(ingested_ids.contains(d.id.value()))
              << "phantom detection at step " << step;
        }
        if (!partition_active && exhausted_frames() == 0) {
          QueryResult want = oracle.execute(q);
          std::set<std::uint64_t> want_ids;
          for (const Detection& d : want.detections) {
            want_ids.insert(d.id.value());
          }
          ASSERT_EQ(got_ids, want_ids)
              << "acked detection missing at step " << step;
        }
        break;
      }
      case 4: {  // partition a worker away
        if (partition_active) break;
        WorkerId victim(1 + rng.uniform_index(config.worker_count));
        cut_off(victim);
        partition_active = true;
        partition_age = 0;
        break;
      }
      case 5: {  // heal
        if (!partition_active) break;
        cluster.network().heal();
        partition_active = false;
        cluster.advance_time(Duration::seconds(2));
        break;
      }
      case 6: {  // toggle a gray failure
        if (slow_node) {
          cluster.network().clear_slow(*slow_node);
          slow_node.reset();
        } else {
          NodeId n(1 + rng.uniform_index(config.worker_count));
          cluster.network().set_slow(n, 50.0);
          slow_node = n;
        }
        break;
      }
      case 7: {  // let time pass (ticks, sweeps, retransmissions)
        cluster.advance_time(Duration::seconds(
            1 + static_cast<std::int64_t>(rng.uniform_index(4))));
        break;
      }
    }
  }

  // Partition-then-heal convergence: cut a worker off, ingest THROUGH the
  // partition (frames to the cut worker keep retransmitting), heal, drain.
  if (!partition_active) {
    cut_off(WorkerId(2));
    partition_active = true;
  }
  std::size_t tail = std::min<std::size_t>(
      80, trace.detections.size() - cursor);
  if (tail > 0) {
    cluster.ingest_all(std::span<const Detection>(
        trace.detections.data() + cursor, tail));
    for (std::size_t i = 0; i < tail; ++i) {
      oracle.ingest(trace.detections[cursor + i]);
      ingested_ids.insert(trace.detections[cursor + i].id.value());
    }
    cursor += tail;
  }
  cluster.network().heal();
  if (slow_node) cluster.network().clear_slow(*slow_node);
  quiesce();
  cluster.advance_time(Duration::seconds(5));

  EXPECT_EQ(exhausted_frames(), 0u)
      << "retransmission ladder should outlive every injected partition";
  Query final_q = Query::range(cluster.next_query_id(), world,
                               TimeInterval::all());
  QueryResult got = cluster.execute(final_q);
  QueryResult want = oracle.execute(final_q);
  std::set<std::uint64_t> got_ids;
  std::set<std::uint64_t> want_ids;
  for (const Detection& d : got.detections) got_ids.insert(d.id.value());
  for (const Detection& d : want.detections) want_ids.insert(d.id.value());
  EXPECT_EQ(got_ids, want_ids) << "state diverged after partition healed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricChaosTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace stcn
