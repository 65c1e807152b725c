// Reliable channel: exactly-once delivery over a faulty fabric, and the
// end-to-end behaviours it enables — lossless ingest under drops, hedged
// queries masking gray failures, and heartbeat resumption after restarts.
#include "net/reliable_channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baseline/centralized.h"
#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace stcn {
namespace {

// ------------------------------------------------------------- unit layer

/// Endpoint with a channel: unwraps DATA frames, records inner messages.
class ChannelNode final : public NetworkNode {
 public:
  explicit ChannelNode(NodeId id, ReliableChannelConfig config = {})
      : id_(id), channel_(id, metrics_, config) {}

  [[nodiscard]] NodeId node_id() const override { return id_; }

  void handle_message(const Message& message, SimNetwork& network) override {
    if (message.type == 12) {
      if (auto inner = channel_.on_data(message, network)) {
        delivered.push_back(*inner);
      }
      return;
    }
    if (message.type == 13) {
      channel_.on_ack(message);
      return;
    }
  }

  void handle_timer(std::uint64_t token, SimNetwork& network) override {
    if (channel_.owns_timer(token)) channel_.handle_timer(token, network);
  }

  ReliableChannel& channel() { return channel_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  std::vector<Message> delivered;

 private:
  NodeId id_;
  MetricsRegistry metrics_;
  ReliableChannel channel_;
};

TEST(ReliableChannel, DeliversExactlyOnceUnderHeavyLoss) {
  NetworkConfig nc;
  nc.drop_probability = 0.5;
  nc.seed = 11;
  SimNetwork net(nc);
  ChannelNode a(NodeId(1));
  ChannelNode b(NodeId(2));
  net.attach(a);
  net.attach(b);

  for (std::uint8_t i = 0; i < 50; ++i) {
    a.channel().send(NodeId(2), 100 + i, {i}, net);
  }
  net.run_until_idle();

  ASSERT_EQ(b.delivered.size(), 50u);
  std::set<std::uint32_t> types;
  for (const Message& m : b.delivered) types.insert(m.type);
  EXPECT_EQ(types.size(), 50u);  // no duplicates reached the application
  EXPECT_EQ(a.channel().unacked(), 0u);
  EXPECT_GT(a.metrics().counter_value("retransmits"), 0u);
}

TEST(ReliableChannel, FabricDuplicationSuppressed) {
  NetworkConfig nc;
  nc.latency_jitter = Duration::zero();
  nc.duplicate_probability = 1.0;
  SimNetwork net(nc);
  ChannelNode a(NodeId(1));
  ChannelNode b(NodeId(2));
  net.attach(a);
  net.attach(b);

  for (std::uint8_t i = 0; i < 10; ++i) {
    a.channel().send(NodeId(2), 100 + i, {i}, net);
  }
  net.run_until_idle();

  EXPECT_EQ(b.delivered.size(), 10u);
  EXPECT_GT(b.metrics().counter_value("dup_suppressed"), 0u);
  EXPECT_EQ(a.channel().unacked(), 0u);
}

TEST(ReliableChannel, ResetRotatesEpochSoPeerAcceptsNewStream) {
  NetworkConfig nc;
  nc.latency_jitter = Duration::zero();
  SimNetwork net(nc);
  ChannelNode a(NodeId(1));
  ChannelNode b(NodeId(2));
  net.attach(a);
  net.attach(b);

  a.channel().send(NodeId(2), 100, {1}, net);
  a.channel().send(NodeId(2), 101, {2}, net);
  net.run_until_idle();
  ASSERT_EQ(b.delivered.size(), 2u);

  // Crash-restart of the sender: sequence numbers restart at 1. Without
  // the epoch, B's dedup watermark (contiguous=2) would silently eat the
  // first two post-restart frames.
  a.channel().reset();
  a.channel().send(NodeId(2), 102, {3}, net);
  a.channel().send(NodeId(2), 103, {4}, net);
  net.run_until_idle();
  ASSERT_EQ(b.delivered.size(), 4u);
  EXPECT_EQ(b.delivered[2].type, 102u);
  EXPECT_EQ(b.delivered[3].type, 103u);
}

TEST(ReliableChannel, GivesUpAfterMaxAttempts) {
  NetworkConfig nc;
  nc.latency_jitter = Duration::zero();
  SimNetwork net(nc);
  ReliableChannelConfig cc;
  cc.max_attempts = 3;
  ChannelNode a(NodeId(1), cc);
  ChannelNode b(NodeId(2), cc);
  net.attach(a);
  net.attach(b);

  net.partition({NodeId(1)}, {NodeId(2)});
  a.channel().send(NodeId(2), 100, {1}, net);
  net.run_until_idle();

  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(a.metrics().counter_value("retransmit_exhausted"), 1u);
  EXPECT_EQ(a.channel().unacked(), 0u);  // abandoned, not leaked
}

TEST(ReliableChannel, RidesOutTransientPartition) {
  NetworkConfig nc;
  nc.latency_jitter = Duration::zero();
  SimNetwork net(nc);
  ChannelNode a(NodeId(1));
  ChannelNode b(NodeId(2));
  net.attach(a);
  net.attach(b);

  net.partition({NodeId(1)}, {NodeId(2)});
  a.channel().send(NodeId(2), 100, {1}, net);
  // Let a few retransmissions burn against the partition, then heal.
  net.run_until(net.now() + Duration::millis(200));
  EXPECT_TRUE(b.delivered.empty());
  net.heal();
  net.run_until_idle();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(a.channel().unacked(), 0u);
}

// ------------------------------------------------------------- e2e layer

struct E2eScenario {
  Trace trace;
  Rect world;

  E2eScenario() {
    TraceConfig c;
    c.roads.grid_cols = 6;
    c.roads.grid_rows = 6;
    c.cameras.camera_count = 20;
    c.mobility.object_count = 20;
    c.duration = Duration::minutes(2);
    c.seed = 777;
    trace = TraceGenerator::generate(c);
    world = trace.roads.bounds(120.0);
  }
};

std::set<std::uint64_t> ids_of(const QueryResult& r) {
  std::set<std::uint64_t> ids;
  for (const Detection& d : r.detections) ids.insert(d.id.value());
  return ids;
}

/// Pumps the network until every node's reliable channel is quiescent
/// (all frames acked or abandoned). Bounded by the retransmission ladder.
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

TEST(ReliableChannelE2E, LossyFabricIngestMatchesOracle) {
  E2eScenario s;
  ClusterConfig config;
  config.worker_count = 4;
  config.network.drop_probability = 0.05;
  config.network.duplicate_probability = 0.02;
  config.network.seed = 5;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster.ingest_all(s.trace.detections);
  quiesce(cluster);

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);

  // Every detection arrived despite drops (reliable transport), none
  // arrived twice (dedup + idempotent ingest).
  Query range = Query::range(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  EXPECT_EQ(ids_of(cluster.execute(range)), ids_of(oracle.execute(range)));

  Query count = Query::count(cluster.next_query_id(), s.world,
                             TimeInterval::all());
  EXPECT_EQ(cluster.execute(count).total_count(),
            oracle.execute(count).total_count());

  EXPECT_GT(cluster.coordinator().metrics().counter_value("retransmits"), 0u);
}

TEST(ReliableChannelE2E, HedgingMasksGrayFailure) {
  E2eScenario s;
  ClusterConfig config;
  config.worker_count = 4;
  config.network.seed = 6;
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster.ingest_all(s.trace.detections);
  quiesce(cluster);

  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);

  // Gray failure: worker 2 is alive (heartbeats flow, the failure detector
  // never trips) but 500x slower. Its query answers would blow way past
  // the 50ms query timeout; the hedge to its backups answers instead.
  cluster.network().set_slow(NodeId(2), 500.0);

  Query q = Query::range(cluster.next_query_id(), s.world,
                         TimeInterval::all());
  EXPECT_EQ(ids_of(cluster.execute(q)), ids_of(oracle.execute(q)));

  const MetricsRegistry& cc = cluster.coordinator().metrics();
  EXPECT_GT(cc.counter_value("hedges_issued"), 0u);
  EXPECT_GT(cc.counter_value("hedges_won"), 0u);
  EXPECT_EQ(cc.counter_value("workers_suspected"), 0u);  // detector never fired
}

// Aggregates merge by summing every fragment answer the coordinator kept,
// retired ones included. A count, a group-by and a heatmap must still equal
// the oracle when a gray-slow worker's fragments are hedged over, for mild
// to extreme slowdowns of different workers.
TEST(ReliableChannelE2E, HedgingKeepsAggregatesExact) {
  E2eScenario s;
  CentralizedIndex oracle(s.world);
  oracle.ingest_all(s.trace.detections);
  std::uint64_t hedges_won = 0;
  for (std::uint64_t victim : {1, 2, 4}) {
    for (double slow : {4.0, 40.0, 500.0}) {
      ClusterConfig config;
      config.worker_count = 4;
      config.network.seed = 6 + victim;
      Cluster cluster(
          s.world,
          std::make_unique<SpatialGridStrategy>(s.world, 3, 3,
                                                s.trace.cameras),
          config);
      cluster.ingest_all(s.trace.detections);
      quiesce(cluster);
      cluster.network().set_slow(NodeId(victim), slow);

      std::vector<Query> queries = {
          Query::count(cluster.next_query_id(), s.world, TimeInterval::all()),
          Query::count(cluster.next_query_id(), s.world, TimeInterval::all(),
                       GroupBy::kCamera),
          Query::heatmap(cluster.next_query_id(), s.world, 150.0,
                         TimeInterval::all())};
      for (const Query& q : queries) {
        QueryResult got = cluster.execute(q);
        EXPECT_EQ(got.counts, oracle.execute(q).counts)
            << query_kind_name(q.kind) << " victim " << victim << " slow "
            << slow;
      }
      EXPECT_EQ(cluster.coordinator().metrics().counter_value(
                    "workers_suspected"),
                0u);
      hedges_won +=
          cluster.coordinator().metrics().counter_value("hedges_won");
    }
  }
  EXPECT_GT(hedges_won, 0u);
}

TEST(ReliableChannelE2E, HeartbeatsResumeAfterNetworkOnlyRestart) {
  // Regression: a crash used to silently discard the worker's pending
  // monitor-tick timer, so a restart that did not explicitly re-arm it left
  // the worker heartbeat-dead forever. Timers now park during the crash and
  // resume on restart.
  E2eScenario s;
  ClusterConfig config;
  config.worker_count = 4;
  config.monitor_tick = Duration::millis(100);
  config.coordinator.heartbeat_timeout = Duration::millis(500);
  config.coordinator.failure_sweep_period = Duration::millis(200);
  Cluster cluster(
      s.world,
      std::make_unique<SpatialGridStrategy>(s.world, 3, 3, s.trace.cameras),
      config);
  cluster.advance_time(Duration::seconds(1));  // heartbeats established

  // Crash at the network layer only — nobody calls restart_ticks.
  cluster.network().crash(NodeId(2));
  cluster.advance_time(Duration::seconds(2));
  EXPECT_TRUE(
      cluster.coordinator().suspected_workers().contains(WorkerId(2)));

  cluster.network().restart(NodeId(2));
  cluster.advance_time(Duration::seconds(2));
  EXPECT_FALSE(
      cluster.coordinator().suspected_workers().contains(WorkerId(2)));
}

}  // namespace
}  // namespace stcn
