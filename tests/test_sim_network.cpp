#include "net/sim_network.h"

#include <gtest/gtest.h>

#include <vector>

namespace stcn {
namespace {

/// Records everything it receives.
class RecorderNode final : public NetworkNode {
 public:
  explicit RecorderNode(NodeId id) : id_(id) {}
  [[nodiscard]] NodeId node_id() const override { return id_; }

  void handle_message(const Message& message, SimNetwork& network) override {
    received.push_back(message);
    received_at.push_back(network.now());
  }
  void handle_timer(std::uint64_t token, SimNetwork& network) override {
    timer_tokens.push_back(token);
    timer_at.push_back(network.now());
  }

  std::vector<Message> received;
  std::vector<TimePoint> received_at;
  std::vector<std::uint64_t> timer_tokens;
  std::vector<TimePoint> timer_at;

 private:
  NodeId id_;
};

NetworkConfig quiet_config() {
  NetworkConfig c;
  c.latency_jitter = Duration::zero();
  return c;
}

TEST(SimNetwork, DeliversMessageWithLatency) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  RecorderNode b(NodeId(2));
  net.attach(a);
  net.attach(b);

  net.send({NodeId(1), NodeId(2), 7, {1, 2, 3}, {}, {}});
  EXPECT_TRUE(b.received.empty());  // nothing until the loop runs
  net.run_until_idle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].type, 7u);
  EXPECT_EQ(b.received[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GE(b.received_at[0], TimePoint::origin() + net.config().base_latency);
}

TEST(SimNetwork, FifoOrderPreservedForEqualSizes) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  RecorderNode b(NodeId(2));
  net.attach(a);
  net.attach(b);
  for (std::uint32_t i = 0; i < 10; ++i) {
    net.send({NodeId(1), NodeId(2), i, {}, {}, {}});
  }
  net.run_until_idle();
  ASSERT_EQ(b.received.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(b.received[i].type, i);
  }
}

TEST(SimNetwork, LargerMessagesTakeLonger) {
  NetworkConfig config = quiet_config();
  config.bandwidth_bytes_per_sec = 1e6;  // slow link: 1 MB/s
  SimNetwork net(config);
  RecorderNode b(NodeId(2));
  net.attach(b);

  Message small{NodeId(1), NodeId(2), 1, std::vector<std::uint8_t>(10), {}, {}};
  Message large{NodeId(1), NodeId(2), 2,
                std::vector<std::uint8_t>(1'000'000), {}, {}};
  net.send(large);
  net.send(small);
  net.run_until_idle();
  ASSERT_EQ(b.received.size(), 2u);
  // The small message, although sent second, arrives first.
  EXPECT_EQ(b.received[0].type, 1u);
  EXPECT_EQ(b.received[1].type, 2u);
  EXPECT_GT(b.received_at[1] - b.received_at[0], Duration::millis(500));
}

TEST(SimNetwork, CountersAccountBytesAndMessages) {
  SimNetwork net(quiet_config());
  RecorderNode b(NodeId(2));
  net.attach(b);
  net.send({NodeId(1), NodeId(2), 0, std::vector<std::uint8_t>(100), {}, {}});
  net.run_until_idle();
  EXPECT_EQ(net.metrics().counter_value("messages_sent"), 1u);
  EXPECT_EQ(net.metrics().counter_value("messages_delivered"), 1u);
  // payload + envelope
  EXPECT_EQ(net.metrics().counter_value("bytes_sent"), 142u);
}

TEST(SimNetwork, CrashedNodeDropsMessages) {
  SimNetwork net(quiet_config());
  RecorderNode b(NodeId(2));
  net.attach(b);
  net.crash(NodeId(2));
  EXPECT_TRUE(net.is_crashed(NodeId(2)));
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().counter_value("messages_dropped_crashed"), 1u);

  net.restart(NodeId(2));
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimNetwork, InFlightMessageLostWhenDestinationCrashesBeforeDelivery) {
  SimNetwork net(quiet_config());
  RecorderNode b(NodeId(2));
  net.attach(b);
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.crash(NodeId(2));  // crash while the message is in flight
  net.run_until_idle();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimNetwork, UnknownDestinationCounted) {
  SimNetwork net(quiet_config());
  net.send({NodeId(1), NodeId(99), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_EQ(net.metrics().counter_value("messages_dropped_unknown_node"), 1u);
}

TEST(SimNetwork, DropProbabilityLosesMessages) {
  NetworkConfig config = quiet_config();
  config.drop_probability = 1.0;
  SimNetwork net(config);
  RecorderNode b(NodeId(2));
  net.attach(b);
  for (int i = 0; i < 10; ++i) net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().counter_value("messages_dropped_fabric"), 10u);
}

TEST(SimNetwork, TimersFireAtRequestedTime) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  net.attach(a);
  net.set_timer(NodeId(1), Duration::seconds(5), 42);
  net.set_timer(NodeId(1), Duration::seconds(1), 7);
  net.run_until_idle();
  ASSERT_EQ(a.timer_tokens.size(), 2u);
  EXPECT_EQ(a.timer_tokens[0], 7u);
  EXPECT_EQ(a.timer_tokens[1], 42u);
  EXPECT_EQ(a.timer_at[0], TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(a.timer_at[1], TimePoint::origin() + Duration::seconds(5));
}

TEST(SimNetwork, CrashedNodeTimersSuppressed) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  net.attach(a);
  net.set_timer(NodeId(1), Duration::seconds(1), 1);
  net.crash(NodeId(1));
  net.run_until_idle();
  EXPECT_TRUE(a.timer_tokens.empty());
}

TEST(SimNetwork, RunUntilRespectsDeadline) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  net.attach(a);
  net.set_timer(NodeId(1), Duration::seconds(10), 1);
  net.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_TRUE(a.timer_tokens.empty());
  EXPECT_EQ(net.now(), TimePoint::origin() + Duration::seconds(5));
  net.run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_EQ(a.timer_tokens.size(), 1u);
}

TEST(SimNetwork, StepProcessesOneEvent) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  net.attach(a);
  net.set_timer(NodeId(1), Duration::seconds(1), 1);
  net.set_timer(NodeId(1), Duration::seconds(2), 2);
  EXPECT_TRUE(net.step());
  EXPECT_EQ(a.timer_tokens.size(), 1u);
  EXPECT_TRUE(net.step());
  EXPECT_EQ(a.timer_tokens.size(), 2u);
  EXPECT_FALSE(net.step());
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    NetworkConfig config;
    config.seed = 7;
    config.latency_jitter = Duration::micros(100);
    SimNetwork net(config);
    RecorderNode b(NodeId(2));
    net.attach(b);
    for (int i = 0; i < 50; ++i) {
      net.send({NodeId(1), NodeId(2), static_cast<std::uint32_t>(i),
                std::vector<std::uint8_t>(static_cast<std::size_t>(i)), {}, {}});
    }
    net.run_until_idle();
    std::vector<std::int64_t> times;
    for (TimePoint t : b.received_at) times.push_back(t.micros_since_origin());
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimNetwork, PartitionCutsBothDirectionsUntilHealed) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  RecorderNode b(NodeId(2));
  RecorderNode c(NodeId(3));
  net.attach(a);
  net.attach(b);
  net.attach(c);

  net.partition({NodeId(1)}, {NodeId(2)});
  EXPECT_TRUE(net.partitioned(NodeId(1), NodeId(2)));
  EXPECT_TRUE(net.partitioned(NodeId(2), NodeId(1)));
  EXPECT_FALSE(net.partitioned(NodeId(1), NodeId(3)));

  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.send({NodeId(2), NodeId(1), 0, {}, {}, {}});
  net.send({NodeId(1), NodeId(3), 0, {}, {}, {}});  // unaffected pair
  net.run_until_idle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(net.metrics().counter_value("messages_dropped_partition"), 2u);

  net.heal();
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimNetwork, PartitionCutsMessageInFlight) {
  // A message already in flight when the partition forms is lost too: the
  // cut is checked again at delivery time.
  SimNetwork net(quiet_config());
  RecorderNode b(NodeId(2));
  net.attach(b);
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.partition({NodeId(1)}, {NodeId(2)});
  net.run_until_idle();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimNetwork, PartitionsStack) {
  SimNetwork net(quiet_config());
  net.partition({NodeId(1)}, {NodeId(2)});
  net.partition({NodeId(1)}, {NodeId(3)});
  EXPECT_EQ(net.active_partitions(), 2u);
  EXPECT_TRUE(net.partitioned(NodeId(1), NodeId(2)));
  EXPECT_TRUE(net.partitioned(NodeId(1), NodeId(3)));
  EXPECT_FALSE(net.partitioned(NodeId(2), NodeId(3)));
  net.heal();
  EXPECT_EQ(net.active_partitions(), 0u);
}

TEST(SimNetwork, DuplicateProbabilityDeliversTwice) {
  NetworkConfig config = quiet_config();
  config.duplicate_probability = 1.0;
  SimNetwork net(config);
  RecorderNode b(NodeId(2));
  net.attach(b);
  for (int i = 0; i < 5; ++i) net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_EQ(net.metrics().counter_value("messages_duplicated"), 5u);
  EXPECT_EQ(net.metrics().counter_value("messages_delivered"), 10u);
}

TEST(SimNetwork, LinkOverrideDropAndLatency) {
  SimNetwork net(quiet_config());
  RecorderNode b(NodeId(2));
  RecorderNode c(NodeId(3));
  net.attach(b);
  net.attach(c);

  // Directed override: 1→2 always drops; 2→1 unaffected.
  net.set_link(NodeId(1), NodeId(2), {.drop_probability = 1.0});
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  EXPECT_TRUE(b.received.empty());
  net.clear_link(NodeId(1), NodeId(2));

  // Latency shaping: +10ms extra on 1→3.
  net.set_link(NodeId(1), NodeId(3),
               {.extra_latency = Duration::millis(10)});
  net.send({NodeId(1), NodeId(3), 0, {}, {}, {}});
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});
  net.run_until_idle();
  ASSERT_EQ(c.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GT(c.received_at[0] - b.received_at[0], Duration::millis(9));
}

TEST(SimNetwork, SlowNodeDelaysTrafficBothWays) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  RecorderNode b(NodeId(2));
  RecorderNode c(NodeId(3));
  net.attach(a);
  net.attach(b);
  net.attach(c);

  net.set_slow(NodeId(2), 100.0);
  EXPECT_TRUE(net.is_slow(NodeId(2)));
  net.send({NodeId(1), NodeId(2), 0, {}, {}, {}});  // into the slow node
  net.send({NodeId(2), NodeId(3), 0, {}, {}, {}});  // out of the slow node
  net.send({NodeId(1), NodeId(3), 0, {}, {}, {}});  // healthy pair
  net.run_until_idle();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 2u);
  // Healthy-pair delivery is ~base_latency; slow-node traffic is ~100x.
  Duration healthy = c.received_at[0] - TimePoint::origin();
  EXPECT_GT(b.received_at[0] - TimePoint::origin(), healthy * 50.0);

  net.clear_slow(NodeId(2));
  EXPECT_FALSE(net.is_slow(NodeId(2)));
}

TEST(SimNetwork, ParkedTimersResumeOnRestart) {
  SimNetwork net(quiet_config());
  RecorderNode a(NodeId(1));
  net.attach(a);
  net.set_timer(NodeId(1), Duration::seconds(1), 77);
  net.crash(NodeId(1));
  net.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_TRUE(a.timer_tokens.empty());
  EXPECT_EQ(net.metrics().counter_value("timers_parked"), 1u);

  net.restart(NodeId(1));
  net.run_until_idle();
  ASSERT_EQ(a.timer_tokens.size(), 1u);
  EXPECT_EQ(a.timer_tokens[0], 77u);
  // Fired at restart time (its original due time had already passed).
  EXPECT_GE(a.timer_at[0], TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(net.metrics().counter_value("timers_resumed"), 1u);
}

}  // namespace
}  // namespace stcn
