#include "core/worker.h"

#include <gtest/gtest.h>

#include <set>

#include "core/protocol.h"

namespace stcn {
namespace {

constexpr NodeId kCoord{999};

Detection make_detection(std::uint64_t id, Point pos, std::int64_t t,
                         std::uint64_t camera = 1, std::uint64_t object = 1) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(camera);
  d.object = ObjectId(object);
  d.time = TimePoint(t);
  d.position = pos;
  return d;
}

WorkerConfig worker_config() {
  WorkerConfig c;
  c.world = {{0, 0}, {1000, 1000}};
  return c;
}

/// Coordinator stub capturing responses and deltas. Workers send deltas
/// (and replies to reliable requests) through the reliable channel, so the
/// stub unwraps DATA frames — and acks them, else the worker retransmits
/// forever.
class CoordStub final : public NetworkNode {
 public:
  CoordStub() : channel_(kCoord, metrics_) {}
  [[nodiscard]] NodeId node_id() const override { return kCoord; }
  void handle_message(const Message& message, SimNetwork& network) override {
    Message inner = message;
    switch (static_cast<MsgType>(message.type)) {
      case MsgType::kReliableData: {
        auto unwrapped = channel_.on_data(message, network);
        if (!unwrapped) return;
        inner = std::move(*unwrapped);
        break;
      }
      case MsgType::kReliableAck:
        channel_.on_ack(message);
        return;
      default:
        break;
    }
    BinaryReader reader(inner.payload);
    switch (static_cast<MsgType>(inner.type)) {
      case MsgType::kQueryResponse:
        responses.push_back(decode_query_response(reader));
        break;
      case MsgType::kDeltaBatch: {
        DeltaBatch batch = decode_delta_batch(reader);
        deltas.insert(deltas.end(), batch.deltas.begin(), batch.deltas.end());
        break;
      }
      default:
        break;
    }
  }
  std::vector<QueryResponse> responses;
  std::vector<WireDelta> deltas;

 private:
  MetricsRegistry metrics_;
  ReliableChannel channel_;
};

class WorkerFixture : public ::testing::Test {
 protected:
  WorkerFixture() : worker_(WorkerId(1), kCoord, worker_config()) {
    NetworkConfig nc;
    nc.latency_jitter = Duration::zero();
    network_ = std::make_unique<SimNetwork>(nc);
    network_->attach(worker_);
    network_->attach(coord_);
  }

  void send_ingest(PartitionId p, std::vector<Detection> dets,
                   bool replica = false) {
    IngestBatch batch{p, replica, std::move(dets)};
    network_->send({kCoord, worker_.node_id(),
                    static_cast<std::uint32_t>(MsgType::kIngestBatch),
                    encode(batch), network_->now()});
    network_->run_until_idle();
  }

  QueryResult run_query(const Query& q, std::vector<PartitionId> parts) {
    QueryRequest req{next_request_++, 0, q, std::move(parts)};
    network_->send({kCoord, worker_.node_id(),
                    static_cast<std::uint32_t>(MsgType::kQueryRequest),
                    encode(req), network_->now()});
    network_->run_until_idle();
    EXPECT_FALSE(coord_.responses.empty());
    QueryResult r = coord_.responses.back().result;
    return r;
  }

  WorkerNode worker_;
  CoordStub coord_;
  std::unique_ptr<SimNetwork> network_;
  std::uint64_t next_request_ = 1;
};

TEST_F(WorkerFixture, IngestsAndServesRangeQuery) {
  send_ingest(PartitionId(0), {make_detection(1, {10, 10}, 100),
                               make_detection(2, {500, 500}, 200)});
  EXPECT_EQ(worker_.stored_detections(), 2u);
  EXPECT_EQ(worker_.partition_count(), 1u);

  Query q = Query::range(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = run_query(q, {PartitionId(0)});
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, DetectionId(1));
}

TEST_F(WorkerFixture, QueryOnlyServesNamedPartitions) {
  send_ingest(PartitionId(0), {make_detection(1, {10, 10}, 100)});
  send_ingest(PartitionId(1), {make_detection(2, {20, 20}, 100)});

  Query q = Query::range(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = run_query(q, {PartitionId(1)});
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].id, DetectionId(2));
}

TEST_F(WorkerFixture, UnknownPartitionServedAsEmpty) {
  Query q = Query::range(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = run_query(q, {PartitionId(7)});
  EXPECT_TRUE(r.detections.empty());
}

TEST_F(WorkerFixture, MultiplePartitionsMergedInOneResponse) {
  send_ingest(PartitionId(0), {make_detection(1, {10, 10}, 100)});
  send_ingest(PartitionId(1), {make_detection(2, {20, 20}, 200)});
  Query q = Query::range(QueryId(1), {{0, 0}, {100, 100}},
                         TimeInterval::all());
  QueryResult r = run_query(q, {PartitionId(0), PartitionId(1)});
  EXPECT_EQ(r.detections.size(), 2u);
}

TEST_F(WorkerFixture, MonitorEmitsPositiveDeltaOnPrimaryIngest) {
  MonitorInstall install{QueryId(5), {{0, 0}, {100, 100}},
                         Duration::minutes(1)};
  network_->send({kCoord, worker_.node_id(),
                  static_cast<std::uint32_t>(MsgType::kInstallMonitor),
                  encode(install), network_->now()});
  network_->run_until_idle();

  send_ingest(PartitionId(0), {make_detection(1, {50, 50}, 100)});
  // Deltas flush on the monitor tick; drive the worker's timer.
  worker_.start(*network_);
  network_->run_until(network_->now() + Duration::seconds(3));
  ASSERT_FALSE(coord_.deltas.empty());
  EXPECT_EQ(coord_.deltas[0].query, QueryId(5));
  EXPECT_TRUE(coord_.deltas[0].positive);
}

TEST_F(WorkerFixture, ReplicaIngestDoesNotDriveMonitors) {
  MonitorInstall install{QueryId(5), {{0, 0}, {100, 100}},
                         Duration::minutes(1)};
  network_->send({kCoord, worker_.node_id(),
                  static_cast<std::uint32_t>(MsgType::kInstallMonitor),
                  encode(install), network_->now()});
  network_->run_until_idle();

  send_ingest(PartitionId(0), {make_detection(1, {50, 50}, 100)},
              /*replica=*/true);
  worker_.start(*network_);
  network_->run_until(network_->now() + Duration::seconds(3));
  EXPECT_TRUE(coord_.deltas.empty());
  // But the data is stored and queryable (replica serving).
  EXPECT_EQ(worker_.stored_detections(), 1u);
}

TEST_F(WorkerFixture, SyncRequestReturnsPartitionContents) {
  send_ingest(PartitionId(2), {make_detection(1, {10, 10}, 100),
                               make_detection(2, {20, 20}, 200)});
  // A second worker asks for partition 2.
  WorkerNode other(WorkerId(2), kCoord, worker_config());
  network_->attach(other);
  other.start_resync({{PartitionId(2), worker_.node_id()}}, *network_);
  EXPECT_FALSE(other.resync_complete());
  network_->run_until_idle();
  EXPECT_TRUE(other.resync_complete());
  EXPECT_EQ(other.stored_detections(), 2u);
}

TEST_F(WorkerFixture, LoseStateClearsEverything) {
  send_ingest(PartitionId(0), {make_detection(1, {10, 10}, 100)});
  EXPECT_EQ(worker_.stored_detections(), 1u);
  worker_.lose_state();
  EXPECT_EQ(worker_.stored_detections(), 0u);
  EXPECT_EQ(worker_.partition_count(), 0u);
}

TEST_F(WorkerFixture, CountersTrackIngestKinds) {
  send_ingest(PartitionId(0), {make_detection(1, {10, 10}, 100)});
  send_ingest(PartitionId(0), {make_detection(2, {10, 10}, 200)},
              /*replica=*/true);
  EXPECT_EQ(worker_.metrics().counter_value("ingested_primary"), 1u);
  EXPECT_EQ(worker_.metrics().counter_value("ingested_replica"), 1u);
}

TEST_F(WorkerFixture, SnapshotWriteCostTracksAppendedRowsNotStoreSize) {
  // Four partitions grow by a fixed burst between snapshots until each
  // spans several 4096-row blocks. A snapshot writes each partition's new
  // rows plus the header of every segment it touched (two when the burst
  // crosses a block boundary) — never the store it already imaged.
  constexpr std::uint32_t kPartitions = 4;
  constexpr std::size_t kRowsPerTick = 500;
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kRowBytes = 60 + 4 * kDim;
  constexpr std::size_t kHeader = DetectionStore::kSegmentHeaderBytes;
  constexpr int kTicks = 50;
  auto written = [&] {
    return worker_.metrics().counter_value("snapshot_bytes_written");
  };
  std::uint64_t next_id = 0;
  const std::uint64_t rows_bytes = kPartitions * kRowsPerTick * kRowBytes;
  for (int tick = 1; tick <= kTicks; ++tick) {
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      std::vector<Detection> burst;
      for (std::size_t i = 0; i < kRowsPerTick; ++i) {
        Detection d = make_detection(++next_id, {10.0 * p, 10}, tick);
        d.appearance.values.assign(kDim, 0.25f * static_cast<float>(i % 4));
        burst.push_back(std::move(d));
      }
      send_ingest(PartitionId(p), std::move(burst));
    }
    std::uint64_t before = written();
    worker_.take_snapshots(TimePoint(tick));
    std::uint64_t delta = written() - before;
    EXPECT_GE(delta, rows_bytes + kPartitions * kHeader) << "tick " << tick;
    EXPECT_LE(delta, rows_bytes + 2 * kPartitions * kHeader) << "tick " << tick;
  }
  const std::size_t rows = kTicks * kRowsPerTick;
  ASSERT_GT(rows, 5 * kDetectionBlockRows);
  const std::size_t blocks = (rows + kDetectionBlockRows - 1) /
                             kDetectionBlockRows;
  // The vault holds each full image, counted as a running total.
  EXPECT_EQ(worker_.metrics().gauge("snapshot_bytes").value(),
            static_cast<double>(kPartitions *
                                (rows * kRowBytes + blocks * kHeader)));

  // A tick with no new rows writes nothing and leaves every entry as the
  // previous tick stamped it.
  std::uint64_t before = written();
  std::uint64_t taken = worker_.metrics().counter_value("snapshots_taken");
  worker_.take_snapshots(TimePoint(kTicks + 1));
  EXPECT_EQ(written(), before);
  EXPECT_EQ(worker_.metrics().counter_value("snapshots_taken"), taken);
  for (const auto& [p, snap] : worker_.snapshot_vault()) {
    EXPECT_EQ(snap.taken_at, TimePoint(kTicks)) << "partition " << p.value();
  }
}

}  // namespace
}  // namespace stcn
