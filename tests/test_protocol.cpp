// Wire-protocol codecs: round trips and corruption robustness.
//
// A distributed system's decoders run on bytes from the network; they must
// never crash, loop, or read out of bounds on truncated or corrupted input
// — at worst they report failure. These tests round-trip every message
// type and then fuzz the decoders with truncation and random bit flips.
#include "core/protocol.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stcn {
namespace {

Detection make_detection(std::uint64_t id) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(id * 3);
  d.object = ObjectId(id * 7);
  d.time = TimePoint(static_cast<std::int64_t>(id) * 1000);
  d.position = {static_cast<double>(id), static_cast<double>(id) * 2};
  d.appearance.values = {0.5f, -0.5f, 0.5f, -0.5f};
  d.confidence = 0.9;
  return d;
}

TEST(Protocol, IngestBatchRoundTrip) {
  IngestBatch batch{PartitionId(4), true,
                    {make_detection(1), make_detection(2)}};
  auto bytes = encode(batch);
  BinaryReader r(bytes);
  IngestBatch back = decode_ingest_batch(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.partition, PartitionId(4));
  EXPECT_TRUE(back.is_replica);
  ASSERT_EQ(back.detections.size(), 2u);
  EXPECT_EQ(back.detections[0], batch.detections[0]);
  EXPECT_EQ(back.detections[1], batch.detections[1]);
}

TEST(Protocol, QueryRequestRoundTrip) {
  QueryRequest request{
      42, 17,
      Query::range(QueryId(7), {{0, 0}, {10, 10}},
                   {TimePoint(1), TimePoint(2)}),
      {PartitionId(1), PartitionId(3)}};
  auto bytes = encode(request);
  BinaryReader r(bytes);
  QueryRequest back = decode_query_request(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.request_id, 42u);
  EXPECT_EQ(back.sub_id, 17u);
  EXPECT_EQ(back.query.id, QueryId(7));
  ASSERT_EQ(back.partitions.size(), 2u);
  EXPECT_EQ(back.partitions[1], PartitionId(3));
}

TEST(Protocol, QueryResponseRoundTrip) {
  QueryResponse response;
  response.request_id = 9;
  response.sub_id = 23;
  response.result.query = QueryId(7);
  response.result.detections = {make_detection(5)};
  response.result.counts[3] = 14;
  response.rows_scanned = 100;
  response.scan_wall_us = 250;
  response.blocks_scanned = 4;
  response.blocks_skipped = 12;
  auto bytes = encode(response);
  BinaryReader r(bytes);
  QueryResponse back = decode_query_response(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.request_id, 9u);
  EXPECT_EQ(back.sub_id, 23u);
  EXPECT_EQ(back.result.counts.at(3), 14u);
  ASSERT_EQ(back.result.detections.size(), 1u);
  EXPECT_EQ(back.rows_scanned, 100u);
  EXPECT_EQ(back.scan_wall_us, 250u);
  EXPECT_EQ(back.blocks_scanned, 4u);
  EXPECT_EQ(back.blocks_skipped, 12u);
}

TEST(Protocol, MonitorInstallRoundTrip) {
  MonitorInstall install{QueryId(5), {{1, 2}, {3, 4}}, Duration::seconds(9)};
  auto bytes = encode(install);
  BinaryReader r(bytes);
  MonitorInstall back = decode_monitor_install(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.query, QueryId(5));
  EXPECT_EQ(back.region, (Rect{{1, 2}, {3, 4}}));
  EXPECT_EQ(back.window, Duration::seconds(9));
}

TEST(Protocol, DeltaBatchRoundTrip) {
  DeltaBatch batch;
  batch.deltas.push_back({QueryId(1), true, make_detection(1)});
  batch.deltas.push_back({QueryId(2), false, make_detection(2)});
  auto bytes = encode(batch);
  BinaryReader r(bytes);
  DeltaBatch back = decode_delta_batch(r);
  EXPECT_FALSE(r.failed());
  ASSERT_EQ(back.deltas.size(), 2u);
  EXPECT_TRUE(back.deltas[0].positive);
  EXPECT_FALSE(back.deltas[1].positive);
}

TEST(Protocol, SyncMessagesRoundTrip) {
  auto req_bytes = encode(SyncRequest{PartitionId(6)});
  BinaryReader rr(req_bytes);
  EXPECT_EQ(decode_sync_request(rr).partition, PartitionId(6));

  SyncResponse response{PartitionId(6), {make_detection(1)}};
  auto resp_bytes = encode(response);
  BinaryReader pr(resp_bytes);
  SyncResponse back = decode_sync_response(pr);
  EXPECT_EQ(back.partition, PartitionId(6));
  ASSERT_EQ(back.detections.size(), 1u);
}

TEST(Protocol, IngestBatchPbidRoundTrip) {
  IngestBatch batch{PartitionId(3), false, {make_detection(9)}, 77};
  auto bytes = encode(batch);
  BinaryReader r(bytes);
  IngestBatch back = decode_ingest_batch(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.pbid, 77u);
}

TEST(Protocol, SyncResponseWatermarkAndTailRoundTrip) {
  SyncResponse response{PartitionId(6), {make_detection(1)}};
  response.watermark[1'000'000] = 41;
  response.watermark[2'000'003] = 7;
  response.tail.push_back({1'000'000, 42, {make_detection(2)}});
  response.tail.push_back({2'000'003, 8, {}});
  auto bytes = encode(response);
  BinaryReader r(bytes);
  SyncResponse back = decode_sync_response(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.watermark.at(1'000'000), 41u);
  EXPECT_EQ(back.watermark.at(2'000'003), 7u);
  ASSERT_EQ(back.tail.size(), 2u);
  EXPECT_EQ(back.tail[0].source, 1'000'000u);
  EXPECT_EQ(back.tail[0].pbid, 42u);
  ASSERT_EQ(back.tail[0].detections.size(), 1u);
  EXPECT_EQ(back.tail[0].detections[0], make_detection(2));
  EXPECT_TRUE(back.tail[1].detections.empty());
}

TEST(Protocol, DeltaSyncMessagesRoundTrip) {
  DeltaSyncRequest request{PartitionId(5), {}};
  request.since[1'000'000] = 12;
  auto req_bytes = encode(request);
  BinaryReader rr(req_bytes);
  DeltaSyncRequest req_back = decode_delta_sync_request(rr);
  EXPECT_FALSE(rr.failed());
  EXPECT_EQ(req_back.partition, PartitionId(5));
  EXPECT_EQ(req_back.since.at(1'000'000), 12u);

  DeltaSyncResponse response{PartitionId(5), true, {}, {}};
  response.watermark[1'000'000] = 20;
  response.entries.push_back({1'000'000, 13, {make_detection(4)}});
  auto resp_bytes = encode(response);
  BinaryReader pr(resp_bytes);
  DeltaSyncResponse resp_back = decode_delta_sync_response(pr);
  EXPECT_FALSE(pr.failed());
  EXPECT_EQ(resp_back.partition, PartitionId(5));
  EXPECT_TRUE(resp_back.ok);
  EXPECT_EQ(resp_back.watermark.at(1'000'000), 20u);
  ASSERT_EQ(resp_back.entries.size(), 1u);
  EXPECT_EQ(resp_back.entries[0].pbid, 13u);
}

TEST(Protocol, RecoveryDoneRoundTrip) {
  auto bytes = encode(RecoveryDone{99, PartitionId(2), 1234});
  BinaryReader r(bytes);
  RecoveryDone back = decode_recovery_done(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.recovery_id, 99u);
  EXPECT_EQ(back.partition, PartitionId(2));
  EXPECT_EQ(back.detections, 1234u);
}

Heartbeat heartbeat_with_summaries() {
  Heartbeat hb{WorkerId(4), 777, {}, {}};
  hb.summaries.push_back({PartitionId(2), {{1'000'000, 41}}, BloomFilter(2048)});
  hb.summaries.push_back({PartitionId(5), {}, BloomFilter(2048)});
  for (std::uint64_t object = 1; object <= 30; ++object) {
    hb.summaries[0].objects.insert(object);
  }
  hb.summaries[1].covers[2'000'000] = 3;
  hb.summaries[1].covers[1'000'000] = 9;
  return hb;
}

TEST(Protocol, HeartbeatRoundTrip) {
  for (const Heartbeat& hb :
       {Heartbeat{WorkerId(3), 12345, {}, {}}, heartbeat_with_summaries()}) {
    auto bytes = encode(hb);
    BinaryReader r(bytes);
    Heartbeat back = decode_heartbeat(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back.worker, hb.worker);
    EXPECT_EQ(back.stored_detections, hb.stored_detections);
    ASSERT_EQ(back.summaries.size(), hb.summaries.size());
    for (std::size_t i = 0; i < hb.summaries.size(); ++i) {
      EXPECT_EQ(back.summaries[i].partition, hb.summaries[i].partition);
      EXPECT_EQ(back.summaries[i].covers, hb.summaries[i].covers);
      EXPECT_EQ(back.summaries[i].objects, hb.summaries[i].objects);
    }
  }
}

TEST(Protocol, IngestForwardRoundTrip) {
  IngestForward forward{{make_detection(1), make_detection(2),
                         make_detection(3)}};
  auto bytes = encode(forward);
  BinaryReader r(bytes);
  IngestForward back = decode_ingest_forward(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.detections.size(), 3u);
}

// ------------------------------------------------------- corruption fuzz

template <typename DecodeFn>
void fuzz_decoder(const std::vector<std::uint8_t>& valid, DecodeFn&& decode,
                  std::uint64_t seed) {
  // Every truncation point: decoder must terminate without crashing.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<long>(len));
    BinaryReader r(truncated);
    (void)decode(r);
    // Either the decode consumed a valid prefix or the reader failed;
    // it must never read past the buffer (asan would catch that).
  }
  // Random bit flips: decoder must terminate without crashing.
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> corrupted = valid;
    std::size_t flips = 1 + rng.uniform_index(8);
    for (std::size_t f = 0; f < flips; ++f) {
      std::size_t byte = rng.uniform_index(corrupted.size());
      corrupted[byte] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_index(8));
    }
    BinaryReader r(corrupted);
    (void)decode(r);
  }
}

TEST(ProtocolFuzz, IngestBatchDecoderRobust) {
  IngestBatch batch{PartitionId(1), false, {}};
  for (std::uint64_t i = 1; i <= 20; ++i) {
    batch.detections.push_back(make_detection(i));
  }
  fuzz_decoder(encode(batch),
               [](BinaryReader& r) { return decode_ingest_batch(r); }, 1);
}

TEST(ProtocolFuzz, QueryRequestDecoderRobust) {
  QueryRequest request{
      1, 1, Query::knn(QueryId(1), {5, 5}, 10, TimeInterval::all()),
      {PartitionId(0), PartitionId(1), PartitionId(2)}};
  fuzz_decoder(encode(request),
               [](BinaryReader& r) { return decode_query_request(r); }, 2);
}

TEST(ProtocolFuzz, QueryResponseDecoderRobust) {
  QueryResponse response;
  response.request_id = 1;
  response.result.query = QueryId(1);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    response.result.detections.push_back(make_detection(i));
    response.result.counts[i] = i;
  }
  fuzz_decoder(encode(response),
               [](BinaryReader& r) { return decode_query_response(r); }, 3);
}

TEST(ProtocolFuzz, DeltaBatchDecoderRobust) {
  DeltaBatch batch;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    batch.deltas.push_back({QueryId(i), i % 2 == 0, make_detection(i)});
  }
  fuzz_decoder(encode(batch),
               [](BinaryReader& r) { return decode_delta_batch(r); }, 4);
}

TEST(ProtocolFuzz, SyncResponseDecoderRobust) {
  SyncResponse response{PartitionId(2), {}};
  for (std::uint64_t i = 1; i <= 15; ++i) {
    response.detections.push_back(make_detection(i));
  }
  fuzz_decoder(encode(response),
               [](BinaryReader& r) { return decode_sync_response(r); }, 5);
}

TEST(ProtocolFuzz, HeartbeatDecoderRobust) {
  fuzz_decoder(encode(heartbeat_with_summaries()),
               [](BinaryReader& r) { return decode_heartbeat(r); }, 7);
}

TEST(ProtocolFuzz, DeltaSyncResponseDecoderRobust) {
  DeltaSyncResponse response{PartitionId(2), true, {}, {}};
  response.watermark[1] = 5;
  response.watermark[2] = 9;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    response.entries.push_back(
        {i % 2, 10 + i, {make_detection(i), make_detection(100 + i)}});
  }
  fuzz_decoder(encode(response),
               [](BinaryReader& r) { return decode_delta_sync_response(r); },
               6);
}

}  // namespace
}  // namespace stcn
