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
  response.scan.rows_scanned = 100;
  response.scan_wall_us = 250;
  response.scan.store.blocks_scanned = 4;
  response.scan.store.blocks_skipped = 12;
  response.scan.store.rows_evaluated = 40;
  response.scan.store.rows_selected = 30;
  response.scan.store.morsels = 3;
  response.scan.store.cold_blocks_scanned = 2;
  response.scan.store.cold_blocks_skipped = 5;
  response.scan.store.decode_morsels = 1;
  response.scan.store.zone_fast_path = 7;  // not on the wire
  auto bytes = encode(response);
  BinaryReader r(bytes);
  QueryResponse back = decode_query_response(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.request_id, 9u);
  EXPECT_EQ(back.sub_id, 23u);
  EXPECT_EQ(back.result.counts.at(3), 14u);
  ASSERT_EQ(back.result.detections.size(), 1u);
  EXPECT_EQ(back.scan.rows_scanned, 100u);
  EXPECT_EQ(back.scan_wall_us, 250u);
  const MorselStats& m = back.scan.store;
  EXPECT_EQ(m.blocks_scanned, 4u);
  EXPECT_EQ(m.blocks_skipped, 12u);
  EXPECT_EQ(m.rows_evaluated, 40u);
  EXPECT_EQ(m.rows_selected, 30u);
  EXPECT_EQ(m.morsels, 3u);
  EXPECT_EQ(m.cold_blocks_scanned, 2u);
  EXPECT_EQ(m.cold_blocks_skipped, 5u);
  EXPECT_EQ(m.decode_morsels, 1u);
  EXPECT_EQ(m.zone_fast_path, 0u);
}

TEST(Protocol, QueryResponseScanStatsAreTenU64sInWireOrder) {
  QueryResponse response;
  response.scan.rows_scanned = 1;
  response.scan_wall_us = 2;
  response.scan.store.blocks_scanned = 3;
  response.scan.store.blocks_skipped = 4;
  response.scan.store.rows_evaluated = 5;
  response.scan.store.rows_selected = 6;
  response.scan.store.morsels = 7;
  response.scan.store.cold_blocks_scanned = 8;
  response.scan.store.cold_blocks_skipped = 9;
  response.scan.store.decode_morsels = 10;
  auto bytes = encode(response);
  // The stats trail the result: ten u64 values, 1..10 in the order above.
  ASSERT_GE(bytes.size(), 80u);
  BinaryReader r(bytes.data() + bytes.size() - 80, 80);
  for (std::uint64_t want = 1; want <= 10; ++want) {
    EXPECT_EQ(r.read_u64(), want);
  }
  EXPECT_EQ(encode(QueryResponse{}).size(), bytes.size());
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
  // Image ask: no `since`.
  auto req_bytes = encode(SyncRequest{PartitionId(6), std::nullopt});
  BinaryReader rr(req_bytes);
  SyncRequest req_back = decode_sync_request(rr);
  EXPECT_FALSE(rr.failed());
  EXPECT_EQ(req_back.partition, PartitionId(6));
  EXPECT_FALSE(req_back.since.has_value());

  // Delta ask: the requester's watermark rides along.
  SyncRequest delta_ask{PartitionId(5), Watermark{{1'000'000, 12}}};
  auto ask_bytes = encode(delta_ask);
  BinaryReader ar(ask_bytes);
  SyncRequest ask_back = decode_sync_request(ar);
  EXPECT_FALSE(ar.failed());
  EXPECT_EQ(ask_back.partition, PartitionId(5));
  ASSERT_TRUE(ask_back.since.has_value());
  EXPECT_EQ(ask_back.since->at(1'000'000), 12u);

  // Image answer: the store rows.
  SyncResponse image{PartitionId(6), true, {make_detection(1)}, {}, {}};
  auto image_bytes = encode(image);
  BinaryReader ir(image_bytes);
  SyncResponse image_back = decode_sync_response(ir);
  EXPECT_FALSE(ir.failed());
  EXPECT_EQ(image_back.partition, PartitionId(6));
  EXPECT_TRUE(image_back.image);
  ASSERT_EQ(image_back.detections.size(), 1u);
  EXPECT_EQ(image_back.detections[0], make_detection(1));

  // Delta answer: log entries past `since` plus the holder's watermark.
  SyncResponse delta{PartitionId(5), false, {}, {}, {}};
  delta.watermark[1'000'000] = 20;
  delta.entries.push_back({1'000'000, 13, {make_detection(4)}});
  auto delta_bytes = encode(delta);
  BinaryReader dr(delta_bytes);
  SyncResponse delta_back = decode_sync_response(dr);
  EXPECT_FALSE(dr.failed());
  EXPECT_EQ(delta_back.partition, PartitionId(5));
  EXPECT_FALSE(delta_back.image);
  EXPECT_TRUE(delta_back.detections.empty());
  EXPECT_EQ(delta_back.watermark.at(1'000'000), 20u);
  ASSERT_EQ(delta_back.entries.size(), 1u);
  EXPECT_EQ(delta_back.entries[0].pbid, 13u);
  ASSERT_EQ(delta_back.entries[0].detections.size(), 1u);
  EXPECT_EQ(delta_back.entries[0].detections[0], make_detection(4));
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
  SyncResponse response{PartitionId(6), true, {make_detection(1)}, {}, {}};
  response.watermark[1'000'000] = 41;
  response.watermark[2'000'003] = 7;
  response.entries.push_back({1'000'000, 42, {make_detection(2)}});
  response.entries.push_back({2'000'003, 8, {}});
  auto bytes = encode(response);
  BinaryReader r(bytes);
  SyncResponse back = decode_sync_response(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.watermark.at(1'000'000), 41u);
  EXPECT_EQ(back.watermark.at(2'000'003), 7u);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].source, 1'000'000u);
  EXPECT_EQ(back.entries[0].pbid, 42u);
  ASSERT_EQ(back.entries[0].detections.size(), 1u);
  EXPECT_EQ(back.entries[0].detections[0], make_detection(2));
  EXPECT_TRUE(back.entries[1].detections.empty());
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

TEST(ProtocolFuzz, SyncRequestDecoderRobust) {
  SyncRequest request{PartitionId(2), Watermark{{1, 5}, {2, 9}, {7, 40}}};
  fuzz_decoder(encode(request),
               [](BinaryReader& r) { return decode_sync_request(r); }, 8);
}

TEST(ProtocolFuzz, SyncResponseDecoderRobust) {
  // Image form: store rows, watermark and tail.
  SyncResponse image{PartitionId(2), true, {}, {{1, 5}}, {}};
  for (std::uint64_t i = 1; i <= 15; ++i) {
    image.detections.push_back(make_detection(i));
  }
  image.entries.push_back({1, 7, {make_detection(99)}});
  fuzz_decoder(encode(image),
               [](BinaryReader& r) { return decode_sync_response(r); }, 5);

  // Delta form: log entries only.
  SyncResponse delta{PartitionId(2), false, {}, {{1, 5}, {2, 9}}, {}};
  for (std::uint64_t i = 1; i <= 6; ++i) {
    delta.entries.push_back(
        {i % 2, 10 + i, {make_detection(i), make_detection(100 + i)}});
  }
  fuzz_decoder(encode(delta),
               [](BinaryReader& r) { return decode_sync_response(r); }, 6);
}

TEST(ProtocolFuzz, HeartbeatDecoderRobust) {
  fuzz_decoder(encode(heartbeat_with_summaries()),
               [](BinaryReader& r) { return decode_heartbeat(r); }, 7);
}

}  // namespace
}  // namespace stcn
