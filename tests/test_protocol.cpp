// Wire-protocol codecs: round trips and corruption robustness.
//
// A distributed system's decoders run on bytes from the network; they must
// never crash, loop, or read out of bounds on truncated or corrupted input
// — at worst they report failure. These tests round-trip every message
// type and then fuzz the decoders with truncation and random bit flips.
#include "core/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <span>
#include <tuple>

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

/// A batch's encoded row vector, written the way every detection vector
/// crosses the wire.
std::vector<std::uint8_t> rows_of(const std::vector<Detection>& detections) {
  BinaryWriter w;
  w.write_vector(detections,
                 [](BinaryWriter& bw, const Detection& d) { serialize(bw, d); });
  return w.take();
}

/// A store holding rows 1..n; `tiered` demotes every sealed block.
DetectionStore store_of(std::size_t n, bool tiered) {
  DetectionStore store;
  if (tiered) store.set_tier_config({true, 0});
  for (std::uint64_t id = 1; id <= n; ++id) {
    (void)store.append(make_detection(id));
  }
  return store;
}

/// The rows of a store, in row order.
std::vector<Detection> rows_in(const DetectionStore& store) {
  std::vector<Detection> rows;
  for (std::size_t i = 0; i < store.size(); ++i) {
    rows.push_back(store.get(static_cast<DetectionRef>(i)));
  }
  return rows;
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
  response.result.counts = {{3, 14}};
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
  EXPECT_EQ(back.result.counts, (CountPairs{{3, 14}}));
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

  // Image answer: the holder's store.
  DetectionStore store = store_of(1, false);
  auto image_bytes = encode_sync_response(PartitionId(6), &store, {}, {});
  BinaryReader ir(image_bytes);
  SyncResponse image_back = decode_sync_response(ir);
  EXPECT_TRUE(ir.at_end());
  EXPECT_EQ(image_back.partition, PartitionId(6));
  ASSERT_TRUE(image_back.image.has_value());
  ASSERT_EQ(image_back.image->size(), 1u);
  EXPECT_EQ(image_back.image->get(DetectionRef{0}), make_detection(1));

  // Delta answer: log entries past `since` plus the holder's watermark.
  auto delta_bytes = encode_sync_response(
      PartitionId(5), nullptr, {{1'000'000, 20}},
      {{1'000'000, 13, rows_of({make_detection(4)})}});
  BinaryReader dr(delta_bytes);
  SyncResponse delta_back = decode_sync_response(dr);
  EXPECT_TRUE(dr.at_end());
  EXPECT_EQ(delta_back.partition, PartitionId(5));
  EXPECT_FALSE(delta_back.image.has_value());
  EXPECT_EQ(delta_back.watermark.at(1'000'000), 20u);
  ASSERT_EQ(delta_back.entries.size(), 1u);
  EXPECT_EQ(delta_back.entries[0].pbid, 13u);
  EXPECT_EQ(delta_back.entries[0].rows, rows_of({make_detection(4)}));
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
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "hot");
    DetectionStore store = store_of(kDetectionBlockRows + 100, tiered);
    ASSERT_EQ(store.cold_block_count(), tiered ? 1u : 0u);
    auto bytes = encode_sync_response(
        PartitionId(6), &store, {{1'000'000, 41}, {2'000'003, 7}},
        {{1'000'000, 42, rows_of({make_detection(2)})},
         {2'000'003, 8, rows_of({})}});
    BinaryReader r(bytes);
    SyncResponse back = decode_sync_response(r);
    EXPECT_TRUE(r.at_end());
    // The image arrives block for block: cold blocks stay compressed.
    ASSERT_TRUE(back.image.has_value());
    EXPECT_EQ(back.image->cold_block_count(), store.cold_block_count());
    EXPECT_EQ(back.image->compressed_bytes(), store.compressed_bytes());
    EXPECT_EQ(rows_in(*back.image), rows_in(store));
    EXPECT_EQ(back.watermark.at(1'000'000), 41u);
    EXPECT_EQ(back.watermark.at(2'000'003), 7u);
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].source, 1'000'000u);
    EXPECT_EQ(back.entries[0].pbid, 42u);
    EXPECT_EQ(back.entries[0].rows, rows_of({make_detection(2)}));
    EXPECT_EQ(back.entries[1].rows, rows_of({}));
  }
}

TEST(Protocol, SyncResponseEntriesAreTheIngestRowBytes) {
  // A replay entry keeps the row bytes its ingest batch carried, and an
  // answer ships them verbatim: the encoding equals one built field by
  // field, with each entry's rows written as any detection vector is.
  std::vector<Detection> first = {make_detection(4), make_detection(5)};
  std::vector<Detection> second = {make_detection(6)};
  auto batch = encode(IngestBatch{PartitionId(5), true, first, 13});
  std::span<const std::uint8_t> kept = ingest_batch_rows(batch);
  ASSERT_EQ(std::vector<std::uint8_t>(kept.begin(), kept.end()),
            rows_of(first));

  Watermark mark{{1'000'000, 20}, {2'000'003, 3}};
  std::vector<ReplayEntry> entries = {
      {1'000'000, 13, {kept.begin(), kept.end()}},
      {2'000'003, 0, rows_of(second)}};
  auto expected = [&](bool image, const DetectionStore& store) {
    BinaryWriter w;
    w.write_u64(5);
    w.write_u8(image ? 1 : 0);
    if (image) store.serialize_to(w);
    w.write_u32(2);
    w.write_u64(1'000'000);
    w.write_u64(20);
    w.write_u64(2'000'003);
    w.write_u64(3);
    w.write_u32(2);
    for (auto [source, pbid, rows] :
         {std::tuple{1'000'000u, 13u, &first},
          std::tuple{2'000'003u, 0u, &second}}) {
      w.write_u64(source);
      w.write_u64(pbid);
      w.write_vector(*rows, [](BinaryWriter& bw, const Detection& d) {
        serialize(bw, d);
      });
    }
    return w.take();
  };
  EXPECT_EQ(encode_sync_response(PartitionId(5), nullptr, mark, entries),
            expected(false, {}));
  DetectionStore tiered = store_of(kDetectionBlockRows + 3, true);
  EXPECT_EQ(encode_sync_response(PartitionId(5), &tiered, mark, entries),
            expected(true, tiered));
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
    response.result.counts.emplace_back(i, i);
  }
  fuzz_decoder(encode(response),
               [](BinaryReader& r) { return decode_query_response(r); }, 3);
}

/// A query response with no rows whose count section is `pairs` as given,
/// in any order, followed by zeroed scan stats.
std::vector<std::uint8_t> count_response_bytes(std::uint32_t declared,
                                               const CountPairs& pairs) {
  BinaryWriter w;
  w.write_u64(5);  // request id
  w.write_u64(2);  // sub id
  w.write_id(QueryId(8));
  w.write_u32(0);  // no rows
  w.write_u32(declared);
  for (auto [key, n] : pairs) {
    w.write_u64(key);
    w.write_u64(n);
  }
  for (int i = 0; i < 10; ++i) w.write_u64(0);  // scan stats
  return w.take();
}

TEST(ProtocolFuzz, QueryResponseCountPairsBeyondBytesFailCleanly) {
  CountPairs pairs = {{1, 1}, {2, 2}};
  // 2 pairs and the scan stats leave 112 bytes after the count: 8 pairs
  // already overrun them, and 2^32 - 1 must not size an allocation.
  for (std::uint32_t declared : {8u, 1'000'000u, 0xFFFF'FFFFu}) {
    std::vector<std::uint8_t> bytes = count_response_bytes(declared, pairs);
    BinaryReader r(bytes);
    QueryResponse back = decode_query_response(r);
    EXPECT_TRUE(r.failed()) << declared;
    EXPECT_EQ(back.result.counts.capacity(), 0u) << declared;
  }
  // A count that fits the bytes but runs into the scan stats decodes them
  // as pairs and then fails on the truncated stats.
  std::vector<std::uint8_t> bytes = count_response_bytes(3, pairs);
  BinaryReader r(bytes);
  (void)decode_query_response(r);
  EXPECT_TRUE(r.failed());
}

TEST(ProtocolFuzz, QueryResponseCountPairsShuffledOrRepeatedKeysSum) {
  CountPairs wire = {{7, 1}, {3, 2}, {7, 4}, {0, 0}, {3, 1}, {1ull << 63, 9}};
  std::vector<std::uint8_t> bytes =
      count_response_bytes(static_cast<std::uint32_t>(wire.size()), wire);
  BinaryReader r(bytes);
  QueryResponse back = decode_query_response(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.result.counts,
            (CountPairs{{0, 0}, {3, 3}, {7, 5}, {1ull << 63, 9}}));
  EXPECT_EQ(back.request_id, 5u);
  EXPECT_EQ(back.result.query, QueryId(8));

  // Keys already ascending but one repeated at the end.
  bytes = count_response_bytes(3, {{1, 1}, {4, 1}, {4, 6}});
  BinaryReader again(bytes);
  EXPECT_EQ(decode_query_response(again).result.counts,
            (CountPairs{{1, 1}, {4, 7}}));
  EXPECT_TRUE(again.at_end());
}

TEST(ProtocolFuzz, QueryResponseCountPairsRoundTripByteForByte) {
  QueryResponse response;
  response.request_id = 11;
  response.sub_id = 3;
  response.result.query = QueryId(4);
  response.result.detections = {make_detection(1), make_detection(2)};
  response.result.counts = {{0, 0}, {5, 2}, {6, 1}, {~0ull, 40}};
  response.scan.rows_scanned = 9;
  response.scan_wall_us = 77;
  std::vector<std::uint8_t> bytes = encode(response);
  BinaryReader r(bytes);
  QueryResponse back = decode_query_response(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.result.counts, response.result.counts);
  EXPECT_EQ(encode(back), bytes);
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
  // Image form, hot and tiered: store image, watermark and tail.
  for (bool tiered : {false, true}) {
    DetectionStore store =
        store_of(tiered ? kDetectionBlockRows + 15 : 15, tiered);
    fuzz_decoder(encode_sync_response(PartitionId(2), &store, {{1, 5}},
                                      {{1, 7, rows_of({make_detection(99)})}}),
                 [](BinaryReader& r) { return decode_sync_response(r); },
                 tiered ? 11 : 5);
  }

  // Delta form: log entries only.
  std::vector<ReplayEntry> entries;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    entries.push_back(
        {i % 2, 10 + i, rows_of({make_detection(i), make_detection(100 + i)})});
  }
  fuzz_decoder(encode_sync_response(PartitionId(2), nullptr, {{1, 5}, {2, 9}},
                                    entries),
               [](BinaryReader& r) { return decode_sync_response(r); }, 6);
}

TEST(ProtocolFuzz, HeartbeatDecoderRobust) {
  fuzz_decoder(encode(heartbeat_with_summaries()),
               [](BinaryReader& r) { return decode_heartbeat(r); }, 7);
}


/// A valid encoding with the last row's embedding dim rewritten to claim
/// more floats than the bytes that remain; `dim_at` is that field's offset.
std::vector<std::uint8_t> with_oversized_dim(std::vector<std::uint8_t> bytes,
                                             std::size_t dim_at) {
  std::uint32_t dim = 0;
  std::memcpy(&dim, bytes.data() + dim_at, sizeof dim);
  EXPECT_EQ(dim, 4u);  // make_detection's embedding
  std::uint32_t claim =
      static_cast<std::uint32_t>((bytes.size() - dim_at) / sizeof(float)) + 1;
  std::memcpy(bytes.data() + dim_at, &claim, sizeof claim);
  return bytes;
}

TEST(ProtocolFuzz, IngestBatchOversizedDimFails) {
  IngestBatch batch{PartitionId(1), false,
                    {make_detection(1), make_detection(2)}};
  auto valid = encode(batch);
  // Header (partition, replica flag, pbid, row count), one full row, then
  // the second row's dim.
  std::size_t dim_at = 8 + 1 + 8 + 4 + wire_size(batch.detections[0]) + 56;
  auto bytes = with_oversized_dim(valid, dim_at);
  BinaryReader r(bytes);
  IngestBatch back = decode_ingest_batch(r);
  EXPECT_TRUE(r.failed());
  fuzz_decoder(bytes, [](BinaryReader& br) { return decode_ingest_batch(br); },
               9);
}

TEST(ProtocolFuzz, QueryResponseOversizedDimFails) {
  QueryResponse response;
  response.result.query = QueryId(1);
  response.result.detections = {make_detection(1)};
  auto valid = encode(response);
  // request id, sub id, query id, row count, then the row's dim.
  auto bytes = with_oversized_dim(valid, 8 + 8 + 8 + 4 + 56);
  BinaryReader r(bytes);
  QueryResponse back = decode_query_response(r);
  EXPECT_TRUE(r.failed());
  fuzz_decoder(bytes,
               [](BinaryReader& br) { return decode_query_response(br); }, 10);
}

TEST(ProtocolFuzz, SyncResponseEntryOversizedDimFails) {
  auto valid = encode_sync_response(
      PartitionId(2), nullptr, {{1, 5}},
      {{1, 6, rows_of({make_detection(1)})},
       {1, 7, rows_of({make_detection(2), make_detection(3)})}});
  // partition, image flag, watermark (count + one pair), entry count, the
  // first entry (identity + rows), the second's identity and row count,
  // one full row, then the second row's dim.
  std::size_t first_entry = 16 + 4 + wire_size(make_detection(1));
  std::size_t dim_at = 8 + 1 + (4 + 16) + 4 + first_entry + 16 + 4 +
                       wire_size(make_detection(2)) + 56;
  auto bytes = with_oversized_dim(valid, dim_at);
  BinaryReader r(bytes);
  SyncResponse back = decode_sync_response(r);
  EXPECT_TRUE(r.failed());
  // The entry is dropped before its row bytes are kept.
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_TRUE(back.entries[1].rows.empty());
  fuzz_decoder(bytes,
               [](BinaryReader& br) { return decode_sync_response(br); }, 12);
}

// ------------------------------------- fragments written from the stores

/// Rows on a small lattice with few distinct times, so both answer orders
/// have many ties. Embedding dims vary from row to row.
Detection lattice_row(Rng& rng, std::uint64_t id) {
  Detection d;
  d.id = DetectionId(id);
  d.camera = CameraId(1 + rng.uniform_index(3));
  d.object = ObjectId(rng.uniform_index(7));
  d.time = TimePoint(rng.uniform_int(0, 5) * 100);
  d.position = {static_cast<double>(rng.uniform_int(-3, 3)),
                static_cast<double>(rng.uniform_int(-3, 3))};
  d.confidence = rng.uniform();
  d.appearance.values.resize(rng.uniform_index(3) == 0 ? 0 : 16);
  for (float& v : d.appearance.values) {
    v = static_cast<float>(rng.uniform(-1, 1));
  }
  return d;
}

/// One worker's partitions: two hot stores that share some rows (copies of
/// one row on two partitions, as a duplicated delivery leaves them) and a
/// tiered store whose sealed blocks are cold.
struct WorkerStores {
  std::vector<DetectionStore> stores{3};

  explicit WorkerStores(Rng& rng) {
    stores[2].set_tier_config({true, 0});
    std::uint64_t id = 1;
    for (int i = 0; i < 300; ++i) {
      Detection d = lattice_row(rng, id++);
      (void)stores[0].append(d);
      if (rng.bernoulli(0.3)) (void)stores[1].append(d);
    }
    for (int i = 0; i < 200; ++i) {
      (void)stores[1].append(lattice_row(rng, id++));
    }
    for (std::size_t i = 0; i < 2 * kDetectionBlockRows + 700; ++i) {
      (void)stores[2].append(lattice_row(rng, id++));
    }
  }
};

/// A row-returning query over the lattice, with `limit` set on half.
Query random_row_query(Rng& rng, QueryId id) {
  TimePoint t0(rng.uniform_int(0, 5) * 100);
  Duration span = Duration::micros(rng.uniform_int(1, 400));
  TimeInterval window =
      rng.bernoulli(0.3) ? TimeInterval::all() : TimeInterval{t0, t0 + span};
  Point c{static_cast<double>(rng.uniform_int(-3, 3)),
          static_cast<double>(rng.uniform_int(-3, 3))};
  Query q;
  switch (rng.uniform_index(5)) {
    case 0:
      q = Query::range(id, {c - Point{2, 2}, c + Point{1, 2}}, window);
      break;
    case 1:
      q = Query::circle_query(id, {c, rng.uniform(0, 3)}, window);
      break;
    case 2:
      q = Query::knn(id, c,
                     static_cast<std::uint32_t>(1 + rng.uniform_index(40)),
                     window);
      break;
    case 3:
      q = Query::trajectory(id, ObjectId(rng.uniform_index(7)), window);
      break;
    default:
      q = Query::camera_window(id, CameraId(1 + rng.uniform_index(3)), window);
      break;
  }
  if (q.kind != QueryKind::kKnn && rng.bernoulli(0.5)) {
    q = q.with_limit(static_cast<std::uint32_t>(1 + rng.uniform_index(60)));
  }
  return q;
}

/// Today's materialized fragment: every store's execute() merged and
/// ordered by ResultMerger, then encoded.
std::vector<std::uint8_t> materialized_payload(
    const std::vector<DetectionStore>& stores, const Query& q) {
  ResultMerger merger(q);
  ScanStats stats;
  for (const DetectionStore& s : stores) {
    merger.add(LocalExecutor::execute(s, q, &stats));
  }
  return encode(QueryResponse{5, 6, merger.take(), stats, 77});
}

/// The worker's path: select() on every store, rows written in place.
std::vector<std::uint8_t> direct_payload(
    const std::vector<DetectionStore>& stores, const Query& q) {
  std::vector<FragmentRow> rows;
  ScanStats stats;
  for (const DetectionStore& s : stores) {
    std::vector<DetectionRef> refs = LocalExecutor::select(s, q, stats.store);
    stats.rows_scanned += refs.size();
    for (DetectionRef ref : refs) rows.push_back({s.row_key(ref), &s, ref});
  }
  return encode_rows_response(5, 6, q, std::move(rows), stats, 77);
}

/// The answer written without order_rows: a first-seen union of every
/// store's rows, sorted and cut by the query's rule.
std::vector<Detection> reference_answer(
    const std::vector<DetectionStore>& stores, const Query& q) {
  std::vector<Detection> out;
  std::set<std::uint64_t> seen;
  for (const DetectionStore& s : stores) {
    for (const Detection& d : LocalExecutor::execute(s, q).detections) {
      if (seen.insert(d.id.value()).second) out.push_back(d);
    }
  }
  Point c = q.circle.center;
  auto before = [&](const Detection& a, const Detection& b) {
    if (q.kind == QueryKind::kKnn) {
      double da = squared_distance(a.position, c);
      double db = squared_distance(b.position, c);
      if (da != db) return da < db;
    } else if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.id < b.id;
  };
  std::sort(out.begin(), out.end(), before);
  std::size_t cut = q.kind == QueryKind::kKnn ? q.k
                    : q.limit > 0            ? q.limit
                                             : out.size();
  if (out.size() > cut) out.resize(cut);
  return out;
}

TEST(RowsResponseDifferential, ByteIdenticalToMaterializedMerge) {
  int knn_ties = 0;
  int limited = 0;
  int cold_rows = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    WorkerStores w(rng);
    ASSERT_GT(w.stores[2].cold_block_count(), 0u);
    for (int trial = 0; trial < 150; ++trial) {
      Query q = random_row_query(rng, QueryId(trial));
      if (q.kind == QueryKind::kKnn && rng.bernoulli(0.7)) {
        // Put the cut at a distance tie when the union has one.
        Query all = q;
        all.k = 1'000'000;
        std::vector<Detection> ranked = reference_answer(w.stores, all);
        for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
          if (squared_distance(ranked[i].position, q.circle.center) ==
              squared_distance(ranked[i + 1].position, q.circle.center)) {
            q.k = static_cast<std::uint32_t>(i + 1);
            ++knn_ties;
            break;
          }
        }
      }
      limited += q.limit > 0;
      std::vector<std::uint8_t> want = materialized_payload(w.stores, q);
      std::vector<std::uint8_t> got = direct_payload(w.stores, q);
      ASSERT_EQ(got, want) << "seed " << seed << " trial " << trial
                           << " kind " << query_kind_name(q.kind);

      BinaryReader r(got);
      QueryResponse back = decode_query_response(r);
      ASSERT_TRUE(r.at_end());
      ASSERT_EQ(back.result.detections, reference_answer(w.stores, q))
          << "seed " << seed << " trial " << trial;
      for (const Detection& d : back.result.detections) {
        cold_rows += d.id.value() > 500 &&
                     d.id.value() <= 500 + w.stores[2].cold_rows();
      }
    }
  }
  EXPECT_GT(knn_ties, 30);
  EXPECT_GT(limited, 100);
  EXPECT_GT(cold_rows, 1000);
}

TEST(RowsResponseDifferential, WriteRowMatchesSerializeOfGet) {
  Rng rng(4);
  WorkerStores w(rng);
  for (const DetectionStore& s : w.stores) {
    for (std::uint32_t i = 0; i < s.size(); ++i) {
      auto ref = static_cast<DetectionRef>(i);
      BinaryWriter direct;
      s.write_row(direct, ref);
      BinaryWriter materialized;
      serialize(materialized, s.get(ref));
      ASSERT_EQ(direct.bytes(), materialized.bytes()) << "row " << i;
      ASSERT_EQ(s.row_wire_size(ref), direct.size());
      RowKey key = s.row_key(ref);
      Detection d = s.get(ref);
      ASSERT_EQ(key.id, d.id);
      ASSERT_EQ(key.time, d.time);
      ASSERT_EQ(key.position, d.position);
    }
  }
}

TEST(RowsResponseDifferential, EmptySelectionMatchesEmptyMerge) {
  Rng rng(5);
  WorkerStores w(rng);
  Query q = Query::camera_window(QueryId(1), CameraId(99), TimeInterval::all());
  EXPECT_EQ(direct_payload(w.stores, q), materialized_payload(w.stores, q));
  EXPECT_EQ(direct_payload({}, q), materialized_payload({}, q));
}

}  // namespace
}  // namespace stcn
