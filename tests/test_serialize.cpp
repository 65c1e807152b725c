#include "common/serialize.h"

#include <gtest/gtest.h>

#include "query/query.h"
#include "query/result.h"
#include "trace/detection.h"

namespace stcn {
namespace {

TEST(BinaryRoundTrip, Primitives) {
  BinaryWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_double(3.14159);
  w.write_bool(true);
  w.write_bool(false);
  w.write_string("hello, camera network");

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_double(), 3.14159);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello, camera network");
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.failed());
}

TEST(BinaryRoundTrip, IdsAndTime) {
  BinaryWriter w;
  w.write_id(CameraId(7));
  w.write_id(ObjectId(1234567890123ULL));
  w.write_time(TimePoint(999));
  w.write_duration(Duration::seconds(3));

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_id<CameraIdTag>(), CameraId(7));
  EXPECT_EQ(r.read_id<ObjectIdTag>(), ObjectId(1234567890123ULL));
  EXPECT_EQ(r.read_time(), TimePoint(999));
  EXPECT_EQ(r.read_duration(), Duration::seconds(3));
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryRoundTrip, Vectors) {
  BinaryWriter w;
  std::vector<std::uint64_t> values{1, 2, 3, 100};
  w.write_vector(values, [](BinaryWriter& bw, std::uint64_t v) {
    bw.write_u64(v);
  });
  BinaryReader r(w.bytes());
  auto back = r.read_vector<std::uint64_t>(
      [](BinaryReader& br) { return br.read_u64(); });
  EXPECT_EQ(back, values);
}

TEST(BinaryReader, TruncatedReadFails) {
  BinaryWriter w;
  w.write_u32(7);
  BinaryReader r(w.bytes());
  r.read_u64();  // asks for more than available
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.status().is_ok());
  // Subsequent reads return zeros, no UB.
  EXPECT_EQ(r.read_u32(), 0u);
}

TEST(BinaryReader, CorruptStringLengthFails) {
  BinaryWriter w;
  w.write_u32(1000);  // claims 1000 bytes follow; none do
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.failed());
}

TEST(BinaryReader, CorruptVectorLengthFails) {
  BinaryWriter w;
  w.write_u32(0xFFFFFFFF);  // absurd element count
  BinaryReader r(w.bytes());
  auto v = r.read_vector<std::uint64_t>(
      [](BinaryReader& br) { return br.read_u64(); });
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(r.failed());
}

Detection make_detection() {
  Detection d;
  d.id = DetectionId(11);
  d.camera = CameraId(22);
  d.object = ObjectId(33);
  d.time = TimePoint(444555);
  d.position = {12.5, -7.25};
  d.appearance.values = {0.5f, -0.5f, 0.5f, -0.5f};
  d.confidence = 0.87;
  return d;
}

TEST(DetectionSerialization, RoundTrip) {
  Detection d = make_detection();
  BinaryWriter w;
  serialize(w, d);
  BinaryReader r(w.bytes());
  Detection back = deserialize_detection(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back, d);
}

TEST(QuerySerialization, RoundTripAllKinds) {
  std::vector<Query> queries = {
      Query::range(QueryId(1), {{0, 0}, {10, 10}},
                   {TimePoint(0), TimePoint(100)}),
      Query::circle_query(QueryId(2), {{5, 5}, 3.0},
                          {TimePoint(10), TimePoint(20)}),
      Query::knn(QueryId(3), {1, 2}, 7, TimeInterval::all()),
      Query::trajectory(QueryId(4), ObjectId(42),
                        {TimePoint(0), TimePoint(50)}),
      Query::count(QueryId(5), {{0, 0}, {1, 1}},
                   {TimePoint(0), TimePoint(1)}, GroupBy::kCamera),
      Query::camera_window(QueryId(6), CameraId(9),
                           {TimePoint(3), TimePoint(9)}),
  };
  for (const Query& q : queries) {
    BinaryWriter w;
    serialize(w, q);
    BinaryReader r(w.bytes());
    Query back = deserialize_query(r);
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(back.id, q.id);
    EXPECT_EQ(back.kind, q.kind);
    EXPECT_EQ(back.interval, q.interval);
    EXPECT_EQ(back.region, q.region);
    EXPECT_EQ(back.circle.center, q.circle.center);
    EXPECT_EQ(back.circle.radius, q.circle.radius);
    EXPECT_EQ(back.k, q.k);
    EXPECT_EQ(back.object, q.object);
    EXPECT_EQ(back.camera, q.camera);
    EXPECT_EQ(back.group_by, q.group_by);
  }
}

TEST(QueryResultSerialization, RoundTrip) {
  QueryResult result;
  result.query = QueryId(77);
  result.detections = {make_detection()};
  result.counts[0] = 5;
  result.counts[22] = 3;

  BinaryWriter w;
  serialize(w, result);
  BinaryReader r(w.bytes());
  QueryResult back = deserialize_query_result(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back.query, result.query);
  ASSERT_EQ(back.detections.size(), 1u);
  EXPECT_EQ(back.detections[0], result.detections[0]);
  EXPECT_EQ(back.counts, result.counts);
  EXPECT_EQ(back.total_count(), 8u);
}

TEST(AppearanceFeature, SimilarityAndNormalize) {
  AppearanceFeature a;
  a.values = {3.0f, 4.0f};
  a.normalize();
  EXPECT_NEAR(a.values[0], 0.6f, 1e-6);
  EXPECT_NEAR(a.values[1], 0.8f, 1e-6);

  AppearanceFeature b;
  b.values = {0.6f, 0.8f};
  EXPECT_NEAR(a.similarity(b), 1.0, 1e-6);

  AppearanceFeature orthogonal;
  orthogonal.values = {-0.8f, 0.6f};
  EXPECT_NEAR(a.similarity(orthogonal), 0.0, 1e-6);

  AppearanceFeature zero;
  zero.values = {0.0f, 0.0f};
  zero.normalize();  // must not divide by zero
  EXPECT_EQ(zero.values[0], 0.0f);
}

}  // namespace
}  // namespace stcn
