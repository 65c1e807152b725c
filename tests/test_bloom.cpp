#include "index/bloom.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stcn {
namespace {

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter f(1024, 4);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(f.may_contain(k));
  }
  EXPECT_DOUBLE_EQ(f.fill_ratio(), 0.0);
  EXPECT_EQ(f.inserted(), 0u);
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter f(2048, 4);
  Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.next_u64());
  for (std::uint64_t k : keys) f.insert(k);
  for (std::uint64_t k : keys) {
    ASSERT_TRUE(f.may_contain(k)) << "false negative for " << k;
  }
  EXPECT_EQ(f.inserted(), 200u);
}

TEST(BloomFilter, FalsePositiveRateReasonable) {
  BloomFilter f(4096, 4);
  Rng rng(2);
  for (int i = 0; i < 300; ++i) f.insert(rng.next_u64());
  // ~300 keys in 4096 bits with 4 hashes → theoretical fp ≈ 0.5%.
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (f.may_contain(rng.next_u64())) ++false_positives;
  }
  EXPECT_LT(false_positives, probes / 20)
      << "fp rate " << false_positives << "/" << probes;
}

TEST(BloomFilter, BitsRoundedUpTo64) {
  BloomFilter f(65, 2);
  EXPECT_EQ(f.bit_count(), 128u);
}

TEST(BloomFilter, ClearEmpties) {
  BloomFilter f(1024, 4);
  f.insert(42);
  ASSERT_TRUE(f.may_contain(42));
  f.clear();
  EXPECT_FALSE(f.may_contain(42));
  EXPECT_EQ(f.inserted(), 0u);
}

TEST(BloomFilter, MergeIsUnion) {
  BloomFilter a(1024, 4);
  BloomFilter b(1024, 4);
  a.insert(1);
  a.insert(2);
  b.insert(3);
  a.merge(b);
  EXPECT_TRUE(a.may_contain(1));
  EXPECT_TRUE(a.may_contain(2));
  EXPECT_TRUE(a.may_contain(3));
  EXPECT_EQ(a.inserted(), 3u);
}

TEST(BloomFilter, SerializationRoundTrip) {
  BloomFilter f(2048, 5);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) f.insert(rng.next_u64());
  BinaryWriter w;
  f.serialize_to(w);
  BinaryReader r(w.bytes());
  BloomFilter back = BloomFilter::deserialize_from(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(back, f);
  EXPECT_EQ(back.inserted(), 100u);
}

TEST(BloomFilter, DeserializeRejectsGarbage) {
  BinaryWriter w;
  w.write_u32(0xFFFFFFFF);  // absurd word count
  w.write_u8(4);
  w.write_u64(0);
  BinaryReader r(w.bytes());
  (void)BloomFilter::deserialize_from(r);
  // Must not crash or allocate terabytes, and must flag the reader: the
  // placeholder filter it returns reads "absent" for every key.
  EXPECT_TRUE(r.failed());
}

TEST(BloomFilter, FillRatioGrowsWithInsertions) {
  BloomFilter f(1024, 4);
  double prev = 0.0;
  Rng rng(4);
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) f.insert(rng.next_u64());
    double ratio = f.fill_ratio();
    EXPECT_GT(ratio, prev);
    prev = ratio;
  }
  EXPECT_LT(prev, 1.0);
}

}  // namespace
}  // namespace stcn
