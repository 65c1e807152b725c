#include "common/stats.h"

#include <gtest/gtest.h>

namespace stcn {
namespace {

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, MergeEqualsBulk) {
  RunningStat bulk;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 100; ++i) {
    double x = i * 0.7 - 20.0;
    bulk.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), bulk.count());
  EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), bulk.min());
  EXPECT_DOUBLE_EQ(a.max(), bulk.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  a.add(3.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStat other;
  other.add(5.0);
  empty.merge(other);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(RunningStat, CoefficientOfVariation) {
  RunningStat balanced;
  for (int i = 0; i < 10; ++i) balanced.add(100.0);
  EXPECT_DOUBLE_EQ(balanced.cv(), 0.0);

  RunningStat skewed;
  skewed.add(0.0);
  skewed.add(200.0);
  EXPECT_GT(skewed.cv(), 1.0);
}

TEST(QuantileRecorder, Quantiles) {
  QuantileRecorder q;
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));
  EXPECT_EQ(q.count(), 100u);
  EXPECT_NEAR(q.median(), 50.0, 1.0);
  EXPECT_NEAR(q.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(q.quantile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(q.p99(), 99.0, 1.5);
  EXPECT_DOUBLE_EQ(q.mean(), 50.5);
}

// Exact nearest-rank semantics (index ⌈q·n⌉ - 1) at the sample counts
// where the old rounding formula sat one rank too high.
TEST(QuantileRecorder, ExactNearestRankSingleSample) {
  QuantileRecorder q;
  q.add(42.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(q.median(), 42.0);
  EXPECT_DOUBLE_EQ(q.p99(), 42.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 42.0);
}

TEST(QuantileRecorder, ExactNearestRankTwoSamples) {
  QuantileRecorder q;
  q.add(10.0);
  q.add(20.0);
  // ⌈0.5·2⌉-1 = 0: the nearest-rank median of two samples is the lower
  // one (the old formula returned 20).
  EXPECT_DOUBLE_EQ(q.median(), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.51), 20.0);
  EXPECT_DOUBLE_EQ(q.p99(), 20.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 20.0);
}

TEST(QuantileRecorder, ExactNearestRankHundredSamples) {
  QuantileRecorder q;
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));
  // ⌈q·100⌉-1 picks the q·100-th smallest exactly.
  EXPECT_DOUBLE_EQ(q.quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(q.median(), 50.0);  // old formula returned 51
  EXPECT_DOUBLE_EQ(q.quantile(0.75), 75.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.90), 90.0);
  EXPECT_DOUBLE_EQ(q.p99(), 99.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
}

TEST(QuantileRecorder, EmptyReturnsZero) {
  QuantileRecorder q;
  EXPECT_DOUBLE_EQ(q.median(), 0.0);
  EXPECT_DOUBLE_EQ(q.mean(), 0.0);
}

TEST(QuantileRecorder, InterleavedAddAndQuery) {
  QuantileRecorder q;
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.median(), 5.0);
  q.add(1.0);
  q.add(9.0);
  EXPECT_DOUBLE_EQ(q.median(), 5.0);  // re-sorts after new samples
}

}  // namespace
}  // namespace stcn
