#include "metrics/histogram.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace evolve::metrics {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i <= 10; ++i) h.record(i);
  EXPECT_EQ(h.count(), 11);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 10);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_EQ(h.p50(), 5);
}

TEST(Histogram, PercentilesMonotonic) {
  Histogram h;
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) h.record(rng.uniform_int(0, 1000000));
  std::int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const auto v = h.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(Histogram, LargeValueRelativeError) {
  Histogram h;
  const std::int64_t value = 123456789;
  h.record(value);
  const auto p = h.percentile(50);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value),
              static_cast<double>(value) * 0.02);
}

TEST(Histogram, MultiValuePercentileStaysNearTrueValue) {
  // Bulk at one large value, a small tail at another: the p99 must land
  // on the bulk's bucket (within the 1/64 relative bucket error), not be
  // inflated by bucket-midpoint mismatch. min/max clamping cannot rescue
  // a wrong answer here because both values are interior.
  Histogram h;
  h.record_n(30000, 9000);
  h.record_n(120000, 24);
  EXPECT_NEAR(static_cast<double>(h.p99()), 30000.0, 30000.0 / 64.0 + 1);
  EXPECT_NEAR(static_cast<double>(h.percentile(99.9)), 120000.0,
              120000.0 / 64.0 + 1);
}

TEST(Histogram, BucketRelativeErrorBoundedAcrossOctaves) {
  for (const std::int64_t value :
       {std::int64_t{100}, std::int64_t{1000}, std::int64_t{65537},
        std::int64_t{1000000}, std::int64_t{123456789012}}) {
    Histogram h;
    h.record_n(1, 50);  // half the mass far below
    h.record_n(value, 50);
    const auto p90 = h.percentile(90);
    EXPECT_NEAR(static_cast<double>(p90), static_cast<double>(value),
                static_cast<double>(value) / 64.0 + 1)
        << "value=" << value;
  }
}

TEST(Histogram, P999ReadsTheExtremeTail) {
  Histogram h;
  h.record_n(10, 9990);
  h.record_n(5000, 10);
  EXPECT_EQ(h.p50(), 10);
  EXPECT_EQ(h.p99(), 10);
  EXPECT_NEAR(static_cast<double>(h.p999()), 5000.0, 5000.0 / 64.0 + 1);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(Histogram, RecordNCounts) {
  Histogram h;
  h.record_n(7, 100);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.p50(), 7);
  h.record_n(9, 0);   // no-op
  h.record_n(9, -5);  // no-op
  EXPECT_EQ(h.count(), 100);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), 505.0, 1.0);
}

TEST(Histogram, MergeEmptyIsNoop) {
  Histogram a, b;
  a.record(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  b.merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_EQ(b.min(), 5);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(9);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

TEST(Histogram, StddevUniformApprox) {
  Histogram h;
  util::Rng rng(11);
  for (int i = 0; i < 100000; ++i) h.record(rng.uniform_int(0, 1000));
  // Uniform[0,1000] stddev ~= 1001/sqrt(12) ~= 289.
  EXPECT_NEAR(h.stddev(), 289.0, 10.0);
}

TEST(Histogram, PercentileBoundedByMinMax) {
  Histogram h;
  h.record(100);
  h.record(200);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 100);
    EXPECT_LE(h.percentile(p), 200);
  }
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h;
  h.record(1);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

// Property sweep: quantile accuracy within ~2% relative error across
// magnitudes.
class HistogramAccuracy : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramAccuracy, SingleValueRoundTrips) {
  Histogram h;
  const std::int64_t value = GetParam();
  h.record(value);
  const auto back = h.percentile(50);
  const double tolerance = std::max<double>(1.0, static_cast<double>(value) * 0.02);
  EXPECT_NEAR(static_cast<double>(back), static_cast<double>(value), tolerance);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramAccuracy,
                         ::testing::Values(0, 1, 63, 64, 65, 1000, 4095, 4096,
                                           1 << 20, (std::int64_t{1} << 40) + 17));

// Regression: the naive E[x^2] - E[x]^2 variance cancels catastrophically
// once values carry a large offset (ns timestamps): both terms are ~1e24
// while their difference is ~1. The Welford form must stay exact-ish.
TEST(Histogram, StddevSurvivesLargeOffsets) {
  Histogram h;
  const std::int64_t offset = 1'000'000'000'000;  // ~16 min in ns
  h.record(offset);
  h.record(offset + 1);
  h.record(offset + 2);
  // Population stddev of {0,1,2} is sqrt(2/3).
  EXPECT_NEAR(h.stddev(), 0.816496580927726, 1e-6);
}

TEST(Histogram, StddevOfConstantLargeValuesIsZero) {
  Histogram h;
  h.record_n(1'234'567'890'123, 1000);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, RecordNMatchesRepeatedRecord) {
  Histogram a, b;
  const std::int64_t offset = 5'000'000'000'000;
  for (int i = 0; i < 500; ++i) a.record(offset + (i % 7));
  for (int v = 0; v < 7; ++v) {
    b.record_n(offset + v, v < 3 ? 72 : 71);  // 500 total, same multiset
  }
  ASSERT_EQ(a.count(), b.count());
  // Batched (Chan) vs sequential (Welford) accumulation differ only by
  // FP ordering; at a 5e12 offset the naive form would be off by ~2.0.
  EXPECT_NEAR(a.stddev(), b.stddev(), 1e-2);
  EXPECT_NEAR(a.mean(), b.mean(), 1e-3);
}

TEST(Histogram, MergePreservesStddevAtLargeOffsets) {
  Histogram left, right, whole;
  const std::int64_t offset = 900'000'000'000'000;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = offset + 10 * i;
    (i % 2 ? left : right).record(v);
    whole.record(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-6);
  // And merging an empty histogram is a no-op.
  Histogram empty;
  const double before = left.stddev();
  left.merge(empty);
  EXPECT_DOUBLE_EQ(left.stddev(), before);
}

TEST(HedgePolicy, FloorsUntilWarmThenTracksTheQuantile) {
  const HedgePolicy policy{95.0, util::millis(2), 20};
  Histogram slow_us;
  for (int i = 0; i < 19; ++i) slow_us.record(10'000);
  EXPECT_EQ(policy.delay(slow_us), util::millis(2));  // still warming up
  slow_us.record(10'000);
  EXPECT_NEAR(static_cast<double>(policy.delay(slow_us)),
              static_cast<double>(util::millis(10)), util::millis(10) / 50.0);
  // A quantile below the floor still waits the floor.
  Histogram fast_us;
  for (int i = 0; i < 20; ++i) fast_us.record(100);
  EXPECT_EQ(policy.delay(fast_us), util::millis(2));
}

}  // namespace
}  // namespace evolve::metrics
