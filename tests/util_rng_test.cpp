#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace evolve::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntThrowsOnBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  const double rate = 4.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ZipfSkewPrefersLowRanks) {
  Rng rng(19);
  const int n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(n, 1.2))];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10 * counts[n - 1] / 2 + 1);
}

TEST(Rng, ZipfZeroSkewIsUniformish) {
  Rng rng(23);
  const int n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(n, 0.0))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 10.0, trials * 0.01);
  }
}

TEST(Rng, ZipfBoundsRespected) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.zipf(7, 0.9);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

TEST(Rng, ZipfRejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.zipf(10, -0.5), std::invalid_argument);
  EXPECT_THROW(rng.zipf(10, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // A rejected call draws nothing: the stream continues as if it never
  // happened.
  Rng fresh(1);
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

// Reference Zipf sampler: the original inverse CDF by linear scan, kept
// here to pin the draw stream. Each term 1/i^s is computed once per (n, s)
// rather than on every draw, which keeps the test fast without changing
// any double: the normaliser and every partial sum come from the same
// left-to-right additions of the same terms.
class LinearScanZipf {
 public:
  std::int64_t draw(Rng& rng, std::int64_t n, double s) {
    if (s == 0.0) return rng.uniform_int(0, n - 1);
    if (n != n_ || s != s_) {
      n_ = n;
      s_ = s;
      terms_.clear();
      norm_ = 0.0;
      for (std::int64_t i = 1; i <= n; ++i) {
        terms_.push_back(1.0 / std::pow(static_cast<double>(i), s));
        norm_ += terms_.back();
      }
    }
    const double target = rng.next_double() * norm_;
    double acc = 0.0;
    for (std::int64_t i = 1; i <= n; ++i) {
      acc += terms_[static_cast<std::size_t>(i - 1)];
      if (acc >= target) return i - 1;
    }
    return n - 1;
  }

 private:
  std::int64_t n_ = -1;
  double s_ = -1.0;
  double norm_ = 0.0;
  std::vector<double> terms_;
};

TEST(Rng, ZipfMatchesLinearScanReference) {
  struct Case {
    std::int64_t n;
    double s;
  };
  for (const Case c : {Case{1, 1.0}, Case{7, 0.9}, Case{100, 1.2},
                       Case{65536, 1.05}, Case{65536, 0.9}}) {
    Rng rng(1234), ref_rng(1234);
    LinearScanZipf ref;
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.zipf(c.n, c.s), ref.draw(ref_rng, c.n, c.s))
          << "n=" << c.n << " s=" << c.s << " draw " << i;
    }
  }

  // One generator switching (n, s) rebuilds its table each time; a
  // uniform (s = 0) draw in between must not disturb it.
  {
    Rng rng(77), ref_rng(77);
    LinearScanZipf ref;
    for (int block = 0; block < 40; ++block) {
      const std::int64_t n = block % 2 == 0 ? 4096 : 100;
      const double s = block % 2 == 0 ? 1.05 : 0.7;
      for (int i = 0; i < 250; ++i) {
        ASSERT_EQ(rng.zipf(n, s), ref.draw(ref_rng, n, s))
            << "block " << block << " draw " << i;
      }
      ASSERT_EQ(rng.zipf(50, 0.0), ref.draw(ref_rng, 50, 0.0));
    }
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t n = i % 2 == 0 ? 7 : 300;
      const double s = i % 2 == 0 ? 0.9 : 1.3;
      ASSERT_EQ(rng.zipf(n, s), ref.draw(ref_rng, n, s)) << "draw " << i;
    }
  }

  // A copy taken mid-stream carries the table and the generator state.
  {
    Rng original(2024), ref_rng(2024);
    LinearScanZipf ref;
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(original.zipf(65536, 1.05), ref.draw(ref_rng, 65536, 1.05));
    }
    Rng copy = original;
    for (int i = 0; i < 10000; ++i) {
      const std::int64_t expected = ref.draw(ref_rng, 65536, 1.05);
      ASSERT_EQ(original.zipf(65536, 1.05), expected) << "draw " << i;
      ASSERT_EQ(copy.zipf(65536, 1.05), expected) << "draw " << i;
    }
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexHonorsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.9, 0.02);
}

TEST(Rng, WeightedIndexThrowsOnZeroMass) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  // Child stream should not equal the parent continuation.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, LognormalPositive) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
  EXPECT_EQ(splitmix64(s2), b);
}

}  // namespace
}  // namespace evolve::util
