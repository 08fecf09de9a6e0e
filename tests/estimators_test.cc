// Tests for ats/estimators/: subset sums, Kendall tau, central moments,
// distinct counts (Sections 2.6, 3.4).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/estimators/kendall_tau.h"
#include "ats/estimators/moments.h"
#include "ats/estimators/subset_sum.h"
#include "ats/util/stats.h"
#include "ats/workload/synthetic.h"

namespace ats {
namespace {

// Fixed-threshold uniform Poisson sample over values[0..n).
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

TEST(SubsetSum, EstimateTotalWithCi) {
  Xoshiro256 rng(1);
  std::vector<double> values(300);
  double truth = 0.0;
  for (double& v : values) {
    v = 1.0 + rng.NextDouble();
    truth += v;
  }
  int covered = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawUniformSample(values, 0.3, rng);
    const auto est = EstimateTotal(sample);
    if (std::abs(est.estimate - truth) <= est.ci_half_width) ++covered;
  }
  EXPECT_GT(covered, static_cast<int>(0.9 * trials));
}

TEST(SubsetSum, SubsetAndComplementAddUp) {
  Xoshiro256 rng(2);
  std::vector<double> values(100, 1.0);
  const auto sample = DrawUniformSample(values, 0.5, rng);
  const auto even =
      EstimateSubsetSum(sample, [](uint64_t k) { return k % 2 == 0; });
  const auto odd =
      EstimateSubsetSum(sample, [](uint64_t k) { return k % 2 == 1; });
  const auto all = EstimateTotal(sample);
  EXPECT_NEAR(even.estimate + odd.estimate, all.estimate, 1e-9);
}

TEST(SubsetSum, MeanRatioEstimatorIsConsistent) {
  Xoshiro256 rng(3);
  std::vector<double> values(2000);
  double sum = 0.0;
  for (double& v : values) {
    v = 5.0 + rng.NextGaussian();
    sum += v;
  }
  const double truth = sum / double(values.size());
  RunningStat est;
  for (int t = 0; t < 100; ++t) {
    const auto sample = DrawUniformSample(values, 0.2, rng);
    est.Add(EstimateSubsetMean(sample, [](uint64_t) { return true; }));
  }
  EXPECT_NEAR(est.mean(), truth, 0.1);
}

TEST(SubsetSumDeathTest, CountAbortsOnZeroInclusionProbability) {
  // A threshold <= 0 gives pi = 0: a subset count must abort on it, not
  // return inf.
  const std::vector<SampleEntry> sample = {
      MakeUniformEntry(0, 1.0, 0.1, 0.5), MakeUniformEntry(1, 1.0, 0.1, -1.0)};
  EXPECT_DEATH(EstimateSubsetCount(sample, [](uint64_t k) { return k == 1; }),
               "zero inclusion probability");
}

TEST(SubsetSum, PrioritySamplingFormulaMatchesHt) {
  // For value == weight samples, max(w, 1/tau) == w / min(1, w tau).
  PrioritySampler sampler(30, 7);
  Xoshiro256 rng(8);
  for (uint64_t i = 0; i < 500; ++i) {
    sampler.Add(i, std::exp(rng.NextGaussian()));
  }
  const auto sample = sampler.Sample();
  EXPECT_NEAR(PrioritySamplingTotal(sample), HtTotal(sample), 1e-9);
}

// --- Kendall tau ---

TEST(KendallTau, ExactMatchesBruteForce) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 30;
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.NextDouble();
      y[i] = rng.NextDouble();
    }
    double brute = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const double sx = x[i] - x[j], sy = y[i] - y[j];
        brute += (sx > 0 ? 1 : (sx < 0 ? -1 : 0)) *
                 (sy > 0 ? 1 : (sy < 0 ? -1 : 0));
      }
    }
    brute /= 0.5 * double(n) * double(n - 1);
    EXPECT_NEAR(KendallTauExact(x, y), brute, 1e-12) << "trial " << trial;
  }
}

TEST(KendallTau, ExactHandlesTies) {
  std::vector<double> x = {1, 1, 2, 3};
  std::vector<double> y = {1, 2, 2, 4};
  // Brute force: pairs (0,1): x tied -> 0; (0,2): +1; (0,3): +1;
  // (1,2): y tied -> 0; (1,3): +1; (2,3): +1. Sum 4 over 6 pairs.
  EXPECT_NEAR(KendallTauExact(x, y), 4.0 / 6.0, 1e-12);
}

TEST(KendallTau, ExactOnPerfectConcordance) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(KendallTauExact(x, y), 1.0);
  std::vector<double> z = {50, 40, 30, 20, 10};
  EXPECT_DOUBLE_EQ(KendallTauExact(x, z), -1.0);
}

struct TauParam {
  double rho;
  double threshold;
};

class KendallTauHtTest : public ::testing::TestWithParam<TauParam> {};

TEST_P(KendallTauHtTest, SampleEstimateIsUnbiased) {
  const auto [rho, threshold] = GetParam();
  const size_t n = 150;
  const auto pts = MakeCorrelatedGaussian(n, rho, 11);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = pts[i].x;
    y[i] = pts[i].y;
  }
  const double truth = KendallTauExact(x, y);

  Xoshiro256 rng(12);
  RunningStat est;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawUniformSample(x, threshold, rng);
    const auto paired = MakePairedSample(sample, x, y);
    est.Add(KendallTauFromSample(paired, static_cast<int64_t>(n)));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KendallTauHtTest,
                         ::testing::Values(TauParam{0.0, 0.4},
                                           TauParam{0.6, 0.3},
                                           TauParam{-0.5, 0.5},
                                           TauParam{0.9, 0.25}));

TEST(KendallTauDeathTest, PairedSampleAbortsOnZeroInclusionProbability) {
  const std::vector<SampleEntry> sample = {
      MakeUniformEntry(0, 1.0, 0.1, 0.5), MakeUniformEntry(1, 2.0, 0.1, 0.0)};
  const std::vector<double> x = {1.0, 2.0}, y = {2.0, 1.0};
  EXPECT_DEATH(MakePairedSample(sample, x, y), "zero inclusion probability");
}

TEST(KendallTau, BottomKSampleGivesUnbiasedTau) {
  // Bottom-k thresholds are fully substitutable, so the pairwise pseudo-HT
  // estimator applies (Section 2.6.2) with pi = k-th threshold.
  const size_t n = 120;
  const auto pts = MakeCorrelatedGaussian(n, 0.5, 21);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = pts[i].x;
    y[i] = pts[i].y;
  }
  const double truth = KendallTauExact(x, y);
  RunningStat est;
  const int trials = 800;
  for (int t = 0; t < trials; ++t) {
    Xoshiro256 rng(500 + static_cast<uint64_t>(t));
    BottomK<uint64_t> sketch(30);
    std::vector<double> priorities(n);
    for (size_t i = 0; i < n; ++i) {
      priorities[i] = rng.NextDoubleOpenZero();
      sketch.Offer(priorities[i], i);
    }
    std::vector<SampleEntry> sample;
    for (const auto& e : sketch.entries()) {
      sample.push_back(
          MakeUniformEntry(e.payload, x[e.payload], e.priority,
                           sketch.Threshold()));
    }
    est.Add(KendallTauFromSample(MakePairedSample(sample, x, y),
                                 static_cast<int64_t>(n)));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

// --- Central moments ---

TEST(Moments, ExactUStatMatchesBruteForceOnTinyInput) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  const auto m = ExactUStatMoments(xs);
  const size_t n = xs.size();
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  double c2 = 0.0, c3 = 0.0, c4 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      m2 += 0.5 * (xs[i] - xs[j]) * (xs[i] - xs[j]);
      c2 += 1.0;
      for (size_t k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        m3 += xs[i] * xs[i] * xs[i] - 3.0 * xs[i] * xs[i] * xs[j] +
              2.0 * xs[i] * xs[j] * xs[k];
        c3 += 1.0;
        for (size_t l = 0; l < n; ++l) {
          if (l == i || l == j || l == k) continue;
          m4 += xs[i] * xs[i] * xs[i] * xs[i] -
                4.0 * xs[i] * xs[i] * xs[i] * xs[j] +
                6.0 * xs[i] * xs[i] * xs[j] * xs[k] -
                3.0 * xs[i] * xs[j] * xs[k] * xs[l];
          c4 += 1.0;
        }
      }
    }
  }
  EXPECT_NEAR(m.m2, m2 / c2, 1e-9);
  EXPECT_NEAR(m.m3, m3 / c3, 1e-9);
  EXPECT_NEAR(m.m4, m4 / c4, 1e-9);
}

TEST(Moments, HtEstimatesAreUnbiased) {
  Xoshiro256 rng(31);
  const size_t n = 40;
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextGaussian();
  const auto truth = ExactUStatMoments(values);

  RunningStat e2, e3;
  const int trials = 800;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawUniformSample(values, 0.5, rng);
    const auto m = EstimateCentralMoments(sample, static_cast<int64_t>(n));
    e2.Add(m.m2);
    e3.Add(m.m3);
  }
  EXPECT_NEAR(e2.mean(), truth.m2,
              4.0 * e2.StdDev() / std::sqrt(double(trials)));
  EXPECT_NEAR(e3.mean(), truth.m3,
              4.5 * e3.StdDev() / std::sqrt(double(trials)));
}

TEST(Moments, GaussianShapeRecovered) {
  Xoshiro256 rng(41);
  const size_t n = 5000;
  std::vector<double> values(n);
  for (double& v : values) v = 2.0 * rng.NextGaussian() + 1.0;
  const auto m = ExactUStatMoments(values);
  EXPECT_NEAR(m.m2, 4.0, 0.3);
  EXPECT_NEAR(m.skewness, 0.0, 0.15);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.3);
}

// --- Distinct counting from weighted samples (Section 3.4) ---

TEST(Distinct, WeightedSampleEstimatesPopulation) {
  // Sample paying users proportional to spend; estimate the TOTAL number
  // of users (including zero-ish spenders) from one coordinated sample.
  const size_t n = 2000;
  Xoshiro256 setup(51);
  std::vector<double> spend(n);
  for (double& s : spend) s = std::exp(setup.NextGaussian());

  RunningStat users_est, subset_est;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    PrioritySampler sampler(100, 700 + static_cast<uint64_t>(t));
    for (size_t i = 0; i < n; ++i) sampler.Add(i, spend[i]);
    const auto sample = sampler.Sample();
    users_est.Add(HtCount(sample));
    subset_est.Add(EstimateSubsetCount(
        sample, [](uint64_t k) { return k % 4 == 0; }).estimate);
  }
  EXPECT_NEAR(users_est.mean(), double(n),
              4.0 * users_est.StdDev() / std::sqrt(double(trials)));
  EXPECT_NEAR(subset_est.mean(), double(n) / 4.0,
              4.0 * subset_est.StdDev() / std::sqrt(double(trials)) + 2.0);
}

}  // namespace
}  // namespace ats
