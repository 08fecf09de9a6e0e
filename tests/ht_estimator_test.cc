// Tests for ats/core/ht_estimator.h: unbiasedness of HT and pseudo-HT
// sums under fixed thresholds, and agreement with closed forms.
#include "ats/core/ht_estimator.h"

#include <bit>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"
#include "ats/util/stats.h"

namespace ats {
namespace {

// Draws a fixed-threshold Poisson sample from a small weighted population.
std::vector<SampleEntry> DrawFixedThresholdSample(
    const std::vector<double>& values, const std::vector<double>& weights,
    double threshold, Xoshiro256& rng) {
  std::vector<SampleEntry> out;
  for (size_t i = 0; i < values.size(); ++i) {
    const PriorityDist d = PriorityDist::WeightedUniform(weights[i]);
    const double r = d.Sample(rng);
    if (r < threshold) {
      SampleEntry e;
      e.key = i;
      e.value = values[i];
      e.priority = r;
      e.threshold = threshold;
      e.dist = d;
      out.push_back(e);
    }
  }
  return out;
}

TEST(HtEstimator, TotalExactWhenAllIncluded) {
  std::vector<SampleEntry> sample;
  for (int i = 0; i < 5; ++i) {
    sample.push_back(MakeUniformEntry(i, 2.0, 0.5, kInfiniteThreshold));
  }
  EXPECT_DOUBLE_EQ(HtTotal(sample), 10.0);
  EXPECT_DOUBLE_EQ(HtVarianceEstimate(sample), 0.0);
}

TEST(HtEstimator, TotalIsUnbiasedUnderPoissonSampling) {
  Xoshiro256 rng(5);
  std::vector<double> values, weights;
  double truth = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double w = 0.5 + 2.0 * rng.NextDouble();
    weights.push_back(w);
    values.push_back(w);
    truth += w;
  }
  RunningStat est;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    est.Add(HtTotal(DrawFixedThresholdSample(values, weights, 0.15, rng)));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

TEST(HtEstimator, VarianceEstimateIsUnbiased) {
  Xoshiro256 rng(6);
  std::vector<double> values, weights;
  std::vector<PriorityDist> dists;
  for (int i = 0; i < 50; ++i) {
    const double w = 0.5 + rng.NextDouble();
    weights.push_back(w);
    values.push_back(w * 2.0);
    dists.push_back(PriorityDist::WeightedUniform(w));
  }
  const double t0 = 0.3;
  const double true_var = FixedThresholdVariance(values, dists, t0);

  RunningStat var_est;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    var_est.Add(
        HtVarianceEstimate(DrawFixedThresholdSample(values, weights, t0, rng)));
  }
  const double se = var_est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(var_est.mean(), true_var, 4.0 * se);
}

TEST(HtEstimator, SubsetSumFiltersByKey) {
  std::vector<SampleEntry> sample;
  sample.push_back(MakeUniformEntry(1, 10.0, 0.1, 0.5));
  sample.push_back(MakeUniformEntry(2, 20.0, 0.2, 0.5));
  const double est =
      HtSubsetSum(sample, [](uint64_t k) { return k == 2; });
  EXPECT_DOUBLE_EQ(est, 40.0);  // 20 / 0.5
}

bool KeyIsOdd(uint64_t key) { return (key & 1) != 0; }

TEST(HtEstimator, SubsetSumIsBitIdenticalForEveryCallableKind) {
  // A fixed weighted sample at threshold 0.05, whose weights leave
  // pi = min(0.05 w, 1) both below and at 1, with values drawn apart from
  // the weights so that value / pi rounds differently from other forms.
  Xoshiro256 rng(21);
  std::vector<SampleEntry> sample;
  for (uint64_t key = 0; key < 4096; ++key) {
    const double w = 0.01 + 30.0 * rng.NextDouble();
    sample.push_back(MakeWeightedEntry(key, w, rng.NextDouble() / w, 0.05));
    sample.back().value = 100.0 * rng.NextDouble();
  }
  // The summation as a plain loop: entries in order, one division each.
  double reference = 0.0;
  for (const SampleEntry& e : sample) {
    if (KeyIsOdd(e.key)) reference += e.value / e.InclusionProbability();
  }
  const std::function<bool(uint64_t)> erased = KeyIsOdd;
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  EXPECT_EQ(bits(HtSubsetSum(sample, KeyIsOdd)), bits(reference));
  EXPECT_EQ(bits(HtSubsetSum(sample, &KeyIsOdd)), bits(reference));
  EXPECT_EQ(bits(HtSubsetSum(sample, erased)), bits(reference));
  EXPECT_EQ(bits(HtSubsetSum(sample,
                             [](uint64_t key) { return KeyIsOdd(key); })),
            bits(reference));
  const uint64_t mask = 1;
  EXPECT_EQ(bits(HtSubsetSum(sample,
                             [&mask](uint64_t key) { return (key & mask); })),
            bits(reference));
}

TEST(HtEstimator, CountUsesInverseInclusion) {
  std::vector<SampleEntry> sample;
  sample.push_back(MakeUniformEntry(1, 99.0, 0.1, 0.25));
  sample.push_back(MakeUniformEntry(2, 77.0, 0.2, 0.25));
  EXPECT_DOUBLE_EQ(HtCount(sample), 8.0);
}

TEST(HtEstimator, FixedThresholdVarianceClosedForm) {
  // Single item, pi = 0.5, value 3: var = (1-pi)/pi * 9 = 9.
  std::vector<double> values = {3.0};
  std::vector<PriorityDist> dists = {PriorityDist::Uniform()};
  EXPECT_DOUBLE_EQ(FixedThresholdVariance(values, dists, 0.5), 9.0);
}

TEST(HtEstimator, PairwiseHtSumIsUnbiased) {
  // Estimate sum_{i != j} x_i x_j under Poisson sampling.
  Xoshiro256 rng(7);
  std::vector<double> values, weights;
  for (int i = 0; i < 30; ++i) {
    values.push_back(1.0 + rng.NextDouble());
    weights.push_back(1.0);
  }
  double truth = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      if (i != j) truth += values[i] * values[j];
    }
  }
  RunningStat est;
  const int trials = 1500;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawFixedThresholdSample(values, weights, 0.4, rng);
    est.Add(PairwiseHtSum(sample,
                          [](const SampleEntry& a, const SampleEntry& b) {
                            return a.value * b.value;
                          }));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.0 * se);
}

TEST(HtEstimator, TripleHtSumIsUnbiased) {
  Xoshiro256 rng(8);
  std::vector<double> values(12), weights(12, 1.0);
  for (double& v : values) v = rng.NextDouble();
  double truth = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      for (size_t k = 0; k < values.size(); ++k) {
        if (i != j && j != k && i != k) {
          truth += values[i] * values[j] * values[k];
        }
      }
    }
  }
  RunningStat est;
  const int trials = 1200;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawFixedThresholdSample(values, weights, 0.6, rng);
    est.Add(TripleHtSum(sample, [](const SampleEntry& a, const SampleEntry& b,
                                   const SampleEntry& c) {
      return a.value * b.value * c.value;
    }));
  }
  const double se = est.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(est.mean(), truth, 4.5 * se);
}

TEST(HtEstimator, QuadrupleHtSumMatchesExactOnFullInclusion) {
  std::vector<SampleEntry> sample;
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (size_t i = 0; i < values.size(); ++i) {
    sample.push_back(
        MakeUniformEntry(i, values[i], 0.1, kInfiniteThreshold));
  }
  double truth = 0.0;
  const size_t n = values.size();
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      for (size_t k = 0; k < n; ++k)
        for (size_t l = 0; l < n; ++l)
          if (i != j && i != k && i != l && j != k && j != l && k != l)
            truth += values[i] + values[j] + values[k] + values[l];
  const double est = QuadrupleHtSum(
      sample, [](const SampleEntry& a, const SampleEntry& b,
                 const SampleEntry& c, const SampleEntry& d) {
        return a.value + b.value + c.value + d.value;
      });
  EXPECT_NEAR(est, truth, 1e-9);
}

TEST(HtEstimator, ConfidenceIntervalCoversTruth) {
  Xoshiro256 rng(9);
  std::vector<double> values, weights;
  double truth = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double w = 0.5 + rng.NextDouble();
    weights.push_back(w);
    values.push_back(w);
    truth += w;
  }
  int covered = 0;
  const int trials = 1000;
  for (int t = 0; t < trials; ++t) {
    const auto sample = DrawFixedThresholdSample(values, weights, 0.3, rng);
    const double est = HtTotal(sample);
    const double hw = HtConfidenceHalfWidth95(sample);
    if (std::abs(est - truth) <= hw) ++covered;
  }
  // Nominal 95%; allow slack for normal approximation error.
  EXPECT_GT(covered, static_cast<int>(0.90 * trials));
}

}  // namespace
}  // namespace ats
