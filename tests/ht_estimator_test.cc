// Tests for ats/core/ht_estimator.h: unbiasedness of HT and pseudo-HT
// sums under fixed thresholds, and agreement with closed forms.
#include "ats/core/ht_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"
#include "ats/estimators/subset_sum.h"
#include "ats/estimators/ustatistic.h"
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
    const double hw =
        HtEstimate(sample, AllKeys{}, EntryValue{}).ci_half_width;
    if (std::abs(est - truth) <= hw) ++covered;
  }
  // Nominal 95%; allow slack for normal approximation error.
  EXPECT_GT(covered, static_cast<int>(0.90 * trials));
}

// --- Bit-identity with separate passes -----------------------------------

// The first-order estimators written as separate passes: one loop each for
// the total, the count and the variance; subset estimates over a filtered
// copy; counts over a copy whose values are rewritten to 1. HtEstimate
// folds them into one loop and must reproduce every one of them bit for
// bit.
namespace separate_passes {

double Total(std::span<const SampleEntry> sample) {
  double total = 0.0;
  for (const SampleEntry& e : sample) {
    total += e.value / e.InclusionProbability();
  }
  return total;
}

double Count(std::span<const SampleEntry> sample) {
  double total = 0.0;
  for (const SampleEntry& e : sample) total += 1.0 / e.InclusionProbability();
  return total;
}

double Variance(std::span<const SampleEntry> sample) {
  double v = 0.0;
  for (const SampleEntry& e : sample) {
    const double pi = e.InclusionProbability();
    v += e.value * e.value * (1.0 - pi) / (pi * pi);
  }
  return v;
}

EstimateWithError FromEntries(std::span<const SampleEntry> entries) {
  EstimateWithError out;
  out.estimate = Total(entries);
  out.variance = Variance(entries);
  out.ci_half_width = 1.96 * std::sqrt(std::max(0.0, out.variance));
  return out;
}

std::vector<SampleEntry> Filter(
    std::span<const SampleEntry> sample,
    const std::function<bool(uint64_t)>& in_subset) {
  std::vector<SampleEntry> out;
  for (const SampleEntry& e : sample) {
    if (in_subset(e.key)) out.push_back(e);
  }
  return out;
}

EstimateWithError SubsetSum(std::span<const SampleEntry> sample,
                            const std::function<bool(uint64_t)>& in_subset) {
  return FromEntries(Filter(sample, in_subset));
}

EstimateWithError SubsetCount(std::span<const SampleEntry> sample,
                              const std::function<bool(uint64_t)>& in_subset) {
  std::vector<SampleEntry> counted = Filter(sample, in_subset);
  for (SampleEntry& e : counted) e.value = 1.0;
  return FromEntries(counted);
}

double SubsetMean(std::span<const SampleEntry> sample,
                  const std::function<bool(uint64_t)>& in_subset) {
  const double sum = SubsetSum(sample, in_subset).estimate;
  const double count = SubsetCount(sample, in_subset).estimate;
  return count > 0.0 ? sum / count : 0.0;
}

double UStatistic1(std::span<const SampleEntry> sample,
                   int64_t population_size, const Kernel1& h) {
  double total = 0.0;
  for (const SampleEntry& e : sample) {
    total += h(e.value) / e.InclusionProbability();
  }
  return total / static_cast<double>(population_size);
}

}  // namespace separate_passes

// A sample of `n` entries from one priority family. Most entries share a
// finite threshold; about one in sixteen carries kInfiniteThreshold, and
// the family parameters leave some finite-threshold entries at pi = 1.
std::vector<SampleEntry> DrawMixedSample(PriorityFamily family, size_t n,
                                         Xoshiro256& rng) {
  std::vector<SampleEntry> out;
  for (uint64_t key = 0; key < n; ++key) {
    SampleEntry e;
    e.key = key;
    e.value = 200.0 * rng.NextDouble() - 50.0;
    switch (family) {
      case PriorityFamily::kUniform:
        e.dist = PriorityDist::Uniform();
        e.threshold = 0.01 + 1.2 * rng.NextDouble();  // pi = 1 above 1
        break;
      case PriorityFamily::kWeightedUniform:
        e.dist = PriorityDist::WeightedUniform(0.01 + 30.0 * rng.NextDouble());
        e.threshold = 0.05;  // pi = 1 for weights >= 20
        break;
      case PriorityFamily::kExponential:
        e.dist = PriorityDist::Exponential(0.1 + 5.0 * rng.NextDouble());
        e.threshold = 0.3;
        break;
    }
    e.priority = e.dist.Sample(rng);
    if (rng.NextBelow(16) == 0) e.threshold = kInfiniteThreshold;
    out.push_back(e);
  }
  return out;
}

TEST(HtEstimator, OnePassIsBitIdenticalToSeparatePasses) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  const auto same = [&bits](const EstimateWithError& got,
                            const EstimateWithError& want) {
    return bits(got.estimate) == bits(want.estimate) &&
           bits(got.variance) == bits(want.variance) &&
           bits(got.ci_half_width) == bits(want.ci_half_width);
  };
  const std::function<bool(uint64_t)> none = [](uint64_t) { return false; };
  const std::function<bool(uint64_t)> some = [](uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 61 < 3;  // about 3/8
  };
  const std::function<bool(uint64_t)> all = [](uint64_t) { return true; };
  const Kernel1 h = [](double x) { return x * x - 3.0 * x; };

  Xoshiro256 rng(33);
  int comparisons = 0, mismatches = 0, unit_pi = 0, infinite = 0;
  const auto check = [&](bool ok, const std::string& what) {
    ++comparisons;
    if (!ok) ++mismatches;
    EXPECT_TRUE(ok) << what;
  };
  for (PriorityFamily family :
       {PriorityFamily::kUniform, PriorityFamily::kWeightedUniform,
        PriorityFamily::kExponential}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{63},
                     size_t{1000}, size_t{4096}, size_t{4096}}) {
      const std::vector<SampleEntry> sample = DrawMixedSample(family, n, rng);
      for (const SampleEntry& e : sample) {
        unit_pi += e.InclusionProbability() == 1.0;
        infinite += e.threshold == kInfiniteThreshold;
      }
      const std::string tag = "family " +
                              std::to_string(static_cast<int>(family)) +
                              ", n " + std::to_string(n) + ": ";
      check(bits(HtTotal(sample)) == bits(separate_passes::Total(sample)),
            tag + "HtTotal");
      check(bits(HtCount(sample)) == bits(separate_passes::Count(sample)),
            tag + "HtCount");
      check(bits(HtVarianceEstimate(sample)) ==
                bits(separate_passes::Variance(sample)),
            tag + "HtVarianceEstimate");
      check(same(EstimateTotal(sample), separate_passes::FromEntries(sample)),
            tag + "EstimateTotal");
      check(bits(UStatistic1(sample, 5000, h)) ==
                bits(separate_passes::UStatistic1(sample, 5000, h)),
            tag + "UStatistic1");
      for (const auto* pred : {&none, &some, &all}) {
        const std::string ptag =
            tag + (pred == &none ? "none" : pred == &some ? "some" : "all") +
            " ";
        const EstimateWithError sum = separate_passes::SubsetSum(sample, *pred);
        check(bits(HtSubsetSum(sample, *pred)) == bits(sum.estimate),
              ptag + "HtSubsetSum");
        check(same(EstimateSubsetSum(sample, *pred), sum),
              ptag + "EstimateSubsetSum");
        check(same(HtEstimate(sample, *pred, EntryValue{}), sum),
              ptag + "HtEstimate sum");
        check(same(EstimateSubsetCount(sample, *pred),
                   separate_passes::SubsetCount(sample, *pred)),
              ptag + "EstimateSubsetCount");
        check(bits(EstimateSubsetMean(sample, *pred)) ==
                  bits(separate_passes::SubsetMean(sample, *pred)),
              ptag + "EstimateSubsetMean");
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << comparisons;
  EXPECT_EQ(comparisons, 3 * 7 * (5 + 3 * 5));
  // The families and thresholds above must reach both pi = 1 forms.
  EXPECT_GT(unit_pi, 1000);
  EXPECT_GT(infinite, 1000);
}

}  // namespace
}  // namespace ats
