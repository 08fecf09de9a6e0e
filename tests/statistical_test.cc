// Statistical acceptance tests: the distributional claims behind the
// samplers, checked over thousands of seeded replicates.
//
// The differential oracles elsewhere prove bit-exact equivalences; the
// tests here prove the REFERENCE itself samples correctly -- per-item
// inclusion frequencies follow the theoretical k/n design (chi-square,
// extending the chi2 machinery of tests/stats_test.cc), and HT
// subset-sum estimates are unbiased within analytic confidence bounds.
//
// Determinism policy: every replicate uses a FIXED seed (seeds
// kSeedBase + t), so each statistic below is one deterministic number;
// the acceptance thresholds are chi-square / normal critical values at
// the ~99.9% level, Bonferroni-headroomed (the per-test alpha is far
// below 0.05 / #tests), so a re-roll of the seed base would still pass
// with overwhelming probability -- but CI never re-rolls, so these
// tests cannot flake.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"
#include "ats/core/ht_estimator.h"
#include "ats/core/random.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/variance_sized.h"
#include "ats/util/stats.h"

namespace ats {
namespace {

constexpr uint64_t kSeedBase = 1000;

// --- Inclusion-frequency chi-square tests ------------------------------
//
// With equal weights, a bottom-k sample over iid Uniform priorities is a
// simple random k-subset, so every item's inclusion probability is
// exactly k/n. Counting inclusions over R replicates and chi-squaring
// the per-item counts against the uniform expectation R*k/n detects any
// bias in priority generation, retention, or the compaction pipeline.
// (Within one replicate inclusions are negatively correlated -- the
// sample size is fixed at k -- which only shrinks the statistic's
// variance below the chi-square reference, making the test
// conservative: it can miss tiny biases, never false-alarm.)

TEST(StatisticalInclusion, PrioritySamplerFrequenciesAreUniform) {
  const size_t n = 32;
  const size_t k = 8;
  const int replicates = 2500;
  std::vector<int64_t> counts(n, 0);
  for (int t = 0; t < replicates; ++t) {
    PrioritySampler sampler(k, kSeedBase + static_cast<uint64_t>(t),
                            /*coordinated=*/false);
    for (uint64_t key = 0; key < n; ++key) sampler.Add(key, 1.0);
    for (const auto& e : sampler.Sample()) {
      counts[static_cast<size_t>(e.key)] += 1;
    }
  }
  // Every replicate retains exactly k of n items.
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  ASSERT_EQ(total, int64_t(replicates) * int64_t(k));
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

TEST(StatisticalInclusion, BottomKFrequenciesAreUniform) {
  const size_t n = 40;
  const size_t k = 10;
  const int replicates = 2000;
  std::vector<int64_t> counts(n, 0);
  for (int t = 0; t < replicates; ++t) {
    Xoshiro256 rng(kSeedBase + 7919 * static_cast<uint64_t>(t));
    BottomK<uint64_t> sketch(k);
    for (uint64_t id = 0; id < n; ++id) {
      sketch.Offer(rng.NextDoubleOpenZero(), id);
    }
    for (const auto& entry : sketch.entries()) {
      counts[static_cast<size_t>(entry.payload)] += 1;
    }
  }
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

TEST(StatisticalInclusion, ConcurrentMergedSampleFrequenciesAreUniform) {
  // The concurrent front-end's merged snapshot must be a bottom-k
  // sample of the whole stream, i.e. with equal weights a uniform
  // k-subset -- per shard AND after the k-way merge re-cap. Independent
  // per-shard priorities, single-threaded replicates: the statistics,
  // not the scheduler, are under test here.
  const size_t n = 32;
  const size_t k = 8;
  const int replicates = 2000;
  std::vector<int64_t> counts(n, 0);
  std::vector<PrioritySampler::Item> stream(n);
  for (uint64_t key = 0; key < n; ++key) stream[key] = {key, 1.0};
  for (int t = 0; t < replicates; ++t) {
    ConcurrentPrioritySampler conc(/*num_shards=*/4, k,
                                   /*coordinated=*/false,
                                   kSeedBase + static_cast<uint64_t>(t));
    conc.AddBatch(stream);
    for (const auto& e : conc.Merged().entries) {
      counts[static_cast<size_t>(e.key)] += 1;
    }
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  ASSERT_EQ(total, int64_t(replicates) * int64_t(k));
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

TEST(StatisticalInclusion, SlicedConcurrentSampleFrequenciesAreUniform) {
  // Independent-priority mode, the stream ingested in three routed
  // slices with a snapshot after the first: the second snapshot's
  // rebuild is pruned at the first one's threshold and must still yield
  // a uniform k-subset of the whole stream. A prune bound below the true
  // merged threshold, or per-shard RNG streams that correlate across
  // slices, would skew inclusions and blow up the chi-square.
  const size_t n = 32;
  const size_t k = 8;
  const int replicates = 2000;
  std::vector<int64_t> counts(n, 0);
  std::vector<PrioritySampler::Item> stream(n);
  for (uint64_t key = 0; key < n; ++key) stream[key] = {key, 1.0};
  for (int t = 0; t < replicates; ++t) {
    ConcurrentPrioritySampler conc(/*num_shards=*/4, k,
                                   /*coordinated=*/false,
                                   kSeedBase + static_cast<uint64_t>(t));
    conc.AddBatch(std::span<const PrioritySampler::Item>(stream.data(), n / 2));
    conc.Snapshot();  // the next rebuild starts at this threshold
    conc.AddBatch(std::span<const PrioritySampler::Item>(
        stream.data() + n / 2, n / 4));
    conc.AddBatch(std::span<const PrioritySampler::Item>(
        stream.data() + n / 2 + n / 4, n - n / 2 - n / 4));
    for (const auto& e : conc.Merged().entries) {
      counts[static_cast<size_t>(e.key)] += 1;
    }
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  ASSERT_EQ(total, int64_t(replicates) * int64_t(k));
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

TEST(StatisticalInclusion, MultiStratifiedFrequenciesAreUniform) {
  // 60 keys under two stratification dimensions (key % 3 and key % 4):
  // the shift k -> k+1 (mod 60) permutes the keys transitively while
  // only relabeling strata, and every dimension-0 stratum has 20
  // members, every dimension-1 stratum 15, so by symmetry every key has
  // the SAME inclusion probability (retained while in the bottom-k of
  // at least one of its strata). Chi-squaring the per-key inclusion
  // counts against uniformity therefore tests the whole retention
  // pipeline -- priority generation, per-stratum bottom-k, max-of-
  // thresholds composition -- at once.
  const size_t n = 60;
  const size_t k = 5;
  const int replicates = 1500;
  std::vector<int64_t> counts(n, 0);
  for (int t = 0; t < replicates; ++t) {
    MultiStratifiedSampler sampler(/*num_dimensions=*/2, k,
                                   kSeedBase + static_cast<uint64_t>(t));
    for (uint64_t key = 0; key < n; ++key) {
      sampler.Add(key, {key % 3, key % 4}, 1.0);
    }
    for (const auto& e : sampler.Sample()) {
      counts[static_cast<size_t>(e.key)] += 1;
    }
  }
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

TEST(StatisticalInclusion, VarianceSizedFrequenciesAreUniform) {
  // With equal weights every item's priority is iid Uniform and the
  // stopping threshold treats items exchangeably, so inclusion
  // (priority below the stream's stopping threshold) is equiprobable
  // across items.
  const size_t n = 40;
  const int replicates = 2000;
  std::vector<int64_t> counts(n, 0);
  for (int t = 0; t < replicates; ++t) {
    VarianceSizedSampler sampler(/*delta_squared=*/2.0,
                                 kSeedBase + static_cast<uint64_t>(t));
    for (uint64_t key = 0; key < n; ++key) sampler.Add(key, 1.0, 1.0);
    for (const auto& e : sampler.Sample()) {
      counts[static_cast<size_t>(e.key)] += 1;
    }
  }
  EXPECT_LT(ChiSquareUniform(counts),
            ChiSquareCritical999(static_cast<int>(n) - 1));
}

// --- HT estimator unbiasedness -----------------------------------------

TEST(StatisticalHt, SubsetSumEstimatesAreUnbiasedWithinCi) {
  // Weighted population; the HT subset-sum estimate over R independent
  // replicates must center on the true subset total. Acceptance: the
  // replicate mean lies within z * SE of truth with z = 4.4 (normal
  // two-sided tail ~1e-5, ample Bonferroni headroom for this file), SE
  // from the replicate sample variance. Seeds fixed => deterministic.
  const size_t n = 200;
  const size_t k = 32;
  const int replicates = 1500;

  Xoshiro256 pop_rng(123);
  std::vector<PrioritySampler::Item> population(n);
  double subset_truth = 0.0;
  for (uint64_t key = 0; key < n; ++key) {
    const double weight = std::exp(0.8 * pop_rng.NextGaussian());
    population[key] = {key, weight};
    if (key % 3 == 0) subset_truth += weight;
  }
  const auto in_subset = [](uint64_t key) { return key % 3 == 0; };

  RunningStat estimates;
  RunningStat variance_estimates;
  for (int t = 0; t < replicates; ++t) {
    PrioritySampler sampler(k, kSeedBase + static_cast<uint64_t>(t),
                            /*coordinated=*/false);
    for (const auto& item : population) sampler.Add(item.key, item.weight);
    const auto sample = sampler.Sample();
    estimates.Add(HtSubsetSum(sample, in_subset));
    variance_estimates.Add(HtVarianceEstimate(sample));
  }

  const double se =
      estimates.StdDev() / std::sqrt(static_cast<double>(replicates));
  EXPECT_NEAR(estimates.mean(), subset_truth, 4.4 * se);

  // Sanity on the variance estimator itself: the mean of the per-sample
  // HT variance estimates (which target Var of the FULL total) must be
  // on the scale of the observed full-total variance. Loose band -- this
  // guards against gross mis-scaling, not fine calibration.
  RunningStat totals;
  for (int t = 0; t < replicates; ++t) {
    PrioritySampler sampler(k, kSeedBase + static_cast<uint64_t>(t),
                            /*coordinated=*/false);
    for (const auto& item : population) sampler.Add(item.key, item.weight);
    totals.Add(HtTotal(sampler.Sample()));
  }
  const double observed_var = totals.SampleVariance();
  ASSERT_GT(observed_var, 0.0);
  EXPECT_GT(variance_estimates.mean(), 0.5 * observed_var);
  EXPECT_LT(variance_estimates.mean(), 2.0 * observed_var);
}

TEST(StatisticalHt, ConcurrentSnapshotTotalsAreUnbiasedWithinCi) {
  // Same unbiasedness contract for the concurrent front-end's merged
  // snapshot in independent-priority mode: the HT total over replicates
  // centers on the true population total.
  const size_t n = 150;
  const size_t k = 24;
  const int replicates = 1200;

  Xoshiro256 pop_rng(321);
  std::vector<PrioritySampler::Item> population(n);
  double truth = 0.0;
  for (uint64_t key = 0; key < n; ++key) {
    const double weight = std::exp(0.6 * pop_rng.NextGaussian());
    population[key] = {key, weight};
    truth += weight;
  }

  RunningStat estimates;
  for (int t = 0; t < replicates; ++t) {
    ConcurrentPrioritySampler conc(/*num_shards=*/4, k,
                                   /*coordinated=*/false,
                                   kSeedBase + static_cast<uint64_t>(t));
    conc.AddBatch(population);
    estimates.Add(HtTotal(conc.Merged().entries));
  }
  const double se =
      estimates.StdDev() / std::sqrt(static_cast<double>(replicates));
  EXPECT_NEAR(estimates.mean(), truth, 4.4 * se);
}

TEST(StatisticalHt, MultiStratifiedTotalsAreUnbiasedWithinCi) {
  // Theorem 6 upgrades the max-of-substitutable-thresholds rule to full
  // substitutability, so the plain HT estimator with
  // pi_i = F(max_s tau_s) applies. Over replicates the HT total of the
  // retained sample must center on the true population total.
  const size_t n = 60;
  const size_t k = 5;
  const int replicates = 1500;

  Xoshiro256 pop_rng(77);
  std::vector<double> values(n);
  double truth = 0.0;
  for (double& v : values) {
    v = std::exp(0.5 * pop_rng.NextGaussian());
    truth += v;
  }

  RunningStat estimates;
  for (int t = 0; t < replicates; ++t) {
    MultiStratifiedSampler sampler(/*num_dimensions=*/2, k,
                                   kSeedBase + static_cast<uint64_t>(t));
    for (uint64_t key = 0; key < n; ++key) {
      sampler.Add(key, {key % 3, key % 4}, values[key]);
    }
    estimates.Add(HtTotal(sampler.Sample()));
  }
  const double se =
      estimates.StdDev() / std::sqrt(static_cast<double>(replicates));
  EXPECT_NEAR(estimates.mean(), truth, 4.4 * se);
}

TEST(StatisticalHt, VarianceSizedTotalsAreUnbiasedAndHitTheTarget) {
  // Section 3.9: the variance-sized stopping threshold is a stopping
  // time in the downward threshold scan, hence substitutable, so the
  // HT total stays unbiased -- and whenever the threshold is finite the
  // HT variance estimate at the stop equals delta^2 exactly (the scan
  // stops at the crossing).
  const size_t n = 150;
  const double delta_squared = 4.0;
  const int replicates = 1500;

  Xoshiro256 pop_rng(99);
  std::vector<double> weights(n);
  double truth = 0.0;
  for (double& w : weights) {
    w = std::exp(0.8 * pop_rng.NextGaussian());
    truth += w;  // PPS case: value == weight
  }

  RunningStat estimates;
  int finite_thresholds = 0;
  for (int t = 0; t < replicates; ++t) {
    VarianceSizedSampler sampler(delta_squared,
                                 kSeedBase + static_cast<uint64_t>(t));
    for (uint64_t key = 0; key < n; ++key) {
      sampler.Add(key, weights[key], weights[key]);
    }
    estimates.Add(HtTotal(sampler.Sample()));
    if (std::isfinite(sampler.Threshold())) {
      ++finite_thresholds;
      EXPECT_NEAR(sampler.VarianceEstimate(), delta_squared,
                  1e-9 * delta_squared);
    }
  }
  // The target must actually bind for the exactness claim to be tested.
  ASSERT_GT(finite_thresholds, replicates / 2);
  const double se =
      estimates.StdDev() / std::sqrt(static_cast<double>(replicates));
  EXPECT_NEAR(estimates.mean(), truth, 4.4 * se);
}

}  // namespace
}  // namespace ats
