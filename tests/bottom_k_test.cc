// Tests for ats/core/bottom_k.h: threshold correctness against a brute
// force oracle, merge semantics, and HT unbiasedness of priority sampling.
#include "ats/core/bottom_k.h"

#include <algorithm>
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/ht_estimator.h"
#include "ats/util/stats.h"
#include "ats/workload/synthetic.h"

namespace ats {
namespace {

TEST(BottomK, UnderfullHasInfiniteThreshold) {
  BottomK<int> sketch(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(sketch.Offer(0.1 * (i + 1), i));
  }
  EXPECT_EQ(sketch.Threshold(), kInfiniteThreshold);
  EXPECT_FALSE(sketch.saturated());
  EXPECT_EQ(sketch.size(), 5u);
}

TEST(BottomK, ThresholdIsKPlusOneSmallest) {
  Xoshiro256 rng(1);
  for (size_t k : {1u, 3u, 10u, 50u}) {
    BottomK<int> sketch(k);
    std::vector<double> all;
    for (int i = 0; i < 300; ++i) {
      const double p = rng.NextDoubleOpenZero();
      all.push_back(p);
      sketch.Offer(p, i);
    }
    std::sort(all.begin(), all.end());
    EXPECT_DOUBLE_EQ(sketch.Threshold(), all[k]) << "k=" << k;
    // Retained = exactly the k smallest.
    auto entries = sketch.SortedEntries();
    ASSERT_EQ(entries.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(entries[i].priority, all[i]);
    }
  }
}

TEST(BottomK, RetainedIffBelowThreshold) {
  Xoshiro256 rng(2);
  BottomK<int> sketch(8);
  for (int i = 0; i < 1000; ++i) sketch.Offer(rng.NextDoubleOpenZero(), i);
  for (const auto& e : sketch.entries()) {
    EXPECT_LT(e.priority, sketch.Threshold());
  }
}

TEST(BottomK, MergeEqualsSingleStream) {
  Xoshiro256 rng(3);
  std::vector<double> stream;
  for (int i = 0; i < 500; ++i) stream.push_back(rng.NextDoubleOpenZero());

  BottomK<int> whole(16), left(16), right(16);
  for (size_t i = 0; i < stream.size(); ++i) {
    whole.Offer(stream[i], static_cast<int>(i));
    (i % 2 == 0 ? left : right).Offer(stream[i], static_cast<int>(i));
  }
  left.Merge(right);
  EXPECT_DOUBLE_EQ(left.Threshold(), whole.Threshold());
  auto a = left.SortedEntries();
  auto b = whole.SortedEntries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(BottomK, LowerThresholdPurges) {
  BottomK<int> sketch(4);
  sketch.Offer(0.1, 1);
  sketch.Offer(0.2, 2);
  sketch.Offer(0.3, 3);
  sketch.LowerThreshold(0.25);
  EXPECT_EQ(sketch.size(), 2u);
  EXPECT_DOUBLE_EQ(sketch.Threshold(), 0.25);
  // Offers at/above the new threshold are rejected.
  EXPECT_FALSE(sketch.Offer(0.26, 4));
}

TEST(BottomK, DuplicatePrioritiesAllowed) {
  BottomK<int> sketch(2);
  EXPECT_TRUE(sketch.Offer(0.5, 1));
  EXPECT_TRUE(sketch.Offer(0.5, 2));
  // A third tie may still be buffered under the chunked acceptance
  // bound, but the canonical state is exact: two retained entries and
  // the tie value as the (k+1)-th-smallest threshold.
  sketch.Offer(0.5, 3);
  EXPECT_DOUBLE_EQ(sketch.Threshold(), 0.5);
  EXPECT_EQ(sketch.size(), 2u);
  // Once the bound is canonical, further ties are rejected outright.
  EXPECT_FALSE(sketch.Offer(0.5, 4));
  EXPECT_EQ(sketch.size(), 2u);
}

// --- Priority sampling (weighted bottom-k) properties ---

struct PsParam {
  size_t k;
  uint64_t seed;
};

class PrioritySamplerTest : public ::testing::TestWithParam<PsParam> {};

TEST_P(PrioritySamplerTest, HtTotalIsUnbiased) {
  const auto [k, seed] = GetParam();
  const auto population = MakeWeightedPopulation(400, 99, true);
  double truth = 0.0;
  for (const auto& it : population) truth += it.weight;

  RunningStat estimates;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    PrioritySampler sampler(k, seed + static_cast<uint64_t>(t) * 7919);
    for (const auto& it : population) sampler.Add(it.key, it.weight);
    const auto sample = sampler.Sample();
    estimates.Add(HtTotal(sample));
  }
  // Mean over trials within 4 standard errors of the truth.
  const double se = estimates.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(estimates.mean(), truth, 4.0 * se + 1e-9)
      << "k=" << k << " seed=" << seed;
}

TEST_P(PrioritySamplerTest, SampleSizeIsExactlyK) {
  const auto [k, seed] = GetParam();
  PrioritySampler sampler(k, seed);
  for (uint64_t i = 0; i < 50 + 10 * k; ++i) {
    sampler.Add(i, 1.0 + static_cast<double>(i % 7));
  }
  EXPECT_EQ(sampler.size(), k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrioritySamplerTest,
    ::testing::Values(PsParam{5, 1}, PsParam{20, 2}, PsParam{50, 3},
                      PsParam{100, 4}));

TEST(PrioritySampler, VarianceEstimateTracksEmpiricalVariance) {
  const auto population = MakeWeightedPopulation(500, 7, true);
  double truth = 0.0;
  for (const auto& it : population) truth += it.weight;

  RunningStat estimates, variance_estimates;
  for (int t = 0; t < 300; ++t) {
    PrioritySampler sampler(40, 1000 + static_cast<uint64_t>(t));
    for (const auto& it : population) sampler.Add(it.key, it.weight);
    const auto sample = sampler.Sample();
    estimates.Add(HtTotal(sample));
    variance_estimates.Add(HtVarianceEstimate(sample));
  }
  // E[variance estimate] should match the empirical estimator variance
  // within a loose factor (both are noisy).
  const double empirical = estimates.SampleVariance();
  EXPECT_GT(variance_estimates.mean(), 0.3 * empirical);
  EXPECT_LT(variance_estimates.mean(), 3.0 * empirical);
}

TEST(PrioritySampler, CoordinatedSamplesShareItems) {
  // Two coordinated samplers over the same keys retain mostly the same
  // keys (same priorities, same thresholds); independent ones do not.
  const auto population = MakeWeightedPopulation(2000, 11, true);
  PrioritySampler a(50, 1, /*coordinated=*/true);
  PrioritySampler b(50, 2, /*coordinated=*/true);
  PrioritySampler c(50, 3, /*coordinated=*/false);
  for (const auto& it : population) {
    a.Add(it.key, it.weight);
    b.Add(it.key, it.weight);
    c.Add(it.key, it.weight);
  }
  auto keys = [](const PrioritySampler& s) {
    std::vector<uint64_t> out;
    for (const auto& e : s.Sample()) out.push_back(e.key);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(keys(a), keys(b));
  EXPECT_NE(keys(a), keys(c));
}

TEST(PrioritySampler, WeightedSampleOfBufferedStoreMatchesCanonicalCopy) {
  // MakeWeightedSample on a store mid-ingest (more than k buffered, not
  // canonical) must produce the entries of a canonicalized copy, field
  // for field, at several points between compactions.
  constexpr size_t kK = 64;
  Xoshiro256 rng(33);
  SampleStore<PrioritySampler::Item> store(kK);
  size_t checked = 0;
  for (uint64_t key = 0; key < 5000; ++key) {
    const double w = 0.1 + rng.NextDouble();
    store.Offer(PriorityDist::WeightedUniform(w).Sample(rng),
                PrioritySampler::Item{key, w});
    if (key % 97 != 0 || store.BufferedSize() <= kK) continue;
    SampleStore<PrioritySampler::Item> canonical = store;
    canonical.Canonicalize();
    const double t = canonical.Threshold();
    std::vector<SampleEntry> expected;
    for (size_t i = 0; i < canonical.size(); ++i) {
      const PrioritySampler::Item& item = canonical.payloads()[i];
      expected.push_back(MakeWeightedEntry(item.key, item.weight,
                                           canonical.priorities()[i], t));
    }
    const std::vector<SampleEntry> got = MakeWeightedSample(store);
    ASSERT_EQ(got.size(), expected.size());
    const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, expected[i].key) << i;
      ASSERT_EQ(bits(got[i].value), bits(expected[i].value)) << i;
      ASSERT_EQ(bits(got[i].priority), bits(expected[i].priority)) << i;
      ASSERT_EQ(bits(got[i].threshold), bits(expected[i].threshold)) << i;
      ASSERT_EQ(got[i].dist.family(), expected[i].dist.family()) << i;
      ASSERT_EQ(bits(got[i].dist.weight()), bits(expected[i].dist.weight()))
          << i;
    }
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(BottomK, SelfMergeIsANoOp) {
  // Regression: Merge(*this) used to mutate the heap while iterating it.
  Xoshiro256 rng(21);
  BottomK<int> sketch(8);
  for (int i = 0; i < 200; ++i) sketch.Offer(rng.NextDoubleOpenZero(), i);
  const auto before = sketch.SortedEntries();
  const double threshold_before = sketch.Threshold();

  sketch.Merge(sketch);

  EXPECT_DOUBLE_EQ(sketch.Threshold(), threshold_before);
  const auto after = sketch.SortedEntries();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i].priority, before[i].priority);
    EXPECT_EQ(after[i].payload, before[i].payload);
  }
}

TEST(BottomK, MergeThroughReferenceAliasIsSafe) {
  BottomK<int> sketch(4);
  for (int i = 0; i < 50; ++i) sketch.Offer(0.01 * (i + 1), i);
  const BottomK<int>& alias = sketch;
  const size_t size_before = sketch.size();
  sketch.Merge(alias);
  EXPECT_EQ(sketch.size(), size_before);
}

TEST(BottomK, OfferBatchMatchesScalarOffers) {
  Xoshiro256 rng(22);
  std::vector<double> priorities(4000);
  std::vector<int> payloads(4000);
  for (size_t i = 0; i < priorities.size(); ++i) {
    priorities[i] = rng.NextDoubleOpenZero();
    payloads[i] = static_cast<int>(i);
  }
  BottomK<int> scalar(32), batched(32);
  for (size_t i = 0; i < priorities.size(); ++i) {
    scalar.Offer(priorities[i], payloads[i]);
  }
  batched.OfferBatch(priorities, payloads);
  EXPECT_DOUBLE_EQ(batched.Threshold(), scalar.Threshold());
  const auto a = batched.SortedEntries();
  const auto b = scalar.SortedEntries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

}  // namespace
}  // namespace ats
