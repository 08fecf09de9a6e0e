// Edge-case and degenerate-input tests across the library: k = 1,
// single-item streams, empty samples, extreme weights, and adversarial
// orderings. These guard the boundaries the property suites rarely hit.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ats/baselines/varopt.h"
#include "ats/core/bottom_k.h"
#include "ats/core/ht_estimator.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/topk_sampler.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/util/stats.h"

namespace ats {
namespace {

TEST(EdgeCases, BottomKWithKOne) {
  BottomK<int> sketch(1);
  sketch.Offer(0.5, 1);
  sketch.Offer(0.3, 2);
  sketch.Offer(0.7, 3);
  EXPECT_EQ(sketch.size(), 1u);
  EXPECT_DOUBLE_EQ(sketch.entries()[0].priority, 0.3);
  EXPECT_DOUBLE_EQ(sketch.Threshold(), 0.5);
}

TEST(EdgeCases, BottomKDescendingStream) {
  // Every arrival evicts: the worst case for the heap.
  BottomK<int> sketch(3);
  for (int i = 100; i > 0; --i) {
    sketch.Offer(0.001 * i, i);
  }
  const auto entries = sketch.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries[0].priority, 0.001);
  EXPECT_DOUBLE_EQ(sketch.Threshold(), 0.004);
}

TEST(EdgeCases, BottomKAscendingStream) {
  // No arrival after the k-th is ever retained in the canonical state.
  // Acceptance is chunked: arrivals 4..2k are buffered until the first
  // compaction tightens the bound to the (k+1)-th smallest; after that
  // every later (larger) arrival is rejected outright.
  BottomK<int> sketch(3);
  for (int i = 1; i <= 100; ++i) {
    const bool accepted = sketch.Offer(0.001 * i, i);
    if (i <= 3) {
      EXPECT_TRUE(accepted);
    }
    if (i > 6) {
      EXPECT_FALSE(accepted) << i;  // past the 2k warm-up buffer
    }
  }
  EXPECT_DOUBLE_EQ(sketch.Threshold(), 0.004);
  const auto entries = sketch.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries.back().priority, 0.003);
}

TEST(EdgeCases, EmptySampleEstimatesAreZero) {
  std::vector<SampleEntry> empty;
  EXPECT_EQ(HtTotal(empty), 0.0);
  EXPECT_EQ(HtCount(empty), 0.0);
  EXPECT_EQ(HtVarianceEstimate(empty), 0.0);
  EXPECT_EQ(PairwiseHtSum(empty, [](const SampleEntry&,
                                    const SampleEntry&) { return 1.0; }),
            0.0);
}

TEST(EdgeCases, BudgetExactlyOneItem) {
  BudgetSampler sampler(5.0, 1);
  EXPECT_TRUE(sampler.Add(0, 5.0, 1.0));  // exactly fills the budget
  EXPECT_FALSE(sampler.Add(1, 5.0001, 1.0));
  EXPECT_EQ(sampler.size(), 1u);
}

TEST(EdgeCases, BudgetManyTinyItems) {
  BudgetSampler sampler(10.0, 2);
  for (uint64_t i = 0; i < 5000; ++i) sampler.Add(i, 0.01, 1.0);
  EXPECT_LE(sampler.UsedBudget(), 10.0);
  EXPECT_GE(sampler.size(), 990u);
  EXPECT_LE(sampler.size(), 1000u);
}

TEST(EdgeCases, TopKSamplerKOne) {
  TopKSampler sampler(1, 3);
  for (int i = 0; i < 1000; ++i) sampler.Add(7);
  for (int i = 0; i < 10; ++i) sampler.Add(static_cast<uint64_t>(100 + i));
  const auto top = sampler.TopK();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 7u);
}

TEST(EdgeCases, TopKSamplerSingleRepeatedItem) {
  TopKSampler sampler(5, 4);
  for (int i = 0; i < 100000; ++i) sampler.Add(42);
  EXPECT_DOUBLE_EQ(sampler.EstimatedCount(42), 100000.0);
  EXPECT_EQ(sampler.size(), 1u);
}

TEST(EdgeCases, SlidingWindowSingleArrival) {
  SlidingWindowSampler sampler(10, 1.0, 5);
  EXPECT_TRUE(sampler.Arrive(0.5, 1));
  EXPECT_EQ(sampler.ImprovedSample(1.0).size(), 1u);
  // After the item expires the sample is empty.
  EXPECT_EQ(sampler.ImprovedSample(2.0).size(), 0u);
}

TEST(EdgeCases, SlidingWindowBigGapResets) {
  SlidingWindowSampler sampler(5, 1.0, 6);
  for (uint64_t i = 0; i < 100; ++i) {
    sampler.Arrive(0.001 * static_cast<double>(i), i);
  }
  // Silence for 10 windows; everything must be gone.
  EXPECT_EQ(sampler.StoredCount(10.0), 0u);
  // The sampler resumes cleanly.
  EXPECT_TRUE(sampler.Arrive(10.5, 1000));
  EXPECT_EQ(sampler.ImprovedSample(10.6).size(), 1u);
}

TEST(EdgeCases, KmvSmallerUniverseThanK) {
  KmvSketch sketch(1000);
  for (int rep = 0; rep < 3; ++rep) {
    for (uint64_t i = 0; i < 200; ++i) sketch.AddKey(i);
  }
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 200.0);
  EXPECT_FALSE(sketch.saturated());
}

TEST(EdgeCases, KmvKOne) {
  KmvSketch sketch(1);
  for (uint64_t i = 0; i < 1000; ++i) sketch.AddKey(i);
  EXPECT_EQ(sketch.size(), 1u);
  EXPECT_GT(sketch.Estimate(), 50.0);  // 1/theta, very noisy but positive
}

TEST(EdgeCases, VarOptEqualWeightsIsUniform) {
  // With equal weights VarOpt degenerates to uniform sampling: every
  // adjusted weight equals total/k.
  VarOptSampler sampler(10, 7);
  for (uint64_t i = 0; i < 500; ++i) sampler.Add(i, 2.0);
  for (const auto& e : sampler.Sample()) {
    EXPECT_NEAR(e.adjusted_weight, 1000.0 / 10.0, 1e-9);
  }
}

TEST(EdgeCases, TimeDecayAllSameTimestamp) {
  TimeDecaySampler sampler(5, 8);
  for (uint64_t i = 0; i < 100; ++i) sampler.Add(i, 1.0, 1.0, 1.0);
  EXPECT_EQ(sampler.size(), 5u);
  // At the common timestamp the decayed total is just the count.
  RunningStat est;
  for (uint64_t s = 0; s < 200; ++s) {
    TimeDecaySampler t(5, 100 + s);
    for (uint64_t i = 0; i < 100; ++i) t.Add(i, 1.0, 1.0, 1.0);
    est.Add(t.EstimateDecayedTotal(1.0));
  }
  EXPECT_NEAR(est.mean(), 100.0, 4.0 * est.StdDev() / std::sqrt(200.0));
}

TEST(EdgeCases, MultiStratifiedSingleDimensionIsPlainStratified) {
  MultiStratifiedSampler sampler(1, 3, 9);
  for (uint64_t i = 0; i < 300; ++i) {
    sampler.Add(i, {i % 4}, 1.0);
  }
  for (uint64_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sampler.StratumSize(0, s), 3u);
  }
  EXPECT_EQ(sampler.size(), 12u);
}

TEST(EdgeCases, GroupDistinctSingleGroup) {
  GroupDistinctSketch sketch(4, 32);
  for (uint64_t i = 0; i < 10000; ++i) sketch.Add(1, i);
  EXPECT_NEAR(sketch.Estimate(1), 10000.0, 10000.0);
  EXPECT_EQ(sketch.NumPromoted(), 1u);
}

TEST(EdgeCases, ExtremeWeightRatios) {
  // 12 orders of magnitude between weights: HT still behaves.
  PrioritySampler sampler(20, 10);
  sampler.Add(0, 1e9);
  for (uint64_t i = 1; i < 2000; ++i) sampler.Add(i, 1e-3);
  const auto sample = sampler.Sample();
  bool found_heavy = false;
  for (const auto& e : sample) {
    if (e.key == 0) {
      found_heavy = true;
      EXPECT_NEAR(e.InclusionProbability(), 1.0, 1e-9);
    }
  }
  EXPECT_TRUE(found_heavy);
  // The heavy item is exact; the light mass (~2.0 total) is estimated
  // from ~19 sampled light items, so allow a few units of HT noise.
  const double est = HtTotal(sample);
  EXPECT_NEAR(est, 1e9 + 1999.0 * 1e-3, 3.0);
}

TEST(EdgeCases, SampleEntryInfiniteThresholdMeansCertainInclusion) {
  const SampleEntry e = MakeWeightedEntry(1, 0.001, 500.0,
                                          kInfiniteThreshold);
  EXPECT_DOUBLE_EQ(e.InclusionProbability(), 1.0);
}

}  // namespace
}  // namespace ats
