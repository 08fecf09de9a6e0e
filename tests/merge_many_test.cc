// Differential tests for the threshold-pruned k-way merge engine: the
// one-shot aggregation paths (SampleStore::MergeMany, BottomK::
// MergeMany/MergeManyFrames, KmvSketch::MergeMany/MergeManyFrames,
// ThetaSketch::UnionMany, GroupDistinctSketch::MergeMany, the sharded
// front-end's snapshot cache) must be observationally identical to the
// sequential pairwise-Merge reference -- retained multiset, threshold,
// ties, and warm-up exactly equal -- including k = 1, duplicate
// priorities, and empty/degenerate shards.
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/core/sample_store.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/theta.h"

namespace ats {
namespace {

// Sorted (priority, payload) pairs for state comparison.
std::vector<std::pair<double, uint64_t>> Snapshot(
    const SampleStore<uint64_t>& store) {
  std::vector<std::pair<double, uint64_t>> out;
  for (size_t i : store.SortedOrder()) {
    out.emplace_back(store.priorities()[i], store.payloads()[i]);
  }
  return out;
}

// Duplicate-heavy priority generator: half continuous, half from a tiny
// grid so ties (including at the threshold) are common.
double GenPriority(Xoshiro256& rng) {
  if (rng.NextBelow(2) == 0) return rng.NextDoubleOpenZero();
  return 0.03 * static_cast<double>(1 + rng.NextBelow(32));
}

class MergeManySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeManySweep, StoreMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 1013 + 7);
  // MergeMany must read RAW buffers: inputs holding more than k entries
  // between compactions (the state the concurrent snapshot fold gathers
  // from). The pairwise chain canonicalizes its inputs, so every
  // MergeMany leg below runs before it, on untouched inputs.
  size_t raw_inputs = 0;
  for (size_t k : {1u, 2u, 7u, 33u}) {
    const size_t num_inputs = 1 + rng.NextBelow(8);
    std::vector<SampleStore<uint64_t>> inputs(
        num_inputs, SampleStore<uint64_t>(k));
    uint64_t id = 0;
    for (auto& in : inputs) {
      // Some shards stay empty, some underfull, some deeply saturated.
      const size_t n = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(12 * k + 1);
      for (size_t i = 0; i < n; ++i) in.Offer(GenPriority(rng), id++);
    }
    // The accumulator starts non-empty half the time (warm-up coverage).
    SampleStore<uint64_t> seq(k), many(k);
    if (rng.NextBelow(2) == 0) {
      const size_t n = rng.NextBelow(3 * k + 1);
      for (size_t i = 0; i < n; ++i) {
        const double p = GenPriority(rng);
        seq.Offer(p, id);
        many.Offer(p, id);
        ++id;
      }
    }
    const SampleStore<uint64_t> warm = many;
    // Copies keep the raw buffers for the pre-lowered legs below.
    const std::vector<SampleStore<uint64_t>> raw_copies = inputs;
    std::vector<const SampleStore<uint64_t>*> ptrs;
    std::vector<size_t> buffered;
    for (const auto& in : inputs) {
      ptrs.push_back(&in);
      buffered.push_back(in.BufferedSize());
      raw_inputs += in.BufferedSize() > k ? 1 : 0;
    }

    many.MergeMany(ptrs);
    // Pure reads: MergeMany left every input's raw buffer as it was.
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(inputs[i].BufferedSize(), buffered[i]);
    }
    for (const auto* in : ptrs) seq.Merge(*in);

    ASSERT_DOUBLE_EQ(many.Threshold(), seq.Threshold()) << "k=" << k;
    ASSERT_EQ(many.saturated(), seq.saturated());
    ASSERT_EQ(Snapshot(many), Snapshot(seq)) << "k=" << k;
    // Column order too: both are the stable, input-major survivors.
    ASSERT_EQ(many.priorities(), seq.priorities()) << "k=" << k;
    ASSERT_EQ(many.payloads(), seq.payloads()) << "k=" << k;

    // Pre-lowered accumulator (the concurrent rebuild's start): any
    // bound at or above the chain's final threshold -- here exactly that
    // threshold, and a looser one -- followed by one Gather per raw
    // input and one purge, must equal the chain.
    const double final_threshold = seq.Threshold();
    for (const double bound :
         {final_threshold, final_threshold * (1.0 + rng.NextDouble())}) {
      SampleStore<uint64_t> pruned = warm;
      pruned.LowerThreshold(bound);
      for (const auto& in : raw_copies) pruned.Gather(in);
      pruned.PurgeAboveThreshold();
      ASSERT_DOUBLE_EQ(pruned.Threshold(), final_threshold) << "k=" << k;
      ASSERT_EQ(pruned.priorities(), seq.priorities()) << "k=" << k;
      ASSERT_EQ(pruned.payloads(), seq.payloads()) << "k=" << k;
    }
  }
  EXPECT_GT(raw_inputs, 0u) << "no input held a raw (> k) buffer";
}

TEST_P(MergeManySweep, BottomKFramesEqualSequentialDeserializeMerge) {
  Xoshiro256 rng(GetParam() * 733 + 11);
  for (size_t k : {1u, 3u, 16u}) {
    const size_t num_inputs = 1 + rng.NextBelow(7);
    std::vector<std::string> frames;
    std::vector<BottomK<uint64_t>> originals;
    uint64_t id = 0;
    for (size_t s = 0; s < num_inputs; ++s) {
      BottomK<uint64_t> in(k);
      const size_t n = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(8 * k + 1);
      for (size_t i = 0; i < n; ++i) in.Offer(GenPriority(rng), id++);
      frames.push_back(in.SerializeToString());
      originals.push_back(std::move(in));
    }

    BottomK<uint64_t> seq(k), many(k);
    const size_t warm = rng.NextBelow(2 * k + 1);
    for (size_t i = 0; i < warm; ++i) {
      const double p = GenPriority(rng);
      seq.Offer(p, id);
      many.Offer(p, id);
      ++id;
    }
    for (const std::string& f : frames) {
      auto sketch = BottomK<uint64_t>::Deserialize(std::string_view(f));
      ASSERT_TRUE(sketch.has_value());
      seq.Merge(*sketch);
    }
    std::vector<std::string_view> views(frames.begin(), frames.end());
    ASSERT_TRUE(many.MergeManyFrames(views));

    ASSERT_DOUBLE_EQ(many.Threshold(), seq.Threshold()) << "k=" << k;
    ASSERT_EQ(Snapshot(many.store()), Snapshot(seq.store()));

    // The store-pointer path must agree with the same pairwise chain.
    std::vector<const BottomK<uint64_t>*> ptrs;
    for (const auto& o : originals) ptrs.push_back(&o);
    BottomK<uint64_t> via_stores(k);
    via_stores.MergeMany(ptrs);
    BottomK<uint64_t> via_pairwise(k);
    for (const auto& o : originals) via_pairwise.Merge(o);
    ASSERT_DOUBLE_EQ(via_stores.Threshold(), via_pairwise.Threshold());
    ASSERT_EQ(Snapshot(via_stores.store()), Snapshot(via_pairwise.store()));
  }
}

TEST_P(MergeManySweep, KmvMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 389 + 3);
  const uint64_t salt = GetParam();
  for (size_t k : {1u, 4u, 32u}) {
    const size_t num_inputs = 1 + rng.NextBelow(7);
    std::vector<KmvSketch> inputs;
    for (size_t s = 0; s < num_inputs; ++s) {
      KmvSketch in(k, 1.0, salt);
      // Overlapping key universes: duplicate suppression across inputs.
      const size_t n = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(600);
      for (size_t i = 0; i < n; ++i) in.AddKey(rng.NextBelow(900));
      inputs.push_back(std::move(in));
    }
    KmvSketch seq(k, 1.0, salt), many(k, 1.0, salt);
    const size_t warm = rng.NextBelow(300);
    for (size_t i = 0; i < warm; ++i) {
      const uint64_t key = rng.NextBelow(900);
      seq.AddKey(key);
      many.AddKey(key);
    }
    std::vector<const KmvSketch*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);
    // MergeMany first: it must read the inputs' raw (uncompacted)
    // buffers, which the pairwise chain below canonicalizes.
    many.MergeMany(ptrs);
    for (const auto* in : ptrs) seq.Merge(*in);

    ASSERT_DOUBLE_EQ(many.Threshold(), seq.Threshold()) << "k=" << k;
    ASSERT_EQ(many.members(), seq.members()) << "k=" << k;
    ASSERT_DOUBLE_EQ(many.Estimate(), seq.Estimate());

    // And the wire path: frames of the same inputs into a fresh sketch.
    std::vector<std::string> frames;
    for (const auto& in : inputs) frames.push_back(in.SerializeToString());
    std::vector<std::string_view> frame_views(frames.begin(), frames.end());
    KmvSketch off_wire(k, 1.0, salt);
    ASSERT_TRUE(off_wire.MergeManyFrames(frame_views));
    KmvSketch off_wire_seq(k, 1.0, salt);
    for (const std::string& f : frames) {
      auto sketch = KmvSketch::Deserialize(std::string_view(f));
      ASSERT_TRUE(sketch.has_value());
      off_wire_seq.Merge(*sketch);
    }
    ASSERT_DOUBLE_EQ(off_wire.Threshold(), off_wire_seq.Threshold());
    ASSERT_EQ(off_wire.members(), off_wire_seq.members());
  }
}

TEST_P(MergeManySweep, ThetaUnionManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 577 + 29);
  const uint64_t salt = GetParam() + 1;
  const size_t num_inputs = 2 + rng.NextBelow(6);
  std::vector<ThetaSketch> inputs;
  for (size_t s = 0; s < num_inputs; ++s) {
    ThetaSketch in(8 + rng.NextBelow(64), salt);
    const size_t n = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(2000);
    for (size_t i = 0; i < n; ++i) in.AddKey(rng.NextBelow(5000));
    inputs.push_back(std::move(in));
  }
  std::vector<const ThetaSketch*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);

  ThetaSketch seq = inputs[0];
  for (size_t s = 1; s < inputs.size(); ++s) seq.Merge(inputs[s]);
  const ThetaSketch many = ThetaSketch::UnionMany(ptrs);

  ASSERT_DOUBLE_EQ(many.Theta(), seq.Theta());
  ASSERT_EQ(many.size(), seq.size());
  ASSERT_EQ(many.RetainedPriorities(), seq.RetainedPriorities());
  ASSERT_DOUBLE_EQ(many.Estimate(), seq.Estimate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeManySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MergeMany, EmptyInputListIsANoOp) {
  SampleStore<uint64_t> store(4);
  store.Offer(0.25, 1);
  store.Offer(0.5, 2);
  const auto before = Snapshot(store);
  store.MergeMany({});
  EXPECT_EQ(Snapshot(store), before);
  EXPECT_DOUBLE_EQ(store.Threshold(), kInfiniteThreshold);
}

TEST(MergeMany, NoOpInputsKeepTiesAtTheThreshold) {
  // Regression: a canonical store may retain entries tied AT the
  // threshold (first-arrived ties at the compaction pivot). A MergeMany
  // with no real inputs -- empty span, only self-aliases, or an empty
  // frame list -- must not run the closing purge and drop them, exactly
  // as the zero-length pairwise chain leaves them alone.
  const auto tied_store = [] {
    SampleStore<uint64_t> s(2);
    for (uint64_t i = 0; i < 4; ++i) s.Offer(0.5, i);
    return s;
  };
  SampleStore<uint64_t> store = tied_store();
  ASSERT_EQ(store.size(), 2u);
  ASSERT_DOUBLE_EQ(store.Threshold(), 0.5);

  store.MergeMany({});
  EXPECT_EQ(store.size(), 2u);
  SampleStore<uint64_t> self_only = tied_store();
  std::vector<const SampleStore<uint64_t>*> self_inputs{&self_only,
                                                        &self_only};
  self_only.MergeMany(self_inputs);
  EXPECT_EQ(self_only.size(), 2u);
  EXPECT_DOUBLE_EQ(self_only.Threshold(), 0.5);

  BottomK<uint64_t> sketch(2);
  for (uint64_t i = 0; i < 4; ++i) sketch.Offer(0.5, i);
  ASSERT_EQ(sketch.size(), 2u);
  EXPECT_TRUE(sketch.MergeManyFrames({}));
  EXPECT_EQ(sketch.size(), 2u);
}

TEST(MergeMany, SelfAliasesAreSkipped) {
  SampleStore<uint64_t> store(4);
  for (uint64_t i = 0; i < 40; ++i) store.Offer(0.01 * double(i + 1), i);
  const auto before = Snapshot(store);
  const double threshold_before = store.Threshold();
  std::vector<const SampleStore<uint64_t>*> inputs{&store, &store};
  store.MergeMany(inputs);
  EXPECT_EQ(Snapshot(store), before);
  EXPECT_DOUBLE_EQ(store.Threshold(), threshold_before);
}

TEST(MergeMany, DuplicateInputPointersMatchSequentialDoubleMerge) {
  // A store listed twice contributes its items twice -- exactly what two
  // sequential Merge calls against it produce.
  SampleStore<uint64_t> input(8);
  input.Offer(0.1, 1);
  input.Offer(0.2, 2);
  SampleStore<uint64_t> seq(8), many(8);
  seq.Merge(input);
  seq.Merge(input);
  std::vector<const SampleStore<uint64_t>*> inputs{&input, &input};
  many.MergeMany(inputs);
  EXPECT_EQ(Snapshot(many), Snapshot(seq));
  EXPECT_EQ(many.size(), 4u);  // duplicates retained below capacity
}

TEST(MergeMany, InitialThresholdsAreMerged) {
  SampleStore<uint64_t> acc(8, /*initial_threshold=*/0.9);
  SampleStore<uint64_t> tight(8, /*initial_threshold=*/0.4);
  std::vector<const SampleStore<uint64_t>*> inputs{&tight};
  acc.MergeMany(inputs);
  EXPECT_DOUBLE_EQ(acc.initial_threshold(), 0.4);
  EXPECT_DOUBLE_EQ(acc.Threshold(), 0.4);
  EXPECT_FALSE(acc.Offer(0.5, 1));
  EXPECT_TRUE(acc.Offer(0.3, 2));
}

TEST(MergeMany, MutationEpochTracksObservableChanges) {
  SampleStore<uint64_t> store(4, /*initial_threshold=*/0.8);
  const uint64_t e0 = store.mutation_epoch();
  EXPECT_TRUE(store.Offer(0.5, 1));
  EXPECT_GT(store.mutation_epoch(), e0);
  const uint64_t e1 = store.mutation_epoch();
  EXPECT_FALSE(store.Offer(0.9, 2));  // rejected: no observable change
  EXPECT_EQ(store.mutation_epoch(), e1);
  // Canonicalization is representation-only: the epoch must not move, or
  // query caches keyed on it would self-invalidate.
  for (uint64_t i = 0; i < 64; ++i) store.Offer(0.001 * double(i + 1), i);
  const uint64_t e2 = store.mutation_epoch();
  store.Canonicalize();
  (void)store.Threshold();
  (void)store.priorities();
  EXPECT_EQ(store.mutation_epoch(), e2);
  store.LowerThreshold(0.0015);
  EXPECT_GT(store.mutation_epoch(), e2);
  // An all-rejected batch is not an observable change either -- it must
  // not invalidate query caches in the saturated steady state.
  const uint64_t e3 = store.mutation_epoch();
  const std::vector<double> high(130, 0.7);
  const std::vector<uint64_t> ids(130, 1);
  EXPECT_EQ(store.OfferBatch(high, ids), 0u);
  EXPECT_EQ(store.mutation_epoch(), e3);
  EXPECT_GT(store.OfferBatch(std::vector<double>(1, 1e-9),
                             std::vector<uint64_t>(1, 2)),
            0u);
  EXPECT_GT(store.mutation_epoch(), e3);
}

TEST(MergeMany, GroupDistinctMergeManyExactInDemotionFreeRegime) {
  // With m large enough that no demotion ever fires, the k-way union and
  // the pairwise chain agree exactly: same pool threshold, same
  // promoted set, same per-group estimates.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Xoshiro256 rng(seed * 41 + 13);
    const size_t m = 64, k = 8;
    std::vector<GroupDistinctSketch> inputs(
        3, GroupDistinctSketch(m, k, /*hash_salt=*/7));
    for (auto& in : inputs) {
      const size_t n = 200 + rng.NextBelow(800);
      for (size_t i = 0; i < n; ++i) {
        in.Add(rng.NextBelow(12), rng.NextBelow(400));
      }
    }
    GroupDistinctSketch seq(m, k, 7), many(m, k, 7);
    std::vector<const GroupDistinctSketch*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);
    for (const auto* in : ptrs) seq.Merge(*in);
    many.MergeMany(ptrs);

    ASSERT_DOUBLE_EQ(many.PoolThreshold(), seq.PoolThreshold());
    ASSERT_EQ(many.GroupsWithSamples(), seq.GroupsWithSamples());
    ASSERT_EQ(many.StoredItems(), seq.StoredItems());
    for (uint64_t g : many.GroupsWithSamples()) {
      ASSERT_EQ(many.IsPromoted(g), seq.IsPromoted(g)) << "group " << g;
      ASSERT_DOUBLE_EQ(many.Estimate(g), seq.Estimate(g)) << "group " << g;
    }
  }
}

TEST(MergeMany, GroupDistinctMergeManyInvariantsUnderDemotionPressure) {
  // Tiny m forces demotions; the k-way union keeps the structural
  // invariants (m bound, pool completeness below the pool threshold)
  // and estimates stay accurate HT counts of the union.
  Xoshiro256 rng(99);
  const size_t m = 2, k = 16;
  std::vector<GroupDistinctSketch> inputs(
      4, GroupDistinctSketch(m, k, /*hash_salt=*/3));
  std::vector<std::set<uint64_t>> truth(6);
  for (auto& in : inputs) {
    for (size_t i = 0; i < 3000; ++i) {
      // Zipf-ish: two heavy groups, four light ones.
      const uint64_t g = rng.NextBelow(10) < 7 ? rng.NextBelow(2)
                                               : 2 + rng.NextBelow(4);
      const uint64_t key = rng.NextBelow(g < 2 ? 2000 : 40);
      in.Add(g, key);
      truth[g].insert(key);
    }
  }
  GroupDistinctSketch many(m, k, 3);
  std::vector<const GroupDistinctSketch*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  many.MergeMany(ptrs);

  EXPECT_LE(many.NumPromoted(), m);
  EXPECT_GT(many.PoolThreshold(), 0.0);
  for (uint64_t g = 0; g < truth.size(); ++g) {
    const double n = double(truth[g].size());
    const double est = many.Estimate(g);
    // Heavy groups: KMV accuracy. Light groups: pool-resolution HT
    // counts -- tolerance a couple of multiples of 1/T_max.
    const double tol =
        6.0 * n / std::sqrt(double(k)) + 3.0 / many.PoolThreshold();
    EXPECT_NEAR(est, n, tol) << "group " << g;
  }
}

TEST(MergeMany, ShardedQueriesAreCachedBetweenIngestBatches) {
  // The dirty-epoch cache must (a) return the same snapshot on repeated
  // queries, (b) stay exact across interleaved ingest and queries --
  // equal to a single coordinated store fed the same stream.
  Xoshiro256 rng(17);
  const size_t k = 64;
  ConcurrentPrioritySampler sharded(8, k, /*coordinated=*/true);
  PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
  std::vector<PrioritySampler::Item> batch;
  uint64_t key = 0;
  for (int round = 0; round < 6; ++round) {
    batch.clear();
    const size_t n = 1 + rng.NextBelow(4000);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back({key++, 1.0 + rng.NextDouble()});
    }
    sharded.AddBatch(batch);
    for (const auto& item : batch) single.Add(item.key, item.weight);

    const auto snapshot = sharded.Snapshot();
    ASSERT_EQ(sharded.Snapshot().get(), snapshot.get());  // the cache
    const auto merged1 = sharded.Merged();

    ASSERT_DOUBLE_EQ(merged1.threshold, single.Threshold());
    auto sorted_keys = [](std::vector<SampleEntry> entries) {
      std::vector<uint64_t> keys;
      for (const auto& e : entries) keys.push_back(e.key);
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    ASSERT_EQ(sorted_keys(merged1.entries), sorted_keys(single.Sample()));
    ASSERT_DOUBLE_EQ(snapshot->Threshold(), single.Threshold());
  }
}

TEST(MergeMany, ShardedCacheInvalidatesOnScalarAdd) {
  ConcurrentPrioritySampler sharded(4, 8, /*coordinated=*/true);
  for (uint64_t i = 0; i < 200; ++i) sharded.Add({i, 1.0});
  const double t1 = sharded.Snapshot()->Threshold();
  PrioritySampler single(8, 1, /*coordinated=*/true);
  for (uint64_t i = 0; i < 200; ++i) single.Add(i, 1.0);
  ASSERT_DOUBLE_EQ(t1, single.Threshold());
  // One more item must be visible through the cache.
  sharded.Add({777777, 123.0});
  single.Add(777777, 123.0);
  ASSERT_DOUBLE_EQ(sharded.Snapshot()->Threshold(), single.Threshold());
  ASSERT_EQ(sharded.Merged().entries.size(), single.Sample().size());
}

}  // namespace
}  // namespace ats
