// Tests for the sharded front-end (concurrent_sampler.h) as a plain
// hash-partitioned sampler, driven from one thread. The load-bearing
// property (Section 2.5): with coordinated priorities, the
// sharded-then-merged sample and threshold are EXACTLY those of
// single-store ingestion, so estimates agree to the last bit -- for any
// shard count (including one and odd counts), with snapshots taken
// between rounds (which switch the writer-side prefilter on), and with
// items fed one at a time.
#include "ats/core/concurrent_sampler.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/ht_estimator.h"
#include "ats/core/random.h"

namespace ats {
namespace {

using Item = PrioritySampler::Item;

std::vector<Item> MakeStream(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Item> out(n);
  uint64_t key = 0;
  for (auto& item : out) {
    item.key = key++;
    item.weight = std::exp(0.5 * rng.NextGaussian());
  }
  return out;
}

std::vector<std::pair<double, uint64_t>> SortedSample(
    const std::vector<SampleEntry>& sample) {
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(sample.size());
  for (const auto& e : sample) out.emplace_back(e.priority, e.key);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ShardedSampler, CoordinatedShardingMatchesSingleStoreExactly) {
  // Rounds of growing size; odd rounds are fed one item at a time
  // through Add. A Snapshot() after every round publishes the prefilter
  // bound, so from round 1 on, ingest is filtered before routing --
  // at S = 1 too, where AddBatch otherwise skips the routing split.
  const size_t k = 100;
  const auto stream = MakeStream(20000, 11);
  const size_t rounds = 6;

  for (size_t num_shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(testing::Message() << "S=" << num_shards);
    ConcurrentPrioritySampler sharded(num_shards, k);
    PrioritySampler single(k, /*seed=*/1, /*coordinated=*/true);
    size_t begin = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const size_t end =
          r + 1 == rounds ? stream.size() : begin + 500 * (r + 1);
      const std::span<const Item> chunk(stream.data() + begin, end - begin);
      if (r % 2 == 1) {
        for (const Item& item : chunk) sharded.Add(item);
      } else {
        sharded.AddBatch(chunk);
      }
      for (const Item& item : chunk) single.Add(item.key, item.weight);
      begin = end;

      const auto merged = sharded.Merged();
      EXPECT_DOUBLE_EQ(merged.threshold, single.Threshold()) << "round " << r;
      EXPECT_DOUBLE_EQ(sharded.Snapshot()->Threshold(), merged.threshold);
      EXPECT_EQ(SortedSample(merged.entries), SortedSample(single.Sample()))
          << "round " << r;
      // Same estimates, to the bit.
      EXPECT_DOUBLE_EQ(HtTotal(merged.entries), HtTotal(single.Sample()))
          << "round " << r;
    }
  }
}

TEST(ShardedSampler, ScalarAndBatchedIngestAgree) {
  const auto stream = MakeStream(5000, 13);
  ConcurrentPrioritySampler scalar(4, 64), batched(4, 64);
  for (const auto& item : stream) scalar.Add(item);
  batched.AddBatch(stream);
  EXPECT_DOUBLE_EQ(batched.Snapshot()->Threshold(),
                   scalar.Snapshot()->Threshold());
  EXPECT_EQ(SortedSample(batched.Merged().entries),
            SortedSample(scalar.Merged().entries));
}

TEST(ShardedSampler, ShardsPartitionTheKeySpace) {
  ConcurrentPrioritySampler sharded(8, 32);
  const auto stream = MakeStream(4000, 17);
  sharded.AddBatch(stream);
  // Each retained key lives in exactly the shard its hash routes to.
  std::set<uint64_t> seen;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    for (const auto& e : sharded.ShardForTest(s).Sample()) {
      EXPECT_EQ(sharded.ShardOf(e.key), s);
      EXPECT_TRUE(seen.insert(e.key).second) << "key in two shards";
    }
  }
  EXPECT_EQ(sharded.TotalRetained(), seen.size());
}

TEST(ShardedSampler, MergedSampleSizeIsK) {
  const size_t k = 50;
  ConcurrentPrioritySampler sharded(4, k);
  const auto stream = MakeStream(10000, 19);
  sharded.AddBatch(stream);
  EXPECT_EQ(sharded.Merged().entries.size(), k);
  // Per-shard stores hold up to k each; the merge re-caps at k.
  EXPECT_GE(sharded.TotalRetained(), k);
}

}  // namespace
}  // namespace ats
