// Memory-accounting tests for the MemoryFootprint() convention
// (util/memory.h): exact for SampleStore's SoA columns, monotone under
// ingest between compactions, visibly dropping at compaction and at
// checkpoint log-truncation, and nonzero/growing across every sampler,
// sketch, and front-end family that reports it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ats/cluster/node.h"
#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/core/sample_store.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_objective.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/topk_sampler.h"
#include "ats/samplers/variance_sized.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/lcs_merge.h"
#include "ats/sketch/theta.h"
#include "tests/sharded_reference.h"

namespace ats {
namespace {

TEST(MemoryFootprint, SampleStoreIsExactPerBufferedEntry) {
  SampleStore<uint64_t> store(4);
  Xoshiro256 rng(17);
  EXPECT_EQ(store.MemoryFootprint(), 0u);
  for (int i = 0; i < 200; ++i) {
    store.Offer(rng.NextDoubleOpenZero(), static_cast<uint64_t>(i));
    // Exactness: the SoA columns are both BufferedSize() long, so the
    // footprint is a closed form of the occupancy at every step --
    // including mid-buffer states between compactions.
    ASSERT_EQ(store.MemoryFootprint(),
              store.BufferedSize() * (sizeof(double) + sizeof(uint64_t)));
  }
  store.Canonicalize();
  EXPECT_EQ(store.MemoryFootprint(),
            store.size() * (sizeof(double) + sizeof(uint64_t)));
}

TEST(MemoryFootprint, SampleStoreGrowsUnderIngestAndShrinksAtCompaction) {
  SampleStore<uint64_t> store(8);
  Xoshiro256 rng(23);
  size_t prev = store.MemoryFootprint();
  bool saw_growth = false;
  bool saw_compaction_drop = false;
  for (int i = 0; i < 2000; ++i) {
    const bool accepted =
        store.Offer(rng.NextDoubleOpenZero(), static_cast<uint64_t>(i));
    const size_t now = store.MemoryFootprint();
    if (accepted && now > prev) saw_growth = true;
    // The only way the footprint moves down is the 2k compaction: an
    // accepted offer that lands SMALLER than before proves the drop is
    // visible through the accounting (size, not capacity).
    if (now < prev) saw_compaction_drop = true;
    if (!accepted) {
      ASSERT_EQ(now, prev) << "rejected offers must not move the footprint";
    }
    prev = now;
  }
  EXPECT_TRUE(saw_growth);
  EXPECT_TRUE(saw_compaction_drop);
  // Explicit canonicalization compacts down to <= k entries: never larger.
  const size_t before = store.MemoryFootprint();
  store.Canonicalize();
  EXPECT_LE(store.MemoryFootprint(), before);
}

TEST(MemoryFootprint, SketchFamiliesReportGrowthUnderIngest) {
  Xoshiro256 rng(31);
  std::vector<uint64_t> keys(512);
  for (auto& k : keys) k = rng.Next();

  // Hash-backed families model the bucket array, so an empty instance
  // reports a small constant rather than exactly zero; growth is the
  // contract.
  KmvSketch kmv(32, 1.0, 7);
  const size_t kmv_empty = kmv.MemoryFootprint();
  kmv.AddKeys(keys);
  EXPECT_GT(kmv.MemoryFootprint(), kmv_empty);

  ThetaSketch theta(32, 7);
  const size_t theta_empty = theta.MemoryFootprint();
  theta.AddKeys(keys);
  EXPECT_GT(theta.MemoryFootprint(), theta_empty);

  LcsSketch lcs = LcsSketch::FromKmv(kmv);
  EXPECT_GT(lcs.MemoryFootprint(), 0u);

  GroupDistinctSketch groups(8, 16, 7);
  const size_t groups_empty = groups.MemoryFootprint();
  for (uint64_t i = 0; i < 400; ++i) groups.Add(i % 8, rng.Next());
  EXPECT_GT(groups.MemoryFootprint(), groups_empty);
}

TEST(MemoryFootprint, SamplerFamiliesReportGrowthUnderIngest) {
  Xoshiro256 rng(37);

  SlidingWindowSampler window(16, /*window=*/1.0, 5);
  EXPECT_EQ(window.MemoryFootprint(), 0u);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += 0.01;
    window.Arrive(t, static_cast<uint64_t>(i));
  }
  EXPECT_GT(window.MemoryFootprint(), 0u);

  TimeDecaySampler decay(16, 5);
  EXPECT_EQ(decay.MemoryFootprint(), 0u);
  for (int i = 0; i < 300; ++i) {
    decay.Add(static_cast<uint64_t>(i), 1.0, 1.0, 0.01 * i);
  }
  EXPECT_GT(decay.MemoryFootprint(), 0u);

  TopKSampler topk(16, 5);
  const size_t topk_empty = topk.MemoryFootprint();
  for (int i = 0; i < 300; ++i) topk.Add(rng.NextBelow(64));
  EXPECT_GT(topk.MemoryFootprint(), topk_empty);

  BudgetSampler budget(50.0, 5);
  EXPECT_EQ(budget.MemoryFootprint(), 0u);
  for (int i = 0; i < 300; ++i) {
    budget.Add(static_cast<uint64_t>(i), 1.0 + rng.NextDouble(), 1.0);
  }
  EXPECT_GT(budget.MemoryFootprint(), 0u);

  MultiObjectiveSampler multi(2, 16, 5);
  for (int i = 0; i < 300; ++i) {
    multi.Add(static_cast<uint64_t>(i), {1.0, rng.NextDoubleOpenZero()},
              1.0);
  }
  EXPECT_GT(multi.MemoryFootprint(), 0u);

  VarianceSizedSampler variance(0.01, 5);
  EXPECT_EQ(variance.MemoryFootprint(), 0u);
  for (int i = 0; i < 300; ++i) {
    variance.Add(static_cast<uint64_t>(i), rng.NextDouble(), 1.0);
  }
  EXPECT_GT(variance.MemoryFootprint(), 0u);

  MultiStratifiedSampler strat(2, 8, 5);
  const size_t strat_empty = strat.MemoryFootprint();
  for (uint64_t i = 0; i < 300; ++i) {
    strat.Add(i, {i % 4, i % 3}, 1.0);
  }
  const size_t full = strat.MemoryFootprint();
  EXPECT_GT(full, strat_empty);
  // Budget shrink is the stratified sampler's compaction: the
  // accounting must see the evictions.
  strat.ShrinkToBudget(3 * 8);
  EXPECT_LT(strat.MemoryFootprint(), full);
}

TEST(MemoryFootprint, FrontEndsSumTheirShards) {
  Xoshiro256 rng(43);

  // The front-end's shards are the per-shard reference's, so its
  // footprint covers the reference shards' sum.
  ConcurrentPrioritySampler sharded(4, 16);
  auto shards = PriorityReference(4, 16);
  const size_t sharded_empty = sharded.MemoryFootprint();
  for (int i = 0; i < 400; ++i) {
    const PrioritySampler::Item item{rng.Next(), rng.NextDoubleOpenZero()};
    sharded.Add(item);
    shards.ShardFor(item.key).Add(item.key, item.weight);
  }
  size_t shard_sum = 0;
  for (size_t s = 0; s < shards.num_shards(); ++s) {
    shard_sum += shards.shard(s).MemoryFootprint();
  }
  EXPECT_GT(sharded.MemoryFootprint(), sharded_empty);
  EXPECT_GE(sharded.MemoryFootprint(), shard_sum);

  ConcurrentKmvSketch concurrent(4, 32, 7);
  const size_t concurrent_empty = concurrent.MemoryFootprint();
  std::vector<uint64_t> keys(400);
  for (auto& k : keys) k = rng.Next();
  concurrent.AddBatch(keys);
  EXPECT_GT(concurrent.MemoryFootprint(), concurrent_empty);
}

TEST(MemoryFootprint, AgentLogDominatesThenDropsAtCheckpointTruncation) {
  cluster::AgentNode agent(/*id=*/0, /*k=*/64, /*salt=*/7,
                           cluster::RetryPolicy{});
  const std::string dir = ::testing::TempDir();
  agent.ConfigureCheckpoint({dir + "ats_footprint_agent.ckp",
                             /*every_epochs=*/1, /*prefer_mmap=*/true});

  Xoshiro256 rng(47);
  std::vector<uint64_t> keys(256);
  size_t after_first_batch = 0;
  for (int batch = 0; batch < 8; ++batch) {
    for (auto& k : keys) k = rng.Next();
    agent.Ingest(keys);
    if (batch == 0) after_first_batch = agent.MemoryFootprint();
  }
  // The un-checkpointed replay log dominates: cumulative growth is
  // visible through the accounting even though the sketch's own
  // compactions shed bytes along the way.
  const size_t with_log = agent.MemoryFootprint();
  ASSERT_GT(with_log, after_first_batch);
  EXPECT_GE(with_log, agent.log().size() * sizeof(uint64_t));
  agent.MaybeCheckpoint();
  ASSERT_EQ(agent.checkpoints_written(), 1u);
  EXPECT_EQ(agent.log().size(), 0u);  // truncated to the covered suffix
  // The durable file absorbed the log: the in-memory footprint drops to
  // roughly the sketch alone.
  EXPECT_LT(agent.MemoryFootprint(), with_log);
  EXPECT_EQ(agent.epochs_since_checkpoint(), 0u);
}

}  // namespace
}  // namespace ats
