#include "ats/core/sharded_sampler.h"

#include "ats/core/epoch_cache.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/util/check.h"

namespace ats {

ShardedSampler::ShardedSampler(size_t num_shards, size_t k,
                               bool coordinated, uint64_t seed)
    : k_(k),
      route_salt_(internal::kShardRouteSalt),
      batch_scratch_(num_shards),
      merged_epochs_(num_shards, 0) {
  ATS_CHECK(num_shards >= 1);
  ATS_CHECK(k >= 1);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(k, seed + internal::kShardSeedStride * s,
                         coordinated);
  }
}

size_t ShardedSampler::ShardOf(uint64_t key) const {
  return static_cast<size_t>(HashKey(key, route_salt_) % shards_.size());
}

void ShardedSampler::Add(uint64_t key, double weight) {
  shards_[ShardOf(key)].Add(key, weight);
}

size_t ShardedSampler::AddBatch(std::span<const Item> items) {
  if (shards_.size() == 1) return shards_[0].AddBatch(items);
  for (auto& scratch : batch_scratch_) {
    scratch.clear();
    scratch.reserve(items.size() / shards_.size() + 16);
  }
  for (const Item& item : items) {
    batch_scratch_[ShardOf(item.key)].push_back(item);
  }
  size_t retained = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    retained += shards_[s].AddBatch(batch_scratch_[s]);
  }
  return retained;
}

size_t ShardedSampler::AddShardBatch(size_t shard,
                                     std::span<const Item> items) {
  ATS_CHECK(shard < shards_.size());
#ifndef NDEBUG
  for (const Item& item : items) ATS_DCHECK(ShardOf(item.key) == shard);
#endif
  return shards_[shard].AddBatch(items);
}

const BottomK<ShardedSampler::Item>& ShardedSampler::MergeShards() const {
  const auto epoch_of = [](const PrioritySampler& s) {
    return s.sketch().store().mutation_epoch();
  };
  if (merged_cache_.has_value() &&
      EpochsClean(shards_, merged_epochs_, epoch_of)) {
    return *merged_cache_;
  }
  // Some shard changed since the cached union: rebuild through the
  // threshold-pruned k-way engine (one global bound, block-prefiltered
  // shard columns, a single final selection -- see SampleStore::
  // MergeMany), then re-snapshot the epochs. MergeMany only reads the
  // shards, so the snapshot taken after the merge stays valid until
  // the next ingest.
  BottomK<Item> merged(k_);
  std::vector<const BottomK<Item>*> inputs;
  inputs.reserve(shards_.size());
  for (const PrioritySampler& shard : shards_) {
    inputs.push_back(&shard.sketch());
  }
  merged.MergeMany(inputs);
  SnapshotEpochs(shards_, merged_epochs_, epoch_of);
  merged_cache_.emplace(std::move(merged));
  return *merged_cache_;
}

std::vector<SampleEntry> ShardedSampler::Sample() const {
  return MakeWeightedSample(MergeShards().store());
}

double ShardedSampler::MergedThreshold() const {
  return MergeShards().Threshold();
}

ShardedSampler::MergedSample ShardedSampler::Merged() const {
  const BottomK<Item>& merged = MergeShards();
  return {MakeWeightedSample(merged.store()), merged.Threshold()};
}

size_t ShardedSampler::TotalRetained() const {
  size_t total = 0;
  for (const PrioritySampler& shard : shards_) total += shard.size();
  return total;
}

}  // namespace ats
