#include "ats/samplers/sharded_time_axis.h"

#include <algorithm>

#include "ats/core/epoch_cache.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/util/check.h"

namespace ats {

// --- ShardedWindowSampler ----------------------------------------------

ShardedWindowSampler::ShardedWindowSampler(size_t num_shards, size_t k,
                                           double window, uint64_t seed)
    : k_(k),
      window_(window),
      route_salt_(internal::kTimeAxisRouteSalt),
      merged_epochs_(num_shards, 0) {
  ATS_CHECK(num_shards >= 1);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(k, window,
                         seed + internal::kShardSeedStride * s);
  }
}

size_t ShardedWindowSampler::ShardOf(uint64_t id) const {
  return static_cast<size_t>(HashKey(id, route_salt_) % shards_.size());
}

bool ShardedWindowSampler::Arrive(double time, uint64_t id) {
  return shards_[ShardOf(id)].Arrive(time, id);
}

SlidingWindowSampler& ShardedWindowSampler::MergedWindow() {
  const auto epoch_of = [](const SlidingWindowSampler& s) {
    return s.mutation_epoch();
  };
  if (merged_cache_.has_value() &&
      EpochsClean(shards_, merged_epochs_, epoch_of)) {
    return *merged_cache_;
  }
  // Some shard changed since the cached merge: rebuild through the
  // windowed MergeMany (the pairwise Merge chain in shard order: each
  // step min-composes the improved thresholds and re-caps the time-
  // sorted union at k), then re-snapshot the epochs.
  // The merge reads the shards without advancing their expiry, so the
  // snapshot taken afterwards stays valid until the next ingest.
  SlidingWindowSampler merged(k_, window_, /*seed=*/1);
  std::vector<const SlidingWindowSampler*> inputs;
  inputs.reserve(shards_.size());
  for (const SlidingWindowSampler& shard : shards_) {
    inputs.push_back(&shard);
  }
  merged.MergeMany(inputs);
  SnapshotEpochs(shards_, merged_epochs_, epoch_of);
  merged_cache_.emplace(std::move(merged));
  return *merged_cache_;
}

double ShardedWindowSampler::ImprovedThreshold(double now) {
  return MergedWindow().ImprovedThreshold(now);
}

double ShardedWindowSampler::GlThreshold(double now) {
  return MergedWindow().GlThreshold(now);
}

std::vector<SampleEntry> ShardedWindowSampler::ImprovedSample(double now) {
  return MergedWindow().ImprovedSample(now);
}

std::vector<SampleEntry> ShardedWindowSampler::GlSample(double now) {
  return MergedWindow().GlSample(now);
}

size_t ShardedWindowSampler::MergedStoredCount(double now) {
  return MergedWindow().StoredCount(now);
}

// --- ShardedDecaySampler -----------------------------------------------

ShardedDecaySampler::ShardedDecaySampler(size_t num_shards, size_t k,
                                         uint64_t seed)
    : k_(k),
      route_salt_(internal::kTimeAxisRouteSalt),
      batch_scratch_(num_shards),
      merged_epochs_(num_shards, 0) {
  ATS_CHECK(num_shards >= 1);
  ATS_CHECK(k >= 1);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(k, seed + internal::kShardSeedStride * s);
  }
}

size_t ShardedDecaySampler::ShardOf(uint64_t key) const {
  return static_cast<size_t>(HashKey(key, route_salt_) % shards_.size());
}

bool ShardedDecaySampler::Add(uint64_t key, double weight, double value,
                              double time) {
  return shards_[ShardOf(key)].Add(key, weight, value, time);
}

size_t ShardedDecaySampler::AddBatch(
    std::span<const TimeDecaySampler::TimedItem> items) {
  if (shards_.size() == 1) return shards_[0].AddBatch(items);
  for (auto& scratch : batch_scratch_) {
    scratch.clear();
    scratch.reserve(items.size() / shards_.size() + 16);
  }
  for (const TimeDecaySampler::TimedItem& item : items) {
    batch_scratch_[ShardOf(item.key)].push_back(item);
  }
  size_t accepted = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    accepted += shards_[s].AddBatch(batch_scratch_[s]);
  }
  return accepted;
}

const TimeDecaySampler& ShardedDecaySampler::MergedDecay() const {
  const auto epoch_of = [](const TimeDecaySampler& s) {
    return s.mutation_epoch();
  };
  if (merged_cache_.has_value() &&
      EpochsClean(shards_, merged_epochs_, epoch_of)) {
    return *merged_cache_;
  }
  TimeDecaySampler merged(k_, /*seed=*/1);
  std::vector<const TimeDecaySampler*> inputs;
  inputs.reserve(shards_.size());
  for (const TimeDecaySampler& shard : shards_) inputs.push_back(&shard);
  merged.MergeMany(inputs);
  SnapshotEpochs(shards_, merged_epochs_, epoch_of);
  merged_cache_.emplace(std::move(merged));
  return *merged_cache_;
}

double ShardedDecaySampler::LogKeyThreshold() const {
  return MergedDecay().LogKeyThreshold();
}

std::vector<TimeDecaySampler::DecayedEntry> ShardedDecaySampler::SampleAt(
    double now) const {
  return MergedDecay().SampleAt(now);
}

double ShardedDecaySampler::EstimateDecayedTotal(double now) const {
  return MergedDecay().EstimateDecayedTotal(now);
}

size_t ShardedDecaySampler::TotalRetained() const {
  size_t total = 0;
  for (const TimeDecaySampler& shard : shards_) total += shard.size();
  return total;
}

}  // namespace ats
