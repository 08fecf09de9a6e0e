#include "ats/core/concurrent_sampler.h"

namespace ats {
namespace internal {

// Every MergeShards mirrors its sequential front-end's merge exactly
// (same accumulator construction, same MergeMany -- the threshold-pruned
// k-way engine, or for windows the pairwise Merge chain -- and the same
// seed for the merged time-axis samplers), then canonicalizes the
// result so every const accessor on the published snapshot is a pure
// read -- that is what lets any number of reader threads share one
// snapshot.

PriorityScenario::Merged PriorityScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  BottomK<Item> merged(config.k);
  std::vector<const BottomK<Item>*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(&shard->sketch());
  merged.MergeMany(inputs);
  merged.store().Canonicalize();
  return merged;
}

KmvScenario::Merged KmvScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  KmvSketch merged(config.k, /*initial_threshold=*/1.0, config.hash_salt);
  std::vector<const KmvSketch*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
  merged.store().Canonicalize();
  return merged;
}

WindowScenario::Merged WindowScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  // Seed 1, matching ShardedWindowSampler::MergedWindow: the merged
  // sampler never draws priorities, but identical construction keeps
  // the concurrent and sequential front-ends bit-equivalent.
  SlidingWindowSampler merged(config.k, config.window, /*seed=*/1);
  std::vector<const SlidingWindowSampler*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
  return merged;
}

DecayScenario::Merged DecayScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  TimeDecaySampler merged(config.k, /*seed=*/1);
  std::vector<const TimeDecaySampler*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
  // Canonicalize through the threshold accessor: TimeDecaySampler does
  // not expose its store mutably, and the threshold read compacts it.
  merged.LogKeyThreshold();
  return merged;
}

}  // namespace internal

template class ConcurrentSampler<internal::PriorityScenario>;
template class ConcurrentSampler<internal::KmvScenario>;
template class ConcurrentSampler<internal::WindowScenario>;
template class ConcurrentSampler<internal::DecayScenario>;

// --- ConcurrentPrioritySampler -----------------------------------------

ConcurrentPrioritySampler::ConcurrentPrioritySampler(size_t num_shards,
                                                     size_t k,
                                                     bool coordinated,
                                                     uint64_t seed)
    : ConcurrentSampler(num_shards, {k, coordinated, seed}) {
  ATS_CHECK(k >= 1);
}

ShardedSampler::MergedSample ConcurrentPrioritySampler::Merged() const {
  const auto snapshot = Snapshot();
  return {MakeWeightedSample(snapshot->store()), snapshot->Threshold()};
}

// --- ConcurrentKmvSketch -----------------------------------------------

ConcurrentKmvSketch::ConcurrentKmvSketch(size_t num_shards, size_t k,
                                         uint64_t hash_salt)
    : ConcurrentSampler(num_shards, {k, hash_salt}) {
  ATS_CHECK(k >= 1);
}

// --- ConcurrentWindowSampler -------------------------------------------

ConcurrentWindowSampler::ConcurrentWindowSampler(size_t num_shards,
                                                 size_t k, double window,
                                                 uint64_t seed)
    : ConcurrentSampler(num_shards, {k, window, seed}) {
  ATS_CHECK(k >= 1);
  ATS_CHECK(window > 0.0);
}

double ConcurrentWindowSampler::ImprovedThreshold(double now) const {
  SlidingWindowSampler merged = *Snapshot();
  return merged.ImprovedThreshold(now);
}

double ConcurrentWindowSampler::GlThreshold(double now) const {
  SlidingWindowSampler merged = *Snapshot();
  return merged.GlThreshold(now);
}

std::vector<SampleEntry> ConcurrentWindowSampler::ImprovedSample(
    double now) const {
  SlidingWindowSampler merged = *Snapshot();
  return merged.ImprovedSample(now);
}

std::vector<SampleEntry> ConcurrentWindowSampler::GlSample(
    double now) const {
  SlidingWindowSampler merged = *Snapshot();
  return merged.GlSample(now);
}

size_t ConcurrentWindowSampler::MergedStoredCount(double now) const {
  SlidingWindowSampler merged = *Snapshot();
  return merged.StoredCount(now);
}

// --- ConcurrentDecaySampler --------------------------------------------

ConcurrentDecaySampler::ConcurrentDecaySampler(size_t num_shards, size_t k,
                                               uint64_t seed)
    : ConcurrentSampler(num_shards, {k, seed}) {
  ATS_CHECK(k >= 1);
}

}  // namespace ats
