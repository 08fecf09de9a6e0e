#include "ats/core/concurrent_sampler.h"

namespace ats {
namespace internal {

// Every scenario's StartMerge / GatherShard / FinishMerge fold yields
// exactly the k-way MergeMany of its shards into a fresh accumulator
// (seeded 1 where the type takes a seed) and canonicalizes the result,
// so every const accessor on the published snapshot is a pure read --
// that is what lets any number of reader threads share one snapshot.
//
// The bottom-k scenarios fold through the raw-column gather
// (SampleStore::Gather): under each stripe lock, one block-prefiltered
// scan of at most 2k buffered shard entries appends the survivors, and
// the single purge runs in FinishMerge, lock-free. No shard is copied or
// canonicalized. The accumulator starts lowered to the previous
// snapshot's canonical threshold: the shard union holds every offered
// item below it (the writer-side prefilter and the shards' adoption of
// the published bound remove only items at or above a published
// threshold, and published thresholds never rise), and a bottom-k
// threshold never rises as its stream grows, so that threshold is >=
// the new merged threshold -- a valid pre-filter bound by threshold
// substitutability (Theorem 6; SampleStore::MergeMany has the
// equivalence argument). Between two rebuilds only the candidates below
// it survive the scan.

PriorityScenario::Accumulator PriorityScenario::StartMerge(
    const Config& config, const Merged* previous) {
  BottomK<Item> acc(config.k);
  if (previous != nullptr) acc.LowerThreshold(previous->Threshold());
  return acc;
}

void PriorityScenario::GatherShard(Accumulator& acc, const Shard& shard) {
  acc.store().Gather(shard.sketch().store());
}

PriorityScenario::Merged PriorityScenario::FinishMerge(
    const Config& /*config*/, Accumulator&& acc) {
  acc.PurgeAboveThreshold();  // compacts: the result is canonical
  return std::move(acc);
}

KmvScenario::Accumulator KmvScenario::StartMerge(const Config& config,
                                                 const Merged* previous) {
  KmvSketch acc(config.k, /*initial_threshold=*/1.0, config.hash_salt);
  if (previous != nullptr) acc.LowerThreshold(previous->Threshold());
  return acc;
}

void KmvScenario::GatherShard(Accumulator& acc, const Shard& shard) {
  acc.Gather(shard);  // duplicate suppression as in MergeMany
}

KmvScenario::Merged KmvScenario::FinishMerge(const Config& /*config*/,
                                             Accumulator&& acc) {
  acc.PurgeAboveThreshold();  // compacts: the result is canonical
  return std::move(acc);
}

WindowScenario::Accumulator WindowScenario::StartMerge(
    const Config& /*config*/, const Merged* /*previous*/) {
  return {};
}

void WindowScenario::GatherShard(Accumulator& acc, const Shard& shard) {
  acc.push_back(shard);  // O(k) copy under the stripe lock
}

WindowScenario::Merged WindowScenario::FinishMerge(const Config& config,
                                                   Accumulator&& acc) {
  // Seed 1, as for decay: the merged sampler never draws priorities,
  // but a fixed construction keeps snapshots bit-identical to a
  // per-shard reference merge.
  SlidingWindowSampler merged(config.k, config.window, /*seed=*/1);
  std::vector<const SlidingWindowSampler*> inputs;
  inputs.reserve(acc.size());
  for (const Shard& copy : acc) inputs.push_back(&copy);
  merged.MergeMany(inputs);
  return merged;
}

DecayScenario::Accumulator DecayScenario::StartMerge(
    const Config& config, const Merged* previous) {
  TimeDecaySampler acc(config.k, /*seed=*/1);
  if (previous != nullptr) {
    acc.LowerLogKeyThreshold(previous->LogKeyThreshold());
  }
  return acc;
}

void DecayScenario::GatherShard(Accumulator& acc, const Shard& shard) {
  acc.Gather(shard);
}

DecayScenario::Merged DecayScenario::FinishMerge(const Config& /*config*/,
                                                 Accumulator&& acc) {
  acc.PurgeAboveThreshold();  // compacts: the result is canonical
  return std::move(acc);
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

ConcurrentPrioritySampler::MergedSample ConcurrentPrioritySampler::Merged()
    const {
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
