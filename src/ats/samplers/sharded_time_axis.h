// Sharded ingestion front-ends for the time-axis samplers: the
// ShardedSampler pattern (hash-partitioned independent shards, query-side
// k-way aggregation behind a mutation-epoch cache) applied to sliding
// windows and time-decayed samples.
//
// Both front-ends route each item to one of S shards by a salted key
// hash, so the per-shard streams are disjoint key partitions sharing the
// stream's time axis. Each shard is an ordinary full-capacity sampler on
// its own SampleStore; ingest into distinct shards touches no shared
// state. Queries aggregate the shards through the samplers' MergeMany
// into a cached merged sampler that is rebuilt only when some shard's
// mutation epoch moved since the cache was taken; between ingest
// batches, repeated queries are cache reads. For decayed samples
// MergeMany is the threshold-pruned k-way engine; for windows it is the
// pairwise Merge chain in shard order (the windowed rule is clock-
// sensitive, so there is no global bound to hoist; see
// sliding_window.h).
//
// Validity: the merged windowed sample is the min-composed union of valid
// per-shard window samples (Theorem 9 + Theorem 6; see
// sliding_window.h), and the merged decayed sample is the bottom-k union
// over absolute decay-invariant keys. Per-shard priorities are drawn
// from independent per-shard RNGs, so the merged samples are valid (HT
// estimates stay unbiased) but not bit-identical to a particular
// single-sampler run -- the same contract as ShardedSampler's
// independent-priority mode.
//
// Thread-safety: ingest routed through Arrive/Add/AddBatch mutates one
// shard plus (lazily) nothing else, but the ROUTER is not synchronized --
// feed it from one thread, or partition upstream and drive the shard
// samplers directly. Queries touch every shard and refresh the shared
// cache: run them from one thread, never concurrently with ingest.
// Query times must be non-decreasing (windows expire monotonically).
#ifndef ATS_SAMPLERS_SHARDED_TIME_AXIS_H_
#define ATS_SAMPLERS_SHARDED_TIME_AXIS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ats/core/threshold.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/util/memory.h"

namespace ats {

class ShardedWindowSampler {
 public:
  /// num_shards independent SlidingWindowSampler shards, each with full
  /// capacity k over the same window length (per-shard k keeps the merged
  /// bottom-k selection exact at the merge bound).
  ShardedWindowSampler(size_t num_shards, size_t k, double window,
                       uint64_t seed = 1);

  /// Shard index for an item id (salted hash, independent of the shards'
  /// priority streams).
  size_t ShardOf(uint64_t id) const;

  /// Routes one arrival to its shard (times non-decreasing stream-wide).
  bool Arrive(double time, uint64_t id);

  // --- Queries (merged across shards; cached between ingest batches) ---

  /// Improved final threshold of the merged windowed sample at `now`.
  double ImprovedThreshold(double now);
  /// G&L final threshold of the merged windowed sample at `now`.
  double GlThreshold(double now);
  std::vector<SampleEntry> ImprovedSample(double now);
  std::vector<SampleEntry> GlSample(double now);
  /// Stored items (current + expired) in the merged sampler at `now`.
  size_t MergedStoredCount(double now);

  size_t num_shards() const { return shards_.size(); }
  size_t k() const { return k_; }
  double window() const { return window_; }
  const SlidingWindowSampler& shard(size_t i) const { return shards_[i]; }

  /// Live heap bytes across the shards plus the engaged merge cache
  /// (util/memory.h convention). O(S), non-canonicalizing.
  size_t MemoryFootprint() const {
    size_t total = VectorFootprint(shards_);
    for (const auto& s : shards_) total += s.MemoryFootprint();
    if (merged_cache_.has_value()) {
      total += merged_cache_->MemoryFootprint();
    }
    return total + VectorFootprint(merged_epochs_);
  }

 private:
  /// The merged sampler, rebuilt through SlidingWindowSampler::MergeMany
  /// (the pairwise Merge chain over the shards) only when some shard's
  /// mutation epoch moved since the cached merge (the dirty-epoch cache). Mutable-by-convention: refreshed from
  /// single-threaded query context only.
  SlidingWindowSampler& MergedWindow();

  size_t k_;
  double window_;
  uint64_t route_salt_;
  std::vector<SlidingWindowSampler> shards_;
  std::optional<SlidingWindowSampler> merged_cache_;
  std::vector<uint64_t> merged_epochs_;
};

class ShardedDecaySampler {
 public:
  /// num_shards independent TimeDecaySampler shards, each with full
  /// capacity k.
  ShardedDecaySampler(size_t num_shards, size_t k, uint64_t seed = 1);

  /// Shard index for a key (salted hash).
  size_t ShardOf(uint64_t key) const;

  /// Routes one item to its shard.
  bool Add(uint64_t key, double weight, double value, double time);

  /// Batched ingest: partitions the batch into per-shard runs and feeds
  /// each shard through its block-prefiltered AddBatch. Returns the
  /// number of accepted items.
  size_t AddBatch(std::span<const TimeDecaySampler::TimedItem> items);

  // --- Queries (merged across shards; cached between ingest batches) ---

  /// Merged adaptive threshold on the log-key scale.
  double LogKeyThreshold() const;
  /// Merged decayed sample evaluated at `now`.
  std::vector<TimeDecaySampler::DecayedEntry> SampleAt(double now) const;
  /// HT estimate of the decayed total at `now` from the merged sample.
  double EstimateDecayedTotal(double now) const;

  size_t num_shards() const { return shards_.size(); }
  size_t k() const { return k_; }
  /// Total items retained across shards (>= merged sample size).
  size_t TotalRetained() const;
  const TimeDecaySampler& shard(size_t i) const { return shards_[i]; }

  /// Live heap bytes across the shards plus the engaged merge cache
  /// (util/memory.h convention); excludes the reusable batch scratch.
  size_t MemoryFootprint() const {
    size_t total = VectorFootprint(shards_);
    for (const auto& s : shards_) total += s.MemoryFootprint();
    if (merged_cache_.has_value()) {
      total += merged_cache_->MemoryFootprint();
    }
    return total + VectorFootprint(merged_epochs_);
  }

 private:
  /// Dirty-epoch merge cache, same contract as ShardedSampler's: rebuilt
  /// under const from single-threaded query context only.
  const TimeDecaySampler& MergedDecay() const;

  size_t k_;
  uint64_t route_salt_;
  std::vector<TimeDecaySampler> shards_;
  // Per-shard scratch buffers reused across AddBatch calls.
  std::vector<std::vector<TimeDecaySampler::TimedItem>> batch_scratch_;
  mutable std::optional<TimeDecaySampler> merged_cache_;
  mutable std::vector<uint64_t> merged_epochs_;
};

}  // namespace ats

#endif  // ATS_SAMPLERS_SHARDED_TIME_AXIS_H_
