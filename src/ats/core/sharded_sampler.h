// Sharded ingestion front-end for priority sampling (Section 2.5).
//
// Heavy streams are ingested by hash-partitioning keys across S
// independent per-shard bottom-k samplers; each shard only ever touches
// its own SampleStore, so shards can be fed from S threads (or S nodes)
// with no synchronization. Because the shards use coordinated priorities
// (priority = hash(key)-derived, Section 2.5) and the key partition makes
// the per-shard streams disjoint, merging the per-shard samples with the
// bottom-k union rule reproduces EXACTLY the sample and threshold a
// single k-capacity store would have produced over the whole stream:
// every one of the global bottom-k priorities is necessarily among its
// own shard's bottom-k, and the merge threshold (min of shard thresholds
// and merge evictions) recovers the global (k+1)-th smallest priority.
// Substitutability (Theorem 6) then makes the merged threshold usable by
// the plain HT estimators unchanged.
//
// In independent-priority mode the merged sample is a valid bottom-k
// sample of the stream (unbiased HT estimates), just not bit-identical to
// a particular single-store run.
//
// Queries aggregate the shards through the threshold-pruned k-way merge
// engine (SampleStore::MergeMany): one pass takes the global bound (min
// of shard acceptance bounds), each shard's raw candidate column is
// block-filtered against it, and a single selection finishes the union
// -- instead of S sequential pairwise merge+compaction rounds. The
// merged result is cached against the shards' mutation epochs, so
// repeated queries between ingest batches re-canonicalize and re-merge
// nothing.
//
// Thread-safety: per-shard ingest (AddShardBatch with distinct shard
// indices) is lock-free safe. Query APIs (Sample, Merged,
// MergedThreshold, TotalRetained, shard) touch EVERY shard: they may
// canonicalize any shard's compaction store (an explicit
// SampleStore::Canonicalize from query context) and refresh the shared
// merge cache, i.e. they mutate representation state under const -- run
// queries from one thread, not concurrently with each other or with
// ingest into ANY shard. Quiesce all ingest threads before querying;
// once a query has run and no further ingest happens, repeated queries
// are pure cache reads.
#ifndef ATS_CORE_SHARDED_SAMPLER_H_
#define ATS_CORE_SHARDED_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"

namespace ats {

class ShardedSampler {
 public:
  using Item = PrioritySampler::Item;

  /// num_shards: number of independent per-shard samplers. k: sample
  /// capacity -- of every shard AND of the merged sample (per-shard k
  /// guarantees the merged bottom-k is exact; see header comment).
  /// `coordinated` selects hash-derived priorities (default; required for
  /// exact equivalence with a coordinated single store); `seed` drives
  /// per-shard RNGs in independent mode.
  ShardedSampler(size_t num_shards, size_t k, bool coordinated = true,
                 uint64_t seed = 1);

  /// Routes one item to its shard.
  void Add(uint64_t key, double weight);

  /// Batched ingest: partitions the batch into per-shard runs, then feeds
  /// each shard through the fused batch pipeline (priorities for the whole
  /// run are computed into a dense column, block-filtered against the
  /// shard's acceptance bound, and accepted candidates appended to its
  /// compaction buffer in amortized O(1)). Returns the number of accepted
  /// items.
  size_t AddBatch(std::span<const Item> items);

  /// Feeds a pre-partitioned run straight into one shard, through the same
  /// fused batch pipeline -- no per-key hash->Offer round trips. Every
  /// item must route to `shard` (checked in debug builds). Because each
  /// shard owns an independent store, concurrent calls for DIFFERENT shard
  /// indices are safe -- this is the entry point for S ingest threads.
  size_t AddShardBatch(size_t shard, std::span<const Item> items);

  /// Shard index for a key (a salted hash independent of the priority
  /// hash, so shard routing does not bias per-shard priorities).
  size_t ShardOf(uint64_t key) const;

  /// Merged bottom-k sample of the whole stream with per-item inclusion
  /// probabilities at the merged threshold; feeds the usual estimators.
  std::vector<SampleEntry> Sample() const;

  /// The merged adaptive threshold (the global (k+1)-th smallest priority
  /// in coordinated mode).
  double MergedThreshold() const;

  /// Sample and threshold from a single shard-union pass; use this when
  /// both are needed per query (Sample() + MergedThreshold() would merge
  /// twice).
  struct MergedSample {
    std::vector<SampleEntry> entries;
    double threshold;
  };
  MergedSample Merged() const;

  size_t num_shards() const { return shards_.size(); }
  size_t k() const { return k_; }

  /// Total items currently retained across all shards (>= merged sample
  /// size; the merge re-caps at k).
  size_t TotalRetained() const;

  /// Live heap bytes across the shards plus the engaged merge cache
  /// (util/memory.h convention); excludes the reusable batch scratch.
  /// O(S), non-canonicalizing -- never rebuilds the cache.
  size_t MemoryFootprint() const {
    size_t total = VectorFootprint(shards_);
    for (const PrioritySampler& s : shards_) total += s.MemoryFootprint();
    if (merged_cache_.has_value()) {
      total += merged_cache_->MemoryFootprint();
    }
    return total + VectorFootprint(merged_epochs_);
  }

  const PrioritySampler& shard(size_t i) const { return shards_[i]; }

 private:
  /// Returns the k-capacity union of all shard stores, rebuilt through
  /// the k-way merge engine only when some shard's mutation epoch moved
  /// since the cached union was taken (the dirty-epoch cache).
  const BottomK<Item>& MergeShards() const;

  size_t k_;
  uint64_t route_salt_;
  std::vector<PrioritySampler> shards_;
  /// Per-shard scratch buffers reused across AddBatch calls.
  std::vector<std::vector<Item>> batch_scratch_;
  /// Query-side merge cache: the shard union plus the per-shard
  /// SampleStore::mutation_epoch() snapshot it was built at. Mutable with
  /// the same contract as the stores' canonicalization: refreshed under
  /// const from single-threaded query context, never from ingest.
  mutable std::optional<BottomK<Item>> merged_cache_;
  mutable std::vector<uint64_t> merged_epochs_;
};

}  // namespace ats

#endif  // ATS_CORE_SHARDED_SAMPLER_H_
