// Helpers for the mutation-epoch dirty-cache pattern shared by the
// sharded front-ends (ShardedSampler, ShardedWindowSampler,
// ShardedDecaySampler): a cached merged result stays valid while every
// shard's mutation epoch still matches the snapshot taken when the
// cache was built. Keeping the check and the snapshot in one place
// means a future change to the invalidation rule lands in every
// front-end at once.
//
// The single-threaded front-ends read shard epochs directly
// (EpochsClean / SnapshotEpochs below). The concurrent front-end
// (concurrent_sampler.h) cannot: a reader polling a shard's
// mutation_epoch() while a writer ingests is a data race. It instead
// uses the atomic epoch protocol at the bottom of this header --
// PublishedEpochs, an array of per-shard atomics that writers update
// with release stores after every locked mutation and readers poll with
// acquire loads to validate a cached snapshot without touching any
// shard lock. It is the single epoch axis: every write lands in a shard
// under its lock, so a snapshot is clean exactly when every per-shard
// epoch still matches the vector recorded at build time.
#ifndef ATS_CORE_EPOCH_CACHE_H_
#define ATS_CORE_EPOCH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ats {

// True iff every shard's epoch equals its snapshot entry. `epoch_of`
// maps a shard to its current mutation epoch.
template <typename Shards, typename EpochOf>
bool EpochsClean(const Shards& shards,
                 const std::vector<uint64_t>& snapshot, EpochOf&& epoch_of) {
  size_t i = 0;
  for (const auto& shard : shards) {
    if (epoch_of(shard) != snapshot[i++]) return false;
  }
  return true;
}

// Re-snapshots every shard's epoch; call right after rebuilding the
// cached merge (the merge reads but never observably mutates the
// shards, so a snapshot taken afterwards stays valid until the next
// ingest).
template <typename Shards, typename EpochOf>
void SnapshotEpochs(const Shards& shards, std::vector<uint64_t>& snapshot,
                    EpochOf&& epoch_of) {
  snapshot.clear();
  for (const auto& shard : shards) snapshot.push_back(epoch_of(shard));
}

// --- Atomic epoch protocol (the concurrent front-end) -----------------

/// One shard's published epoch, padded to its own cache line so adjacent
/// shards' publications never false-share: each writer thread touches
/// only its shard's line on the ingest hot path.
struct alignas(64) PublishedEpochSlot {
  std::atomic<uint64_t> value{0};
};

/// Per-shard epochs published across threads. Writers call Publish with
/// the shard's mutation epoch (read under the shard's lock) after every
/// mutating batch -- a release store, so a reader that observes the new
/// epoch also observes the writes it covers. Readers validate a cached
/// snapshot with Matches (acquire loads): if every published epoch still
/// equals the snapshot's epoch vector, no shard has observably changed
/// since the snapshot was built and the cache may be returned without
/// taking any lock -- this is what keeps clean-cache reads from ever
/// blocking writers.
class PublishedEpochs {
 public:
  explicit PublishedEpochs(size_t num_shards)
      : slots_(std::make_unique<PublishedEpochSlot[]>(num_shards)),
        size_(num_shards) {}

  /// Release-stores shard `i`'s epoch. Call after the mutation, while
  /// still holding (or having just released) the shard's lock.
  void Publish(size_t i, uint64_t epoch) {
    slots_[i].value.store(epoch, std::memory_order_release);
  }

  /// Acquire-loads shard `i`'s last published epoch.
  uint64_t Load(size_t i) const {
    return slots_[i].value.load(std::memory_order_acquire);
  }

  /// True iff every published epoch equals its snapshot entry (the
  /// lock-free cache validation; false on size mismatch).
  bool Matches(const std::vector<uint64_t>& snapshot) const {
    if (snapshot.size() != size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (Load(i) != snapshot[i]) return false;
    }
    return true;
  }

  size_t size() const { return size_; }

 private:
  std::unique_ptr<PublishedEpochSlot[]> slots_;
  size_t size_;
};

}  // namespace ats

#endif  // ATS_CORE_EPOCH_CACHE_H_
