// The sharded front-end: internally thread-safe streaming samplers with
// one locked write path and epoch-snapshot queries.
//
// ConcurrentSampler<Scenario> is the library's one sharded type. It owns
// S shards -- each an ordinary full-capacity sampler over a disjoint hash
// partition of the key space -- and offers one write path plus one read
// protocol. Externally synchronized single-threaded use is its
// uncontended case: every stripe lock it takes is free.
//
// Exactness (Section 2.5). With coordinated priorities (hash-derived, a
// pure function of the item) the key partition makes the per-shard
// streams disjoint, and every one of the global bottom-k priorities is
// necessarily among its own shard's bottom-k. Merging the per-shard
// samples with the bottom-k union rule therefore reproduces EXACTLY the
// sample and threshold a single k-capacity store would have produced
// over the whole stream: the merge threshold (min of shard thresholds
// and merge evictions) recovers the global (k+1)-th smallest priority.
// Substitutability (Theorem 6) then makes the merged threshold usable by
// the plain HT estimators unchanged. Where priorities come from
// per-shard RNGs (independent-mode bottom-k, window, decay) the merged
// sample is a valid sample of the stream -- HT estimates stay unbiased
// -- just not bit-identical to a particular single-store run.
//
// Write path (Add / AddBatch / AddShardBatch). An ingest call
// partitions its batch into per-shard runs, takes each touched shard's
// stripe lock, feeds the run through the shard's batched ingest path
// (the fused hash->priority->pre-filter pipeline of sample_store.h),
// and release-publishes the shard's mutation epoch into a per-shard
// atomic slot (PublishedEpochs). Distinct shards never contend; two
// writers hitting the same shard serialize only for that run. Shard
// state is always current, so TotalRetained and footprint reads need no
// reconciliation, and the per-shard epochs are the only dirtiness axis.
//
// Writer-side prefilter (coordinated bottom-k only). Every rebuild
// publishes its snapshot's canonical threshold in one atomic (the
// prefilter bound; monotone non-increasing, since each rebuild starts
// at the previous threshold). Once a bound exists, AddBatch (and Add,
// its one-item case) computes each item's exact shard priority first
// and routes only the items strictly below the bound -- a batch with no
// survivor takes no lock at all -- and every shard ingest adopts the
// bound under the stripe lock (LowerThreshold) before offering, which
// drops the shard's buffered entries at or above it. This is sound
// because a bottom-k threshold never rises as its stream grows: the
// published threshold bounds every later one from above, so the
// filtered items and the dropped entries could never enter a later
// snapshot (threshold substitutability, Theorem 6). After adoption the
// filter's `<` is the shard's own Offer test, so a priority tied AT the
// bound behaves the same whether the writer or the shard rejects it.
// Scenarios whose priorities come from per-shard RNGs (independent-mode
// bottom-k, decay) or whose thresholds are clock-sensitive (windows)
// never publish a bound and keep the unfiltered path; so, for now, does
// KMV (its hashed priorities would qualify; ROADMAP.md item 3 says why
// it waits).
//
// Reader protocol. A query loads the current snapshot pointer -- a raw
// std::atomic<const SnapshotState*>, genuinely lock-free (statically
// asserted; the previously documented std::atomic<std::shared_ptr>
// scheme was NOT: libstdc++ implements it with a per-object lock, and
// its atomic free functions with a shared mutex pool, so the old "lock-
// free shared_ptr load" claim was false) -- and validates it against
// the published shard epochs with acquire loads. On a clean cache the
// whole read is the pointer load, a refcount upgrade through
// enable_shared_from_this, and O(S) atomic compares: no lock is ever
// acquired (the lock-counting probe and the TSan suite pin this), so
// clean reads never block writers and writers never block reads. When
// an epoch moved, ONE reader rebuilds (a rebuild mutex serializes
// rebuilders only): it folds the shards into one accumulator, each
// while holding only that shard's lock, and finishes and publishes the
// new snapshot lock-free.
// For the bottom-k scenarios (priority, KMV, decay) the fold copies
// nothing: under each lock it runs one block-prefiltered scan of the
// shard's raw buffered columns (at most 2k entries, never canonicalized
// -- SampleStore::Gather), so a writer waits at most for that scan plus
// an O(k) accumulator compaction, never for a merge; the single purge
// runs after the last lock is released. The accumulator starts lowered
// to the PREVIOUS snapshot's threshold: the shard union still holds
// every offered item below that threshold (ingest adds items; the
// prefilter and adoption above remove only items at or above a
// published threshold, which is >= the previous one), and a bottom-k
// threshold never rises as its stream grows, so that threshold bounds
// the new one from above and is a valid pre-filter (threshold
// substitutability, Theorem 6) -- between two rebuilds only candidates
// below it survive the scan, and the snapshot stays bit-identical to
// the unpruned k-way merge. Windows are excluded from the prune: their
// thresholds are clock-sensitive and RECOVER as items expire, so the
// previous snapshot bounds nothing; their fold copies each shard under
// its lock (O(k)) and runs the pairwise Merge chain lock-free. Retired
// snapshots park in a graveyard that is reclaimed only when a seq_cst
// reader-in-flight counter reads zero, so a reader that already loaded
// the raw pointer can always finish its refcount upgrade safely.
//
// Snapshot semantics. Because the per-shard streams are disjoint key
// partitions, any snapshot is a valid merged sample of a stream the
// system actually ingested -- "epoch consistency". With coordinated
// (hash-derived) priorities the snapshot taken after writers quiesce is
// EXACTLY the single-store sample of the concatenated stream (the
// exactness argument above), which the concurrent-equivalence
// differential tests pin down. Scenarios that draw priorities from
// per-shard RNGs (independent-mode bottom-k, window, decay) are
// bit-identical to a per-shard reference -- the same shards built
// sequentially and folded with the shard type's MergeMany -- whenever
// every shard sees the same per-shard stream, e.g. one routing writer
// or writers owning disjoint shards.
//
// Scenarios. The template is instantiated for every sampling scenario
// in the library through small trait structs (routing key, shard
// construction, per-shard ingest, epoch accessor, snapshot fold).
// The concrete front-ends below -- ConcurrentPrioritySampler,
// ConcurrentKmvSketch, ConcurrentWindowSampler, ConcurrentDecaySampler
// -- are public subclasses of ConcurrentSampler<Scenario> that add only
// a positional constructor and, where a query cannot run on the shared
// snapshot, a helper: ingest takes the scenario's Item, and every other
// query is Snapshot()->X(). The shard layout is fixed by
// shard_routing.h (routing salt, per-shard seed seed + s *
// kShardSeedStride) and the merge folds into a seed-1 accumulator, so a
// test can rebuild the same shards sequentially as an oracle.
#ifndef ATS_CORE_CONCURRENT_SAMPLER_H_
#define ATS_CORE_CONCURRENT_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/epoch_cache.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/sketch/kmv.h"
#include "ats/util/check.h"

namespace ats {

namespace internal {

/// lock_guard that counts the acquisition. Every mutex acquisition in
/// the concurrent tier goes through this, so the clean-read probe test
/// can assert that a clean Snapshot() acquires NOTHING.
class CountedLockGuard {
 public:
  CountedLockGuard(std::mutex& mu, std::atomic<uint64_t>& counter)
      : lock_(mu) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace internal

/// Generic internally thread-safe sharded front-end. `Scenario` is a
/// trait struct binding the template to one sampling scheme:
///
///   struct Scenario {
///     using Shard = ...;    // per-shard sampler (copyable)
///     using Item = ...;     // one ingest record
///     using Merged = ...;   // merged snapshot type
///     struct Config {...};  // construction parameters (k, seed, ...)
///     static constexpr uint64_t kRouteSalt;           // shard routing
///     static Shard MakeShard(const Config&, size_t shard);
///     static uint64_t RouteKey(const Item&);
///     static size_t Ingest(Shard&, std::span<const Item>);
///     static uint64_t Epoch(const Shard&);  // O(1), non-canonicalizing
///     // Snapshot rebuild as a fold over the shards (RebuildSnapshot):
///     // StartMerge once (`previous` is the snapshot being replaced, or
///     // null), GatherShard for each shard in index order while that
///     // shard's stripe lock is held -- it must only READ the shard and
///     // stay O(k) -- then FinishMerge lock-free. The result must equal
///     // the shard union's k-way merge bit for bit.
///     using Accumulator = ...;
///     static Accumulator StartMerge(const Config&, const Merged* previous);
///     static void GatherShard(Accumulator&, const Shard&);
///     static Merged FinishMerge(const Config&, Accumulator&&);
///     static size_t Retained(const Shard&);  // optional
///     // Optional writer-side prefilter, both or neither. Prefilters says
///     // whether an item's shard priority is a pure function of the item
///     // (coordinated); VisitBelow visits, in order, each item whose
///     // shard priority is strictly below `bound`, computed exactly as
///     // Ingest computes it. The shard must offer LowerThreshold(double).
///     // RebuildSnapshot then publishes the merged Threshold() as the
///     // bound; routed ingest filters at it and shards adopt it, which is
///     // sound only because the shard union keeps every offered item
///     // below the last published threshold (see the file comment).
///     static bool Prefilters(const Config&);
///     template <typename Visit>
///     static void VisitBelow(const Config&, std::span<const Item>,
///                            double bound, Visit&& visit);
///   };
///
/// Thread-safety contract (every public method unless noted): safe to
/// call from any number of threads concurrently with any other method.
template <typename Scenario>
class ConcurrentSampler {
 public:
  using Config = typename Scenario::Config;
  using Item = typename Scenario::Item;
  using Shard = typename Scenario::Shard;
  using Merged = typename Scenario::Merged;

  /// Builds `num_shards` independent shard samplers from `config`.
  /// Construction itself is single-threaded (the object may be shared
  /// across threads once the constructor returns).
  ConcurrentSampler(size_t num_shards, const Config& config)
      : config_(config), published_(num_shards) {
    ATS_CHECK(num_shards >= 1);
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<ShardSlot>(
          Scenario::MakeShard(config, s)));
      published_.Publish(s, Scenario::Epoch(shards_.back()->sampler));
    }
  }

  /// Shard index for a routing key. Pure function of immutable state --
  /// safe from any thread, never blocks.
  size_t ShardOf(uint64_t key) const {
    return static_cast<size_t>(HashKey(key, Scenario::kRouteSalt) %
                               shards_.size());
  }

  /// AddBatch of one item: routes it to its shard and ingests it under
  /// that shard's lock, unless the published prefilter bound rejects it
  /// first (then no lock is taken). Returns the number of accepted items
  /// (0 or 1).
  size_t Add(const Item& item) {
    return AddBatch(std::span<const Item>(&item, 1));
  }

  /// Routed batched ingest: partitions the batch into per-shard runs
  /// (order-preserving), then ingests each run under its shard's lock.
  /// Once a prefilter bound is published, only the items whose priority
  /// is below it are routed at all (see the file comment). Writers
  /// touching disjoint shards proceed in parallel; two writers hitting
  /// the same shard serialize per run. The partition scratch is
  /// thread-local and reused across calls -- steady state performs no
  /// allocation. Returns the number of accepted items.
  size_t AddBatch(std::span<const Item> items) {
    const double bound = PrefilterBound();
    if (shards_.size() == 1 && bound == kInfiniteThreshold) {
      return AddShardBatch(0, items);
    }
    // Per-thread routing scratch, grown to the largest shard count this
    // thread has routed for and retained until thread exit.
    static thread_local RunPartition scratch;
    Partition(items, bound, scratch);
    size_t accepted = 0;
    for (const uint32_t s : scratch.touched) {
      accepted += AddShardBatch(s, scratch.runs[s]);
    }
    return accepted;
  }

  /// Feeds a pre-partitioned run straight into one shard under its lock
  /// (the per-thread shard-ownership entry point: S writer threads that
  /// partition upstream never contend at all). Every item must route to
  /// `shard` (checked in debug builds). The shard first adopts the
  /// published prefilter bound, if any. Returns the accepted count.
  size_t AddShardBatch(size_t shard, std::span<const Item> items) {
    ATS_CHECK(shard < shards_.size());
#ifndef NDEBUG
    for (const Item& item : items) {
      ATS_DCHECK(ShardOf(Scenario::RouteKey(item)) == shard);
    }
#endif
    ShardSlot& slot = *shards_[shard];
    internal::CountedLockGuard lock(slot.mu, lock_acquisitions_);
    if constexpr (kPrefilters) {
      const double bound = PrefilterBound();
      if (bound < kInfiniteThreshold) slot.sampler.LowerThreshold(bound);
    }
    const size_t accepted = Scenario::Ingest(slot.sampler, items);
    published_.Publish(shard, Scenario::Epoch(slot.sampler));
    return accepted;
  }

  // --- Compatibility spellings ---------------------------------------

  /// Compatibility spelling for the perfbench ladder, which still drives
  /// a writer-handle rung: a movable handle whose Add / AddBatch forward
  /// to the routed Add / AddBatch above. To be removed, with Drain() and
  /// the ShardedSampler / ShardedWindowSampler spellings at the end of
  /// this file, in the benchmark-scoped change that retires those rungs
  /// (ROADMAP.md, item 6). Must not outlive the sampler.
  class Writer {
   public:
    size_t Add(const Item& item) { return owner_->Add(item); }
    size_t AddBatch(std::span<const Item> items) {
      return owner_->AddBatch(items);
    }

   private:
    friend class ConcurrentSampler;
    explicit Writer(ConcurrentSampler* owner) : owner_(owner) {}
    ConcurrentSampler* owner_;
  };

  /// Compatibility spelling for the perfbench ladder (see Writer).
  Writer RegisterWriter() { return Writer(this); }

  /// Compatibility spelling for the perfbench ladder (see Writer): a
  /// no-op, since every write lands in its shard before returning.
  void Drain() {}

  /// The merged snapshot. Clean cache (no shard epoch moved since the
  /// cached snapshot was built): a lock-free raw atomic pointer load, a
  /// refcount upgrade, and O(S) atomic epoch compares -- NO lock
  /// acquisition (asserted by the lock-counting probe test), so clean
  /// reads never block writers. Dirty cache: one reader rebuilds (fold
  /// each shard into the accumulator under its lock -- for bottom-k
  /// scenarios one pre-filtered scan of at most 2k raw entries, pruned
  /// at the previous snapshot's threshold; for windows an O(k) copy --
  /// then finish and publish lock-free) while other readers wait on the
  /// rebuild mutex only. The returned snapshot is immutable and
  /// canonicalized: every const accessor on it is a pure read, so any
  /// number of threads may query one snapshot concurrently. It stays
  /// valid (and internally consistent) for as long as the pointer is
  /// held, no matter how much ingest happens after.
  std::shared_ptr<const Merged> Snapshot() const {
    auto state = AcquireSnapshot();
    if (state == nullptr || !published_.Matches(state->epochs)) {
      state = RebuildSnapshot();
    }
    // Aliasing pointer: shares ownership of the whole snapshot state,
    // points at the merged sampler inside it.
    return std::shared_ptr<const Merged>(state, &state->merged);
  }

  /// Total items currently retained across the shards (>= the merged
  /// sample size; the merge re-caps at k). Takes each shard's lock in
  /// turn, so the total is a sum of per-shard instants, not one global
  /// instant.
  size_t TotalRetained() const
    requires requires(const Shard& s) { Scenario::Retained(s); }
  {
    size_t total = 0;
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      total += Scenario::Retained(slot->sampler);
    }
    return total;
  }

  size_t num_shards() const { return shards_.size(); }
  const Config& config() const { return config_; }

  /// Live heap bytes across the shard slots plus the currently
  /// published snapshot (util/memory.h convention). Takes each shard's
  /// lock in turn -- like TotalRetained, the total is a sum of
  /// per-shard instants, not one global instant. Thread-safe like every
  /// other public method.
  size_t MemoryFootprint() const {
    size_t total = shards_.size() * sizeof(ShardSlot);
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      total += slot->sampler.MemoryFootprint();
    }
    const auto state = AcquireSnapshot();
    if (state != nullptr) {
      total += state->merged.MemoryFootprint() +
               state->epochs.size() * sizeof(uint64_t);
    }
    return total;
  }

  // --- Introspection probes (tests) ------------------------------------

  /// Total mutex acquisitions ever performed by this sampler, across
  /// every path (shard stripes, rebuild). The clean-read probe test
  /// asserts this does not move across clean Snapshot() calls.
  uint64_t LockAcquisitionsForTest() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

  /// Shard `i`'s sampler, read without its lock: valid only while no
  /// thread ingests.
  const Shard& ShardForTest(size_t i) const { return shards_[i]->sampler; }

  /// Runtime confirmation that the snapshot publication pointer is
  /// lock-free on this platform (the static_assert below pins the
  /// platforms we compile for; this is the belt to that suspender).
  bool SnapshotPublicationIsLockFree() const {
    return current_.is_lock_free() && readers_in_flight_.is_lock_free();
  }

 private:
  /// Whether the scenario offers the writer-side prefilter traits.
  static constexpr bool kPrefilters = requires(const Config& c) {
    Scenario::Prefilters(c);
  };

  /// The published prefilter bound: the last snapshot's canonical
  /// threshold, or infinite before the first snapshot and for scenarios
  /// that do not prefilter. Relaxed: every value ever stored is a valid
  /// bound, and a stale one is only looser.
  double PrefilterBound() const {
    if constexpr (kPrefilters) {
      return prefilter_bound_.load(std::memory_order_relaxed);
    } else {
      return kInfiniteThreshold;
    }
  }

  /// One shard behind its stripe lock. Heap-allocated (stable address,
  /// std::mutex is immovable) and cache-line aligned so two shards'
  /// lock words never share a line.
  struct alignas(64) ShardSlot {
    explicit ShardSlot(Shard s) : sampler(std::move(s)) {}
    mutable std::mutex mu;
    Shard sampler;
  };

  /// One batch split into per-shard runs, order-preserving within each
  /// run. Reused across batches by its thread: `touched` lists exactly
  /// the runs the previous split left non-empty, so clearing is
  /// O(touched), not O(S), and steady state performs no allocation.
  struct RunPartition {
    std::vector<std::vector<Item>> runs;
    std::vector<uint32_t> touched;
  };

  /// The routing split of AddBatch: routes every item, or with a finite
  /// `bound` only the items whose priority is below it.
  void Partition(std::span<const Item> items, double bound,
                 RunPartition& out) const {
    if (out.runs.size() < shards_.size()) out.runs.resize(shards_.size());
    for (const uint32_t s : out.touched) out.runs[s].clear();
    out.touched.clear();
    const auto route = [&](const Item& item) {
      const size_t s = ShardOf(Scenario::RouteKey(item));
      if (out.runs[s].empty()) {
        out.touched.push_back(static_cast<uint32_t>(s));
      }
      out.runs[s].push_back(item);
    };
    if constexpr (kPrefilters) {
      if (bound < kInfiniteThreshold) {
        Scenario::VisitBelow(config_, items, bound, route);
        return;
      }
    }
    for (const Item& item : items) route(item);
  }

  /// An immutable published snapshot: the merged sampler plus the
  /// shard-epoch vector it was built at (the validation token).
  /// enable_shared_from_this is what lets a reader upgrade the raw
  /// published pointer back to shared ownership without any
  /// atomic<shared_ptr> machinery.
  struct SnapshotState : std::enable_shared_from_this<SnapshotState> {
    SnapshotState(Merged m, std::vector<uint64_t> e)
        : merged(std::move(m)), epochs(std::move(e)) {}
    Merged merged;
    std::vector<uint64_t> epochs;
  };

  // The publication scheme exists to fix the non-lock-free
  // atomic<shared_ptr>; it had better be lock-free itself.
  static_assert(std::atomic<const SnapshotState*>::is_always_lock_free,
                "snapshot publication must be lock-free");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "epoch publication must be lock-free");

  /// Lock-free snapshot acquisition: announce the read (seq_cst), load
  /// the raw pointer (seq_cst), upgrade to shared ownership, retract.
  /// The seq_cst store-load pairing with PublishCurrent/TryReclaim is
  /// what makes the upgrade safe: a reclaimer that observed zero
  /// readers in flight is guaranteed (in the single total order) that
  /// any later reader's pointer load sees the CURRENT snapshot, never
  /// a graveyard entry -- so no reader ever upgrades a pointer whose
  /// control block could be mid-destruction.
  std::shared_ptr<const SnapshotState> AcquireSnapshot() const {
    readers_in_flight_.fetch_add(1, std::memory_order_seq_cst);
    const SnapshotState* raw = current_.load(std::memory_order_seq_cst);
    std::shared_ptr<const SnapshotState> state;
    if (raw != nullptr) state = raw->weak_from_this().lock();
    readers_in_flight_.fetch_sub(1, std::memory_order_release);
    return state;
  }

  std::shared_ptr<const SnapshotState> RebuildSnapshot() const {
    internal::CountedLockGuard rebuild(rebuild_mu_, lock_acquisitions_);
    // Double-check under the rebuild lock: another reader may have
    // published a fresh snapshot while this one waited.
    if (current_owner_ != nullptr &&
        published_.Matches(current_owner_->epochs)) {
      return current_owner_;
    }
    TryReclaimRetired();
    // The shard union holds every offered item below the snapshot being
    // replaced's threshold, so that threshold bounds the new one from
    // above; the scenario may start its accumulator there.
    typename Scenario::Accumulator acc = Scenario::StartMerge(
        config_, current_owner_ != nullptr ? &current_owner_->merged
                                           : nullptr);
    // Fold each shard into the accumulator under its own lock -- a
    // writer waits at most for one O(k) gather of its shard -- recording
    // the epoch the gather is consistent with.
    std::vector<uint64_t> epochs;
    epochs.reserve(shards_.size());
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      epochs.push_back(Scenario::Epoch(slot->sampler));
      Scenario::GatherShard(acc, slot->sampler);
    }
    // Finish lock-free, then publish.
    auto next = std::make_shared<SnapshotState>(
        Scenario::FinishMerge(config_, std::move(acc)), std::move(epochs));
    if constexpr (kPrefilters) {
      // Monotone: the accumulator started at the previous threshold.
      if (Scenario::Prefilters(config_)) {
        prefilter_bound_.store(next->merged.Threshold(),
                               std::memory_order_relaxed);
      }
    }
    PublishCurrent(next);
    return next;
  }

  /// Publishes `next` as the current snapshot. Requires rebuild_mu_.
  /// The displaced snapshot parks in the graveyard until no reader is
  /// mid-acquisition (see AcquireSnapshot for the seq_cst argument).
  void PublishCurrent(std::shared_ptr<const SnapshotState> next) const {
    if (current_owner_ != nullptr) {
      graveyard_.push_back(std::move(current_owner_));
    }
    current_owner_ = std::move(next);
    current_.store(current_owner_.get(), std::memory_order_seq_cst);
    TryReclaimRetired();
  }

  /// Drops graveyard references when no reader is between its
  /// in-flight announcement and its pointer upgrade. Requires
  /// rebuild_mu_ (graveyard entries are non-current by construction,
  /// so a reader observed NOT in flight can only ever load the current
  /// snapshot). The graveyard grows only while readers are
  /// continuously mid-acquisition across rebuilds, which bounds it by
  /// the rebuild rate, not the read rate.
  void TryReclaimRetired() const {
    if (!graveyard_.empty() &&
        readers_in_flight_.load(std::memory_order_seq_cst) == 0) {
      graveyard_.clear();
    }
  }

  Config config_;
  std::vector<std::unique_ptr<ShardSlot>> shards_;
  /// Per-shard atomic epochs (the lock-free cache validation); see
  /// epoch_cache.h.
  PublishedEpochs published_;
  /// Serializes snapshot rebuilds (readers only; writers never take it).
  mutable std::mutex rebuild_mu_;
  /// The lock-free publication pair: the raw current-snapshot pointer
  /// and the reader-in-flight counter (see AcquireSnapshot).
  mutable std::atomic<const SnapshotState*> current_{nullptr};
  mutable std::atomic<uint64_t> readers_in_flight_{0};
  /// Owning reference to the current snapshot and the retired ones a
  /// mid-acquisition reader might still upgrade. Guarded by rebuild_mu_.
  mutable std::shared_ptr<const SnapshotState> current_owner_;
  mutable std::vector<std::shared_ptr<const SnapshotState>> graveyard_;
  /// The writer-side prefilter bound (see PrefilterBound). Stored only
  /// by RebuildSnapshot, under rebuild_mu_.
  mutable std::atomic<double> prefilter_bound_{kInfiniteThreshold};
  static_assert(std::atomic<double>::is_always_lock_free,
                "the prefilter bound is read on every ingest call");
  /// Every mutex acquisition anywhere in this sampler (probe).
  mutable std::atomic<uint64_t> lock_acquisitions_{0};
};

namespace internal {

/// Scenario: weighted bottom-k priority sampling.
struct PriorityScenario {
  struct Config {
    size_t k;
    bool coordinated;
    uint64_t seed;
  };
  using Shard = PrioritySampler;
  using Item = PrioritySampler::Item;
  using Merged = BottomK<Item>;
  static constexpr uint64_t kRouteSalt = kShardRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return PrioritySampler(config.k, config.seed + kShardSeedStride * shard,
                           config.coordinated);
  }
  static uint64_t RouteKey(const Item& item) { return item.key; }
  static size_t Ingest(Shard& shard, std::span<const Item> items) {
    return shard.AddBatch(items);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.sketch().store().mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  using Accumulator = Merged;
  static Accumulator StartMerge(const Config& config, const Merged* previous);
  static void GatherShard(Accumulator& acc, const Shard& shard);
  static Merged FinishMerge(const Config& config, Accumulator&& acc);
  // Only hash-derived priorities are a function of the item; independent
  // mode draws from each shard's RNG, whose stream must not change.
  static bool Prefilters(const Config& config) { return config.coordinated; }
  // The shard's own coordinated priority, 64 at a time into a dense
  // column for the block pre-filter.
  template <typename Visit>
  static void VisitBelow(const Config& /*config*/, std::span<const Item> items,
                         double bound, Visit&& visit) {
    alignas(64) double priorities[kIngestBlock];
    size_t i = 0;
    for (; i + kIngestBlock <= items.size(); i += kIngestBlock) {
      for (size_t j = 0; j < kIngestBlock; ++j) {
        priorities[j] = Shard::CoordinatedPriority(items[i + j]);
      }
      VisitBlockCandidates(priorities, bound,
                           [&](size_t j) { visit(items[i + j]); });
    }
    for (; i < items.size(); ++i) {
      if (Shard::CoordinatedPriority(items[i]) < bound) visit(items[i]);
    }
  }
};

/// Scenario: KMV/Theta distinct counting. Every shard hashes with the
/// SAME salt (coordinated by construction) and a key always routes to
/// the same shard, so duplicate keys ingested by different writers
/// collapse in that shard and the merged union is exactly the
/// single-sketch union, for any number of routed writers.
struct KmvScenario {
  struct Config {
    size_t k;
    uint64_t hash_salt;
  };
  using Shard = KmvSketch;
  using Item = uint64_t;
  using Merged = KmvSketch;
  static constexpr uint64_t kRouteSalt = kShardRouteSalt;
  static Shard MakeShard(const Config& config, size_t /*shard*/) {
    // Hash-coordinated: every shard is the same empty sketch.
    return KmvSketch(config.k, /*initial_threshold=*/1.0,
                     config.hash_salt);
  }
  static uint64_t RouteKey(uint64_t key) { return key; }
  static size_t Ingest(Shard& shard, std::span<const uint64_t> keys) {
    return shard.AddKeys(keys);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.store().mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  using Accumulator = Merged;
  static Accumulator StartMerge(const Config& config, const Merged* previous);
  static void GatherShard(Accumulator& acc, const Shard& shard);
  static Merged FinishMerge(const Config& config, Accumulator&& acc);
};

/// Scenario: sliding-window sampling. Per SHARD, arrival times must be
/// non-decreasing, which leaves two valid ingest patterns: one routing
/// writer, or several writers owning disjoint shards (AddShardBatch)
/// each in time order.
/// Two routed writers interleave whole runs per shard and can hand a
/// shard out-of-order times, which would quietly bias the sample;
/// debug builds check every arrival against the shard's last time.
struct WindowScenario {
  struct Config {
    size_t k;
    double window;
    uint64_t seed;
  };
  struct Arrival {
    double time;
    uint64_t id;
  };
  using Shard = SlidingWindowSampler;
  using Item = Arrival;
  using Merged = SlidingWindowSampler;
  static constexpr uint64_t kRouteSalt = kTimeAxisRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return SlidingWindowSampler(config.k, config.window,
                                config.seed + kShardSeedStride * shard);
  }
  static uint64_t RouteKey(const Arrival& arrival) { return arrival.id; }
  static size_t Ingest(Shard& shard, std::span<const Arrival> items) {
    size_t stored = 0;
    for (const Arrival& a : items) {
      ATS_DCHECK(a.time >= shard.last_time());
      stored += shard.Arrive(a.time, a.id) ? 1 : 0;
    }
    return stored;
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.mutation_epoch();
  }
  // Windowed thresholds are clock-sensitive and RECOVER on expiry, so
  // the previous snapshot bounds nothing: the fold copies each shard
  // under its lock and FinishMerge runs the pairwise chain.
  using Accumulator = std::vector<Shard>;
  static Accumulator StartMerge(const Config& config, const Merged* previous);
  static void GatherShard(Accumulator& acc, const Shard& shard);
  static Merged FinishMerge(const Config& config, Accumulator&& acc);
};

/// Scenario: time-decayed sampling. Per shard, item times must be
/// non-decreasing -- the same ingest-pattern contract as
/// WindowScenario: one routing writer or disjoint shard ownership. (The
/// keyed scenarios have no such constraint: any number of routed
/// writers is always valid for bottom-k and KMV.)
struct DecayScenario {
  struct Config {
    size_t k;
    uint64_t seed;
  };
  using Shard = TimeDecaySampler;
  using Item = TimeDecaySampler::TimedItem;
  using Merged = TimeDecaySampler;
  static constexpr uint64_t kRouteSalt = kTimeAxisRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return TimeDecaySampler(config.k, config.seed + kShardSeedStride * shard);
  }
  static uint64_t RouteKey(const Item& item) { return item.key; }
  static size_t Ingest(Shard& shard, std::span<const Item> items) {
    return shard.AddBatch(items);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  using Accumulator = Merged;
  static Accumulator StartMerge(const Config& config, const Merged* previous);
  static void GatherShard(Accumulator& acc, const Shard& shard);
  static Merged FinishMerge(const Config& config, Accumulator&& acc);
};

}  // namespace internal

// Instantiated once in concurrent_sampler.cc; the concrete front-ends
// below are the intended entry points.
extern template class ConcurrentSampler<internal::PriorityScenario>;
extern template class ConcurrentSampler<internal::KmvScenario>;
extern template class ConcurrentSampler<internal::WindowScenario>;
extern template class ConcurrentSampler<internal::DecayScenario>;

/// Internally thread-safe weighted bottom-k (priority sampling)
/// front-end. With coordinated priorities (the default) the merged
/// snapshot after writers quiesce is EXACTLY the single-store sample of
/// the concatenated stream, for any number of writers (Section 2.5; see
/// the file comment). Snapshot() is the merged BottomK<Item>; query it
/// directly (Snapshot()->Threshold(), ...).
class ConcurrentPrioritySampler
    : public ConcurrentSampler<internal::PriorityScenario> {
 public:
  /// num_shards: lock stripes / independent shard samplers. k: sample
  /// capacity of every shard and of the merged sample. `coordinated`
  /// selects hash-derived priorities (required for exact single-store
  /// equivalence); `seed` drives per-shard RNGs in independent mode.
  ConcurrentPrioritySampler(size_t num_shards, size_t k,
                            bool coordinated = true, uint64_t seed = 1);

  /// Estimator-ready entries (inclusion probabilities at the merged
  /// threshold) plus that threshold.
  struct MergedSample {
    std::vector<SampleEntry> entries;
    double threshold;
  };

  /// Merged sample + threshold from one epoch-consistent snapshot.
  /// Thread-safe; clean-cache calls acquire no lock and never block
  /// writers.
  MergedSample Merged() const;
};

/// Internally thread-safe KMV distinct-counting front-end (and, through
/// KMV's theta duality, the concurrent entry point for Theta-style
/// distinct unions): shards share one hash salt, so the merged snapshot
/// is exactly the single-sketch union of the concatenated key stream,
/// for any number of writers. Items are raw keys; Snapshot() is the
/// merged KmvSketch.
class ConcurrentKmvSketch : public ConcurrentSampler<internal::KmvScenario> {
 public:
  ConcurrentKmvSketch(size_t num_shards, size_t k, uint64_t hash_salt = 0);
};

/// Internally thread-safe sliding-window front-end. Arrival times must
/// be non-decreasing PER SHARD, which leaves two safe ingest patterns: a
/// SINGLE thread driving the routed Add/AddBatch, or several writers
/// owning DISJOINT shards via AddShardBatch (each feeding its shards in
/// time order). Several time-ordered writers cannot share the routed
/// path: their runs interleave per shard out of time order (a
/// debug-build check fails). The query helpers below evaluate one
/// epoch-consistent snapshot at `now` on a private O(k) copy: window
/// queries advance expiry, so they must never run on the shared
/// snapshot itself. `now` should be >= the times already ingested, as
/// with a single SlidingWindowSampler.
class ConcurrentWindowSampler
    : public ConcurrentSampler<internal::WindowScenario> {
 public:
  using Arrival = internal::WindowScenario::Arrival;

  ConcurrentWindowSampler(size_t num_shards, size_t k, double window,
                          uint64_t seed = 1);

  /// Improved and G&L final thresholds of the merged windowed sample at
  /// `now`. Thread-safe.
  double ImprovedThreshold(double now) const;
  double GlThreshold(double now) const;

  /// Merged samples under each final threshold at `now`. Thread-safe.
  std::vector<SampleEntry> ImprovedSample(double now) const;
  std::vector<SampleEntry> GlSample(double now) const;

  /// Stored items (current + expired) in the merged snapshot at `now`.
  /// Thread-safe.
  size_t MergedStoredCount(double now) const;
};

/// Internally thread-safe time-decay front-end. Per shard, item times
/// must be non-decreasing -- the same ingest-pattern contract as
/// ConcurrentWindowSampler: one routing writer, or writers owning
/// disjoint shards. Snapshot() is the merged TimeDecaySampler,
/// canonicalized so its const queries (LogKeyThreshold, SampleAt,
/// EstimateDecayedTotal) are pure reads.
class ConcurrentDecaySampler
    : public ConcurrentSampler<internal::DecayScenario> {
 public:
  ConcurrentDecaySampler(size_t num_shards, size_t k, uint64_t seed = 1);
};

// --- Compatibility spellings -------------------------------------------
//
// The perfbench ladder and window_monitor output check still name the
// retired sequential front-ends; these keep those spellings compiling as
// thin wrappers over the one sharded type (see Writer above for when
// they go).

/// Move-assignable handle on a ConcurrentPrioritySampler (the sampler
/// itself holds a mutex and atomics).
class ShardedSampler {
 public:
  ShardedSampler(size_t num_shards, size_t k, bool coordinated = true,
                 uint64_t seed = 1)
      : impl_(std::make_unique<ConcurrentPrioritySampler>(
            num_shards, k, coordinated, seed)) {}

  size_t AddBatch(std::span<const PrioritySampler::Item> items) {
    return impl_->AddBatch(items);
  }
  const PrioritySampler& shard(size_t i) const {
    return impl_->ShardForTest(i);
  }

 private:
  std::unique_ptr<ConcurrentPrioritySampler> impl_;
};

/// ConcurrentWindowSampler with the sequential Arrive(time, id) spelling.
class ShardedWindowSampler : public ConcurrentWindowSampler {
 public:
  using ConcurrentWindowSampler::ConcurrentWindowSampler;

  bool Arrive(double time, uint64_t id) { return Add({time, id}) != 0; }
};

}  // namespace ats

#endif  // ATS_CORE_CONCURRENT_SAMPLER_H_
