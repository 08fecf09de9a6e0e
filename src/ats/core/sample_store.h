// Shared bottom-k sample store: the single retention engine behind every
// bottom-k adaptive-threshold sampler and sketch in the library (Sections
// 2.5, 2.7). The sliding window is not one of them: it evicts by time
// and per-item threshold, not by priority, and keeps its own time-ordered
// item vector (samplers/sliding_window.h).
//
// The store keeps the k items with smallest priorities seen so far in
// structure-of-arrays layout -- a `priority[]` column and a parallel
// `payload[]` column kept in lockstep. The adaptive threshold is the
// (k+1)-th smallest priority ever offered (capped at an optional initial
// threshold), which is fully substitutable (Theorem 6), so HT estimators
// can treat it as fixed.
//
// Ingestion discipline: because the threshold is substitutable, it does
// not have to be lowered on every eviction -- lowering it in *chunks* is
// equally valid (the retained set at any published bound is still an
// exact threshold sample at that bound). The store exploits this with the
// compaction scheme production theta/KMV sketches use:
//
//   * Accepted candidates (priority < the current acceptance bound) are
//     APPENDED to a 2k overflow buffer -- no heap, no sifting, amortized
//     O(1) per accepted item.
//   * When the buffer fills, it is compacted: std::nth_element on a
//     scratch copy of the priority column finds the (k+1)-th smallest
//     priority, that value becomes the new acceptance bound, and a single
//     gather pass keeps exactly the k smallest entries (ties at the pivot
//     resolved first-arrived-first-kept). Payloads are permuted in the
//     same pass, so rejected items still never touch payload memory.
//
// Between compactions the buffer may hold up to 2k entries; every
// OBSERVABLE accessor (Threshold, size, priorities, Merge, serialization,
// ...) first canonicalizes -- compacts down to at most k -- so callers
// always see exactly the state a per-offer scalar reference (retain the k
// smallest, threshold = (k+1)-th smallest ever) would have produced: same
// retained priority multiset, same threshold, including priority ties and
// the underfull warm-up phase. `AcceptBound()` exposes the raw chunked
// bound for hot-path pre-filtering without forcing a compaction.
//
// The canonical order is part of the store's type (StoreOrder). Samplers
// use kArrival: arrival order, compacted as above. KMV uses
// kAscendingDistinct: a KMV priority is a hash of its key, so an equal
// priority IS a duplicate key. Its columns are a canonical prefix
// (ascending, distinct, <= k: the KMV2 entry order) plus the tail
// appended since, duplicates included; a compaction sorts the tail and
// merges it into the prefix, keeping each priority's first arrival
// (CompactDistinct). It runs whenever a tail exists, so size() never
// counts a duplicate.
//
// Why structure-of-arrays: the ingest hot path touches only priorities.
// Once the store saturates, the overwhelming majority of offers fail the
// `priority < bound` test and must be rejected as cheaply as possible; a
// dense double column lets the batched path scan candidates with
// branch-free vectorizable compares.
//
// Thread-safety: canonicalization mutates the representation (never the
// observable state) through `mutable` members, so the canonicalizing
// `const` accessors are NOT safe to call concurrently on the SAME store.
// The explicit contract is Canonicalize(): call it once after ingest
// quiesces, and until the next mutating call every `const` accessor is a
// pure read (the compaction early-out leaves the representation
// untouched), so concurrent readers are safe. The k-way merge is the
// exception that needs no such call: MergeMany / Gather read their
// inputs' RAW buffered columns and never canonicalize them, so a store
// being gathered from is only read. Distinct stores (one per shard)
// remain independent, which is what the sharded front-end relies on.
// mutation_epoch() lets query-side caches detect whether a store has
// observably changed without forcing a canonicalization.
//
// Every container that previously hand-rolled its own heap + threshold
// (BottomK, PrioritySampler, KmvSketch, ThetaSketch via KMV, ...)
// delegates retention to this class.
#ifndef ATS_CORE_SAMPLE_STORE_H_
#define ATS_CORE_SAMPLE_STORE_H_

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/core/threshold.h"
#include "ats/util/check.h"

namespace ats {

namespace internal {

// Index permutation sorting `priorities` ascending. Non-template helper
// shared by every SortedEntries()-style accessor (sample_store.cc).
std::vector<size_t> AscendingPriorityOrder(
    const std::vector<double>& priorities);

// One tail entry of a kAscendingDistinct compaction (sample_store.cc).
struct IndexedPriority {
  double priority;
  size_t index;  // position in the tail
};

// Bound on eager capacity reservation. Capacity k is a logical limit, not
// a storage promise: wire formats carry arbitrary k, so reserving k (or
// the 2k compaction buffer) up front would let a hostile message allocate
// (or throw) unboundedly.
inline constexpr size_t kMaxEagerReserve = 1 << 16;

// Width of the batched-ingest pre-filter blocks. The AVX2 scan packs one
// candidate bit per block item into a uint64_t, so the block cannot grow
// past 64 without reworking the bitmap.
inline constexpr size_t kIngestBlock = 64;
static_assert(kIngestBlock <= 64,
              "VisitBlockCandidates packs candidates into a 64-bit mask");

// Visits the indices j in [0, 64) whose priority is below the threshold
// snapshot `t`, in ascending order. This is THE batched-ingest pre-filter:
// one implementation of the SIMD-friendly block scan, shared by
// SampleStore::OfferBatch, the k-way gathers and the samplers' batched
// ingest. Callers re-check the live bound per candidate (Offer does
// this), so using a snapshot is
// behavior-preserving: the bound only decreases, and items culled against
// the snapshot would also be rejected, with no state change, one at a
// time.
template <typename Visit>
inline void VisitBlockCandidates(const double* priorities, double t,
                                 Visit&& visit) {
  // Runtime-dispatched compare scan (src/ats/core/simd/): one candidate
  // bit per item, packed into a uint64_t. Set bits are visited in
  // ascending index (stream) order -- required for exact equivalence
  // with a scalar Offer loop when priorities tie (which payload survives
  // is order-dependent). The kernel's IEEE `<` matches the scalar
  // compare bit-for-bit at every dispatch level (NaN never a candidate).
  uint64_t mask = simd::ActiveKernels().prefilter_mask64(priorities, t);
  while (mask != 0) {
    const size_t j = static_cast<size_t>(std::countr_zero(mask));
    mask &= mask - 1;
    visit(j);
  }
}

}  // namespace internal

// How a store keeps its canonical columns (see the file comment).
enum class StoreOrder {
  kArrival,            // arrival order; every sampler
  kAscendingDistinct,  // ascending, equal priorities collapsed; KMV
};

template <typename Payload, StoreOrder kOrder = StoreOrder::kArrival>
class SampleStore {
 public:
  /// k: retention capacity. `initial_threshold` pre-filters the stream
  /// (KMV-style sketches start at 1.0, the top of the unit interval;
  /// grouped sketches start at the current pool threshold; plain bottom-k
  /// starts unbounded).
  explicit SampleStore(size_t k,
                       double initial_threshold = kInfiniteThreshold)
      : k_(k),
        capacity_(2 * k),
        initial_threshold_(initial_threshold),
        threshold_(initial_threshold) {
    ATS_CHECK(k >= 1);
    ATS_CHECK(initial_threshold > 0.0);
    const size_t reserve = std::min(capacity_, internal::kMaxEagerReserve);
    priority_.reserve(reserve);
    payload_.reserve(reserve);
  }

  /// Offers one item. Returns true iff the item is ACCEPTED: its priority
  /// is below the current acceptance bound and it enters the candidate
  /// buffer. Amortized O(1): an accept is an append; every 2k-th accept
  /// pays one O(k) nth_element compaction. Thread-safety: mutating call
  /// -- never run concurrently with any other access to the same store
  /// (distinct stores are fully independent).
  //
  /// Acceptance is chunked: between compactions the bound sits at the
  /// (k+1)-th smallest priority as of the LAST compaction, so an accepted
  /// item may still be dropped by the next compaction if k smaller
  /// priorities exist. The retained set and threshold observed through the
  /// canonicalizing accessors are nevertheless exactly those of a
  /// per-offer reference (see file comment).
  /// NOTE: this is Accept() plus the epoch bump, written out rather than
  /// wrapped: a wrapper (measurably) degrades how the scalar path inlines
  /// into callers' reject-heavy loops, and the batched paths must NOT
  /// bump per accept -- they bump once per call so their block-scan inner
  /// loops inline the epoch-free Accept().
  bool Offer(double priority, Payload payload) {
    if (priority >= threshold_) return false;
    priority_.push_back(priority);
    payload_.push_back(std::move(payload));
    ++mutation_epoch_;
    if (priority_.size() >= capacity_) CompactToK();
    return true;
  }

  /// Batched ingest hot path. Exactly equivalent to calling Offer() on each
  /// (priority, payload) pair in order -- same final state, same acceptance
  /// count -- but pre-filters each 64-item block against the current
  /// acceptance bound with a branch-free compare scan over the priority
  /// column, so rejected items never reach the buffer or touch payload
  /// memory.
  //
  /// Correctness of the pre-filter: the bound only decreases, so items
  /// culled against the block-start snapshot `t` would also be rejected
  /// (with no state change) by a scalar Offer; survivors re-check the live
  /// bound inside Offer. Thread-safety: mutating call, same contract as
  /// Offer.
  size_t OfferBatch(std::span<const double> priorities,
                    std::span<const Payload> payloads) {
    ATS_CHECK(priorities.size() == payloads.size());
    const size_t n = priorities.size();
    size_t accepted = 0;
    size_t i = 0;
    for (; i + internal::kIngestBlock <= n; i += internal::kIngestBlock) {
      internal::VisitBlockCandidates(
          priorities.data() + i, threshold_, [&](size_t j) {
            accepted += Accept(priorities[i + j], payloads[i + j]) ? 1 : 0;
          });
    }
    for (; i < n; ++i) {
      accepted += Accept(priorities[i], payloads[i]) ? 1 : 0;
    }
    // Once per batch, and only when something was accepted: an
    // all-rejected batch changes nothing observable, and bumping anyway
    // would invalidate query caches in exactly the saturated steady
    // state they target. The inner loop stays epoch-free (see Offer).
    if (accepted > 0) ++mutation_epoch_;
    return accepted;
  }

  /// Fused batched front-end for keyed stores (Payload == uint64_t): for
  /// each 64-key block, computes the coordinated hash priorities into a
  /// dense column, culls the block against the acceptance bound, and
  /// appends the survivors. Exactly equivalent to
  ///   for (key : keys) Offer(HashToUnit(HashKey(key, salt)), key);
  /// in order, including the acceptance count. Keys are NOT deduplicated
  /// here; a kAscendingDistinct store collapses them at compaction.
  size_t HashedBatchOffer(std::span<const uint64_t> keys,
                          uint64_t hash_salt = 0)
    requires std::same_as<Payload, uint64_t>
  {
    // The runtime-dispatched hash_priority_mask64 kernel
    // (src/ats/core/simd/) hashes a block, writes its priorities into a
    // dense column and culls it against the live bound in one pass,
    // bit-exact with HashToUnit(HashKey(...)) at every dispatch level.
    // Survivors are accepted in stream order, and the bound is re-read
    // per block, so compactions tighten the filter for later blocks.
    alignas(64) double priorities[internal::kIngestBlock];
    size_t accepted = 0;
    size_t i = 0;
    for (; i + internal::kIngestBlock <= keys.size();
         i += internal::kIngestBlock) {
      uint64_t mask = simd::ActiveKernels().hash_priority_mask64(
          keys.data() + i, hash_salt, threshold_, priorities);
      while (mask != 0) {
        const size_t j = static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        accepted += Accept(priorities[j], keys[i + j]) ? 1 : 0;
      }
    }
    for (; i < keys.size(); ++i) {
      accepted +=
          Accept(HashToUnit(HashKey(keys[i], hash_salt)), keys[i]) ? 1 : 0;
    }
    // Same epoch discipline as OfferBatch: once per batch, accepts only.
    if (accepted > 0) ++mutation_epoch_;
    return accepted;
  }

  /// Explicitly canonicalizes the representation: compacts the overflow
  /// buffer down to at most k entries and tightens the acceptance bound to
  /// the canonical adaptive threshold. Observable state is unchanged --
  /// this is the same (logically const) compaction every observable
  /// accessor performs implicitly. Call it once after ingest quiesces to
  /// make subsequent `const` accessors pure reads (safe for concurrent
  /// readers; see the thread-safety note in the file comment).
  void Canonicalize() const { CompactToK(); }

  /// Monotone counter bumped by every mutating call that may change the
  /// OBSERVABLE state (accepted offers, threshold lowering, merges,
  /// purges). Canonicalization never bumps it: it changes only the
  /// representation. The sharded front-end's snapshot cache
  /// (concurrent_sampler.h) publishes it per shard to skip re-merging
  /// clean shards between ingest batches.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// The adaptive threshold: min(initial threshold, (k+1)-th smallest
  /// priority ever offered). Canonicalizes (compacts the overflow buffer)
  /// first, so the value matches the scalar reference at any point.
  /// Thread-safety: canonicalizing const accessor -- a pure read only
  /// after an explicit Canonicalize() (see the file comment); otherwise
  /// it may mutate the representation and must not race with anything.
  double Threshold() const {
    CompactToK();
    return threshold_;
  }

  /// The raw chunked acceptance bound: Threshold() <= AcceptBound(), with
  /// equality whenever the store is canonical. O(1) -- this is the value
  /// hot ingest paths (KmvSketch::OfferPriority, the block pre-filter)
  /// test against without forcing a compaction. Any retained-set snapshot
  /// taken together with this bound is a valid threshold sample at the
  /// bound (threshold substitutability), so estimators MAY use it; the
  /// canonical Threshold() is simply tighter.
  double AcceptBound() const { return threshold_; }

  /// True once the threshold has dropped below the initial threshold, i.e.
  /// at least one offer has been squeezed out by capacity.
  bool saturated() const {
    CompactToK();
    return threshold_ < initial_threshold_;
  }

  /// Largest retained priority (the k-th smallest seen). Only valid when
  /// size() > 0. O(k): the canonical buffer is unordered between
  /// compactions, so this scans the priority column.
  double MaxRetainedPriority() const {
    CompactToK();
    ATS_CHECK(!priority_.empty());
    return *std::max_element(priority_.begin(), priority_.end());
  }

  /// Canonical retained count (<= k).
  size_t size() const {
    CompactToK();
    return priority_.size();
  }

  /// Raw candidate-buffer occupancy (may exceed k between compactions).
  /// O(1); monitoring / memory-heuristic use only.
  size_t BufferedSize() const { return priority_.size(); }

  /// Live heap bytes of the SoA columns -- EXACT per buffered entry:
  /// BufferedSize() * (sizeof(double) + sizeof(Payload)). O(1) and
  /// non-canonicalizing (never compacts), so it is safe on any path and
  /// visibly grows with the candidate buffer and drops at compaction.
  /// Excludes allocator slack and the reusable compaction scratch, per
  /// the convention in util/memory.h.
  size_t MemoryFootprint() const {
    return priority_.size() * sizeof(double) +
           payload_.size() * sizeof(Payload);
  }

  size_t k() const { return k_; }
  double initial_threshold() const { return initial_threshold_; }

  /// Canonical columns: arrival order for kArrival, ascending for
  /// kAscendingDistinct. priorities()[i] pairs with payloads()[i]. At
  /// most k entries, exactly the scalar reference's retained multiset.
  const std::vector<double>& priorities() const {
    CompactToK();
    return priority_;
  }
  const std::vector<Payload>& payloads() const {
    CompactToK();
    return payload_;
  }

  /// Index permutation visiting entries in ascending-priority order.
  std::vector<size_t> SortedOrder() const {
    CompactToK();
    return internal::AscendingPriorityOrder(priority_);
  }

  /// Merges another store over a disjoint stream: the result is the store
  /// of the concatenated streams. The threshold is the min of both
  /// thresholds and of any priority squeezed out while merging. Merging a
  /// store with itself is a no-op (the union of a stream with itself).
  //
  /// This per-item pairwise path is the k-way engine's reference
  /// semantics; aggregation fan-ins should use MergeMany instead.
  /// Thread-safety: mutates `this` AND canonicalizes `other` -- neither
  /// side may be touched concurrently.
  void Merge(const SampleStore& other) {
    if (&other == this) return;
    ++mutation_epoch_;
    initial_threshold_ =
        std::min(initial_threshold_, other.initial_threshold_);
    other.CompactToK();
    LowerThreshold(other.threshold_);
    for (size_t i = 0; i < other.priority_.size(); ++i) {
      Accept(other.priority_[i], other.payload_[i]);
    }
    // Offers above may have lowered the threshold further; restore the
    // invariant "retained iff priority < threshold".
    PurgeAboveThreshold();
  }

  /// Threshold-pruned k-way merge: observationally identical to merging
  /// the inputs one by one with Merge() in span order (same retained
  /// multiset, same threshold, same column order, same warm-up/tie
  /// behavior -- proven by the randomized differential test in
  /// merge_many_test.cc), but it runs the aggregation as ONE selection
  /// instead of S sequential merge+compaction rounds:
  //
  ///   1. Lower to the global bound B = min(own AcceptBound, every
  ///      input's AcceptBound) BEFORE any item moves, so every input is
  ///      filtered at (nearly) the final bound from the start -- in the
  ///      S-shard fan-in a ~1/S fraction of each input survives instead
  ///      of everything from the early inputs.
  ///   2. Gather each input (see Gather): its RAW buffered columns are
  ///      culled with the 64-wide block pre-filter and survivors are
  ///      appended, whose 2k-buffer compactions tighten the bound below
  ///      B as squeezed-out priorities accumulate. No input is ever
  ///      canonicalized.
  ///   3. Purge once, restoring "retained iff priority < threshold".
  //
  /// Why this equals the sequential chain: the store's bound is monotone
  /// non-increasing and both paths end at the same final threshold
  ///   T = min(B, (k+1)-th smallest buffered priority below B).
  /// Every candidate REJECTED along either path was >= the bound in
  /// force at that moment >= T, so rejections never disturb the (k+1)-th
  /// order statistic. A raw buffer holds its canonical entries plus
  /// entries at or above its own (k+1)-th smallest priority, which is
  /// >= T, so reading raw instead of canonical columns adds only
  /// candidates the closing purge drops. After the purge both paths keep
  /// exactly the candidates below T, in the same (stable, input-major)
  /// order. The same argument admits any extra starting bound >= T --
  /// the concurrent tier seeds its snapshot accumulator with the previous
  /// snapshot's threshold this way. Inputs aliasing `this` are skipped,
  /// matching the pairwise self-merge no-op.
  //
  /// Thread-safety: mutates `this`; the inputs are PURE READS (nothing
  /// is canonicalized), so they may be read concurrently by other
  /// readers, but must not be mutated during the call.
  void MergeMany(std::span<const SampleStore* const> inputs) {
    // No real inputs (empty span, or only aliases of `this`): strict
    // no-op, exactly like the zero-length pairwise chain. The closing
    // purge must not run here -- it would drop retained entries tied AT
    // the threshold, which only a merge is entitled to do.
    bool any_input = false;
    double bound = threshold_;
    for (const SampleStore* in : inputs) {
      if (in == this) continue;
      any_input = true;
      bound = std::min(bound, in->threshold_);
    }
    if (!any_input) return;
    LowerThreshold(bound);
    for (const SampleStore* in : inputs) Gather(*in);
    PurgeAboveThreshold();
  }

  /// Const-input gather, the single k-way gather loop: lowers this
  /// store's bound to `in`'s raw AcceptBound() and appends every entry of
  /// `in`'s RAW buffered columns (up to 2k, arrival order) that passes
  /// the 64-wide block pre-filter against the live bound. `in` is never
  /// canonicalized -- this is one pre-filtered scan, a pure read of `in`
  /// -- and survivors may compact `this` (O(k)). The result is a valid
  /// candidate buffer but NOT yet a merge: finish a sequence of gathers
  /// with PurgeAboveThreshold() (MergeMany is exactly lower, gather
  /// each, purge). Self-aliasing is a no-op. Thread-safety: mutates
  /// `this`; `in` must not be mutated during the call.
  void Gather(const SampleStore& in) {
    if (&in == this) return;
    ++mutation_epoch_;
    initial_threshold_ = std::min(initial_threshold_, in.initial_threshold_);
    LowerThreshold(in.threshold_);
    in.ScanBuffered([this] { return threshold_; },
                    [this](double p, const Payload& payload) {
                      Accept(p, payload);
                    });
  }

  /// The pre-filtered raw-column scan behind Gather, for callers that
  /// must not adopt the input's initial threshold as Gather does
  /// (KmvSketch serializes its own): visits, in column order, every
  /// buffered entry whose priority is below `bound()` as
  /// visit(priority, payload). `bound` is re-read per 64-entry block and
  /// per tail entry (it may only decrease as the visitor accepts);
  /// visitors must re-check the live bound themselves. Pure read: never
  /// canonicalizes.
  template <typename BoundFn, typename Visit>
  void ScanBuffered(BoundFn&& bound, Visit&& visit) const {
    const double* ps = priority_.data();
    const Payload* pl = payload_.data();
    const size_t n = priority_.size();
    size_t i = 0;
    for (; i + internal::kIngestBlock <= n; i += internal::kIngestBlock) {
      internal::VisitBlockCandidates(
          ps + i, bound(), [&](size_t j) { visit(ps[i + j], pl[i + j]); });
    }
    for (; i < n; ++i) {
      if (ps[i] < bound()) visit(ps[i], pl[i]);
    }
  }

  /// Removes retained entries with priority >= Threshold(). Needed after
  /// merges or external threshold reductions.
  void PurgeAboveThreshold() {
    ++mutation_epoch_;
    CompactToK();
    if (threshold_ == kInfiniteThreshold) return;
    FilterColumns([t = threshold_](double p) { return p < t; });
  }

  /// Externally lowers the threshold (threshold composition, merges);
  /// drops buffered entries that fall outside. Does not force a
  /// compaction: the filtered buffer is still a valid candidate set at
  /// the lowered bound.
  void LowerThreshold(double t) {
    if (t >= threshold_) return;
    ++mutation_epoch_;
    threshold_ = t;
    // The ascending prefix keeps its entries below t, a prefix of itself.
    const auto begin = priority_.begin();
    sorted_ = static_cast<size_t>(
        std::lower_bound(begin, begin + static_cast<std::ptrdiff_t>(sorted_),
                         t) -
        begin);
    FilterColumns([t](double p) { return p < t; });
  }

  /// Adopts a validated canonical state decoded off the wire: at most k
  /// entries in canonical order, all below `threshold` <= the bound.
  void Restore(std::vector<double> priorities, std::vector<Payload> payloads,
               double threshold) {
    ATS_CHECK(priorities.size() == payloads.size());
    ATS_CHECK(priorities.size() <= k_ && threshold <= threshold_);
    ++mutation_epoch_;
    threshold_ = threshold;
    priority_ = std::move(priorities);
    payload_ = std::move(payloads);
    sorted_ = priority_.size();
  }

 private:
  /// The epoch-free accept core shared by Offer and every batched/merge
  /// ingest loop: bound test, two column appends, compaction at 2k.
  bool Accept(double priority, Payload payload) {
    if (priority >= threshold_) return false;
    priority_.push_back(priority);
    payload_.push_back(std::move(payload));
    if (priority_.size() >= capacity_) CompactToK();
    return true;
  }

  /// In-place stable filter over the parallel columns: keeps the entries
  /// whose priority satisfies `keep` (which may be stateful), preserving
  /// column order and priority/payload lockstep. Logically const -- the
  /// single place the columns are filtered in place.
  template <typename Keep>
  void FilterColumns(Keep&& keep) const {
    size_t w = 0;
    for (size_t i = 0; i < priority_.size(); ++i) {
      if (keep(priority_[i])) {
        if (w != i) {
          priority_[w] = priority_[i];
          payload_[w] = std::move(payload_[i]);
        }
        ++w;
      }
    }
    priority_.resize(w);
    payload_.resize(w);
  }

  /// Compacts the candidate buffer down to the k smallest entries and
  /// tightens the acceptance bound to the (k+1)-th smallest buffered
  /// priority. No-op when the buffer already holds <= k entries, so the
  /// canonicalizing accessors are O(1) between ingest bursts.
  //
  /// The buffer always contains EVERY item ever offered below the current
  /// bound (minus entries dropped by earlier compactions, all of which
  /// were >= the bound at that time and hence >= the final threshold), so
  /// the (k+1)-th smallest buffered priority IS the (k+1)-th smallest
  /// priority ever offered -- the scalar reference's threshold.
  //
  /// Ties at the pivot are kept first-arrived-first (the later duplicates
  /// are exactly the offers a per-offer reference would have rejected at
  /// a full store). Logically const: mutates only the representation.
  void CompactToK() const {
    if constexpr (kOrder == StoreOrder::kAscendingDistinct) {
      if (sorted_ != priority_.size()) CompactDistinct();
      return;
    }
    const size_t n = priority_.size();
    if (n <= k_) return;
    scratch_.assign(priority_.begin(), priority_.end());
    const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(k_);
    std::nth_element(scratch_.begin(), nth, scratch_.end());
    const double pivot = *nth;  // the (k+1)-th smallest buffered priority
    threshold_ = std::min(threshold_, pivot);
    // Gather the k smallest in arrival order: everything strictly below
    // the pivot plus the first ties AT the pivot filling up to k.
    size_t below = 0;
    for (const double p : priority_) below += p < pivot ? 1 : 0;
    FilterColumns([pivot, ties_needed = k_ - below](double p) mutable {
      if (p < pivot) return true;
      if (p == pivot && ties_needed > 0) {
        --ties_needed;
        return true;
      }
      return false;
    });
  }

  /// The kAscendingDistinct compaction: sorts the tail [sorted_, n) by
  /// (priority, arrival) and merges it with the prefix in one pass that
  /// keeps each priority's first arrival, stops at k entries and lowers
  /// the bound to the (k+1)-th distinct priority -- by CompactToK's
  /// invariant, the (k+1)-th smallest distinct one ever offered. Defined
  /// once, out of line, for KMV's store (sample_store.cc).
  void CompactDistinct() const;

  size_t k_;
  /// Candidate-buffer capacity (2k): compaction runs every k accepts and
  /// costs O(2k), i.e. amortized O(1) per accepted item.
  size_t capacity_;
  double initial_threshold_;
  /// The chunked acceptance bound; equals the canonical adaptive threshold
  /// whenever the buffer holds <= k entries. Mutable (with the columns):
  /// canonicalization under const accessors changes the representation,
  /// never the observable state.
  mutable double threshold_;
  /// Parallel candidate columns; size <= capacity_, <= k when canonical.
  mutable std::vector<double> priority_;
  mutable std::vector<Payload> payload_;
  /// kAscendingDistinct: length of the canonical prefix (ascending,
  /// distinct, <= k); [sorted_, size) is the unsorted tail. Always 0 for
  /// kArrival.
  mutable size_t sorted_ = 0;
  /// Compaction scratch (reused across compactions to avoid
  /// per-compaction allocation): the nth_element pivot scan, or the
  /// merged columns and sorted tail of a distinct compaction.
  mutable std::vector<double> scratch_;
  mutable std::vector<Payload> payload_scratch_;
  mutable std::vector<internal::IndexedPriority> tail_;
  /// Observable-mutation counter (see mutation_epoch()). Deliberately NOT
  /// mutable: canonicalization under const accessors must not bump it, or
  /// query-side caches would self-invalidate.
  uint64_t mutation_epoch_ = 0;
};

template <>
void SampleStore<uint64_t, StoreOrder::kAscendingDistinct>::CompactDistinct()
    const;

}  // namespace ats

#endif  // ATS_CORE_SAMPLE_STORE_H_
