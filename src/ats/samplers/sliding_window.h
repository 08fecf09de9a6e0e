// Sliding-window sampling in bounded space (Section 3.2, Figures 1-2).
//
// Implements the Gemulla & Lehner (G&L) [14] bounded-space scheme,
// re-expressed as the paper's two-stage adaptive thresholding procedure,
// and BOTH final thresholds over the *identical* stored state:
//
//  * Storage stage. The sampler keeps "current" examples C(t) from the
//    window (t - window, t] and "expired" examples X(t) from
//    (t - 2*window, t - window]. A new item x_n gets the initial threshold
//    T_n = 1 if |C| < k, else the k-th smallest of C's priorities and R_n.
//    Items with R_n >= T_n are discarded. When an insertion pushes |C|
//    above k, every current threshold is lowered to min(T_i, T_n), which
//    evicts the largest-priority item. Items that leave the window move to
//    X with their priority and final per-item threshold; X is trimmed at
//    two window lengths.
//
//  * Final threshold, G&L: T_GL = k-th smallest priority among C u X.
//    Correct but conservative - it discards roughly half the usable points.
//
//  * Final threshold, improved (this paper): T_imp = min_{i in C(t)} T_i.
//    The storage stage is a sequential 1-substitutable rule and min
//    composition preserves 1-substitutability (Theorem 9); the min is
//    constant across the window so Theorem 6 upgrades it to full
//    substitutability. Same sketch, roughly twice the usable sample.
//
// Retention lives on the shared SampleStore core: the current set C(t) is
// a SampleStore<WindowItem> whose priority column carries R_i and whose
// payload column carries (id, time, per-item threshold T_i). The columns
// are always in arrival == time order, so window expiry reclaims a
// prefix and capacity eviction removes one position, both through the
// store's Erase hook; the min-update on eviction is
// ForEachMutablePayload. That puts the windowed sampler on the identical
// retention engine as the sketches, so it inherits the mergeable-sketch
// wire format and the k-way aggregation below.
//
// Cost model: T_n at a full sample needs only the largest and second-
// largest live priority, which the sampler caches and maintains under
// updates (an accept updates them in O(1); expiry invalidates them only
// when a dying item is one of the two -- checked at the next full-sample
// arrival or prefix reclamation, off the inlined expiry path; a merge
// always invalidates). A rejected arrival -- the bulk of a saturated
// stream -- is therefore a few compares; an accepted one makes a single
// O(k) pass that min-updates the thresholds, finds the evictee and
// recomputes the top two of the survivors, then one positional erase.
//
// Merging (distributed windows): samplers over DISJOINT key partitions of
// one stream, sharing the time axis, merge by min threshold composition
// (Theorem 9): the union of the current sets under the common bound
// t = min of both sides' improved thresholds at the merge instant,
// re-capped at k by the usual bottom-k rule when the union overflows
// (every per-item threshold is min-updated with the final bound, which
// leaves the improved threshold -- already the min over all items --
// unchanged); expired sets are unioned in time order and trimmed at two
// windows, so the G&L threshold of the merged sampler is computed over
// the full union. Unlike the sketches' threshold-pruned one-shot engine,
// the windowed rule is clock-SENSITIVE -- improved thresholds recover as
// old constraints expire -- so there is no clock-free global bound to
// hoist: MergeMany/MergeManyFrames are DEFINED as the pairwise chain in
// span order (one shared snapshot/selection core per input, frames all
// validated before the first is applied) and differential-tested
// bit-identical to the explicit Merge chain (window_mergeable_test.cc).
#ifndef ATS_SAMPLERS_SLIDING_WINDOW_H_
#define ATS_SAMPLERS_SLIDING_WINDOW_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/sample_store.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class SlidingWindowSampler {
 public:
  struct StoredItem {
    uint64_t id = 0;
    double time = 0.0;
    double priority = 0.0;
    double threshold = 1.0;  // per-item threshold T_i(t), min-updated
  };

  /// k: target sample size / space bound per window; window: Delta.
  SlidingWindowSampler(size_t k, double window, uint64_t seed);

  /// Feeds an arrival (times must be non-decreasing). Returns true iff the
  /// item was stored. The priority is drawn internally from Uniform(0,1).
  /// Thread-safety: mutating call -- external synchronization required.
  //
  /// Defined inline: at the rate == k operating point the whole per-
  /// arrival path is a handful of compares and two column push_backs,
  /// and the call overhead itself is measurable against the deque
  /// baseline it is benchmarked against (BM_WindowArriveBoundary). At a
  /// full sample a rejected arrival is O(1) too (the cached top two
  /// priorities give its threshold); only an accept pays the O(k)
  /// eviction pass (see ArriveAtFullSample).
  bool Arrive(double time, uint64_t id) {
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    if (current_.size() - dead_prefix_ >= k_) {
      return ArriveAtFullSample(time, priority, id);
    }
    // Underfull: initial threshold 1. The store's acceptance bound is
    // pinned at 1.0 forever (eviction is manual), so Offer IS the
    // R_n < T_n test.
    if (!current_.Offer(priority, WindowItem{id, time, 1.0})) return false;
    NoteTopInsert(priority);
    return true;
  }

  // --- Queries (all advance expiry to `now`) ---
  //
  // Queries mutate the representation (items move current -> expired and
  // expired items age out), so like ingest they must not run concurrently
  // with each other or with Arrive on the same sampler. `now` must be
  // non-decreasing across calls.

  /// G&L final threshold: k-th smallest priority among current u expired.
  double GlThreshold(double now);

  /// Improved final threshold: min over current items' per-item thresholds.
  double ImprovedThreshold(double now);

  /// Uniform samples from the window (t - window, now] under each final
  /// threshold. Entries carry Uniform priorities and the final threshold.
  std::vector<SampleEntry> GlSample(double now);
  std::vector<SampleEntry> ImprovedSample(double now);

  /// Number of stored (current + expired) items: the space actually used.
  size_t StoredCount(double now);

  /// Live heap bytes of the windowed state (util/memory.h convention):
  /// the current store's SoA columns plus the expired column, including
  /// the not-yet-extracted dead prefix and the not-yet-erased dropped
  /// head (they occupy real bytes until the deferred cleanup runs).
  /// O(1), non-canonicalizing -- never advances expiry.
  size_t MemoryFootprint() const {
    return current_.MemoryFootprint() + VectorFootprint(expired_);
  }

  /// Current items (after expiry at `now`), for the Figure 1 threshold
  /// trace. Sorted by arrival time.
  std::vector<StoredItem> CurrentItems(double now);

  size_t k() const { return k_; }
  double window() const { return window_; }

  /// Latest time observed (arrivals, queries, merges). Serialization and
  /// merging canonicalize expiry at this instant.
  double last_time() const { return last_time_; }

  /// Monotone counter covering every observable mutation (accepted
  /// arrivals, evictions, expiry movement, merges). The sharded
  /// front-end's snapshot cache (concurrent_sampler.h) publishes it per
  /// shard to skip re-merging clean shards.
  uint64_t mutation_epoch() const {
    return current_.mutation_epoch() + aux_epoch_;
  }

  /// Merges a sampler over a disjoint key partition of the same timeline
  /// (windows must match; ATS_CHECK enforced). Equivalent to
  /// MergeMany({&other}); self-merge is a no-op.
  void Merge(const SlidingWindowSampler& other);

  /// K-way merge: bit-identical to merging the inputs one by one with
  /// Merge() in span order (differential-tested) -- the windowed rule is
  /// clock-sensitive, so the chain IS the definition (see the file
  /// comment). Inputs aliasing `this` are skipped; with no real inputs
  /// this is a strict no-op.
  void MergeMany(std::span<const SlidingWindowSampler* const> inputs);

  // --- Versioned wire format (magic "SWN1") ---
  //
  // The frame carries k, window, last_time, the RNG state (a restored
  // sampler continues the exact priority stream), and the current +
  // expired entry regions in time order. Per-item validation admits
  // priority == threshold ties: storage keeps the item whose priority
  // became the eviction bound even though it is outside the strict
  // threshold sample (see docs/WIRE_FORMAT.md).

  /// Appends the wire frame. Canonicalizes nothing: entries are written
  /// as stored; Deserialize re-runs expiry at last_time.
  void SerializeTo(ByteWriter& w) const;
  static std::optional<SlidingWindowSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<SlidingWindowSampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<SlidingWindowSampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Zero-copy read-only view over a whole serialized frame (checksum
  /// included). Parsing runs the one SWN1 validator, which Deserialize
  /// materializes; the view copies nothing, borrows the frame's storage
  /// and must not outlive it.
  class FrameView {
   public:
    size_t k() const { return static_cast<size_t>(k_); }
    double window() const { return window_; }
    double last_time() const { return last_time_; }
    size_t current_count() const { return current_count_; }
    size_t expired_count() const { return expired_count_; }

    /// Entry i in [0, current_count + expired_count): current region
    /// first, then expired, each in time order.
    StoredItem entry(size_t i) const;

   private:
    friend class SlidingWindowSampler;
    static constexpr size_t kStride = sizeof(uint64_t) + 3 * sizeof(double);

    uint64_t k_ = 0;
    double window_ = 0.0;
    double last_time_ = 0.0;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    size_t current_count_ = 0;
    size_t expired_count_ = 0;
    std::string_view entries_;
  };

  /// Parses a SerializeToString buffer into a FrameView; nullopt on
  /// exactly the inputs Deserialize rejects. Allocation-free: hostile
  /// capacity claims cannot reserve memory here.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<SlidingWindowSampler>(frame);
  }

  /// The SWN1 validator: one bare body off `r`. Entries must be valid
  /// open-unit draws at or below their thresholds, inside their region's
  /// time range, in non-decreasing time order (docs/WIRE_FORMAT.md).
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Threshold-pruned k-way merge straight off the wire: observationally
  /// identical to deserializing every frame and merging the results with
  /// Merge() in span order. Returns false -- leaving the sampler
  /// observably unchanged -- if ANY frame fails validation or carries a
  /// mismatched window; all frames are vetted before the first one is
  /// applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  // Store payload: everything about a stored item except its priority,
  // which lives in the store's priority column.
  struct WindowItem {
    uint64_t id = 0;
    double time = 0.0;
    double threshold = 1.0;
  };

  // One input of the shared merge core: a filtered view of a sampler or
  // frame at the global merge instant `now` (current: time in
  // (now - w, now]; expired: time in (now - 2w, now - w]).
  struct WindowSnapshot {
    std::vector<StoredItem> current;
    std::vector<StoredItem> expired;
  };

  // The expiry hot path: pure MARKING. Entries leaving the window only
  // advance dead_prefix_ (no copy, no pop -- they stay parked in the
  // column prefix); entries of expired_ aging past two windows only
  // advance expired_head_. The physical work (copying the dead prefix
  // into expired_, erasing both prefixes) is batched into
  // CleanupDeadPrefix / the erase below at every k-th marking, so one
  // arrival at the rate == k boundary costs two compares and two
  // increments here -- the regime where the classic deque design's O(1)
  // pop_front used to win (BM_WindowArriveBoundary). Newly dead items
  // are checked against the cached top two later, off this inlined path
  // (see CheckExpiredTopTwo).
  void ExpireUntil(double now) {
    if (now > last_time_) last_time_ = now;
    const double cutoff = last_time_ - window_;
    const auto& payloads = current_.payloads();
    if (dead_prefix_ < payloads.size() &&
        payloads[dead_prefix_].time <= cutoff) {
      ++aux_epoch_;
      do {
        ++dead_prefix_;
      } while (dead_prefix_ < payloads.size() &&
               payloads[dead_prefix_].time <= cutoff);
      if (dead_prefix_ >= k_) CleanupDeadPrefix();
    }
    DropExpired();
  }

  // Marks expired_ entries older than two windows dropped (head advance)
  // and reclaims the dropped prefix once it reaches k.
  void DropExpired() {
    const double drop = last_time_ - 2.0 * window_;
    if (expired_head_ < expired_.size() &&
        expired_[expired_head_].time <= drop) {
      ++aux_epoch_;
      do {
        ++expired_head_;
      } while (expired_head_ < expired_.size() &&
               expired_[expired_head_].time <= drop);
      if (expired_head_ >= k_) {
        expired_.erase(expired_.begin(),
                       expired_.begin() +
                           static_cast<std::ptrdiff_t>(expired_head_));
        expired_head_ = 0;
      }
    }
  }

  // The live (not yet dropped) expired items X(t), oldest first.
  std::span<const StoredItem> ExpiredItems() const {
    return std::span<const StoredItem>(expired_.data() + expired_head_,
                                       expired_.size() - expired_head_);
  }

  // The saturated-sample arrival path. The initial threshold comes from
  // the cached top two live priorities, so a reject is a few compares
  // (plus one O(k) rescan when the cache was invalidated). An accept
  // makes one pass over the store -- min-update of every threshold, the
  // first largest priority (the evictee) and the top two of the rest --
  // then one positional Erase and the append. Out of line: the accept
  // path is O(k) anyway.
  bool ArriveAtFullSample(double time, double priority, uint64_t id);
  // Folds an appended live priority into the cached top two. Harmless
  // while the cache is invalid (the next rescan overwrites it).
  void NoteTopInsert(double priority) {
    if (priority > top1_) {
      top2_ = top1_;
      top1_ = priority;
    } else if (priority > top2_) {
      top2_ = priority;
    }
  }
  // Invalidates the cached top two if an item marked dead since the last
  // check has a priority >= the cached second (only such an item can be
  // one of the two), then records the dead prefix as checked. The cached
  // values only grow between checks (NoteTopInsert), so a dead item
  // below the current second was never one of the cached two.
  void CheckExpiredTopTwo();
  // Recomputes the cached top two from the live column region.
  void RescanTopTwo();
  // Expiry advance for QUERY paths: ExpireUntil plus the physical
  // extraction, plus a re-drop -- items that aged past two windows while
  // parked in the dead prefix surface in expired_ only at extraction
  // time, so one more head scan makes the exposed expired set exact.
  void FlushExpiry(double now);
  // Stored item i reassembled from the parallel store columns.
  StoredItem ItemAt(size_t i) const;
  // Physically extracts the dead (logically expired) column prefix:
  // bulk-copies it into expired_, then erases it from the columns.
  // Amortized O(1) per expired item: runs when the prefix reaches k, or
  // piggybacks on paths that are O(k) anyway (queries, evictions,
  // merges, never the accept path of the boundary regime).
  void CleanupDeadPrefix();
  std::vector<SampleEntry> SampleWithThreshold(double threshold) const;
  // Improved threshold over the store as-is (no expiry advance).
  double CurrentMinThreshold() const;
  // Snapshot of a (possibly lazily expired) sampler at global time `now`.
  WindowSnapshot SnapshotAt(double now) const;
  static WindowSnapshot SnapshotOfView(const FrameView& view, double now);
  // The pairwise merge core shared by Merge, MergeMany, and
  // MergeManyFrames: folds one input snapshot (already filtered at
  // `now`) into `this`.
  void MergeOneSnapshot(WindowSnapshot snap, double now);
  // Time-ordered union of two time-ordered runs; on equal times the
  // `self` items come first (std::merge is stable), as in every merge.
  static std::vector<StoredItem> MergeByTime(
      std::span<const StoredItem> self, std::span<const StoredItem> other);

  size_t k_;
  double window_;
  Xoshiro256 rng_;
  // Current items C(t): priority column + WindowItem payloads, always in
  // arrival (== time) order. Capacity eviction is manual (the acceptance
  // rule needs the evicting threshold first), and the store is sized at
  // 2k so that its own priority-ordered compaction never fires on the
  // at most k live + k dead-prefix entries it buffers (see the ctor).
  SampleStore<WindowItem> current_;
  // Leading column entries that have logically expired but are not yet
  // copied into expired_ or physically extracted; every column reader
  // starts past this index. See ExpireUntil / CleanupDeadPrefix.
  size_t dead_prefix_ = 0;
  // Largest and second-largest live priority (0 where the live set has
  // fewer items), exactly what a scan of the live region would return,
  // once the dead items past top_checked_ have been checked. Maintained
  // by every accepted insert, invalidated by expiry of a top-two item
  // and by merges, and recomputed by RescanTopTwo on the next
  // full-sample arrival. top_checked_ is the column index up to which
  // dead items have been checked against the cache; kNoTopTwo means
  // there is no valid cache (the state after construction, Deserialize
  // and merges).
  static constexpr size_t kNoTopTwo = ~size_t{0};
  double top1_ = 0.0;
  double top2_ = 0.0;
  size_t top_checked_ = kNoTopTwo;
  // Expired items X(t), ordered by time; the live range starts at
  // expired_head_ (dropped entries are marked, then batch-erased -- same
  // deferral as the dead prefix, and a vector + head index beats a deque
  // here: no per-16-item block allocator traffic on the hot path).
  std::vector<StoredItem> expired_;
  size_t expired_head_ = 0;
  double last_time_;
  // Observable mutations not visible in the store's epoch (expired-side
  // changes, time advancement); see mutation_epoch().
  uint64_t aux_epoch_ = 0;
};

static_assert(MergeableSketch<SlidingWindowSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_SLIDING_WINDOW_H_
