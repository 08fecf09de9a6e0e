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
// Retention: the rule evicts by time and per-item threshold, not by
// priority, so the sampler keeps its own storage rather than a bottom-k
// store. Every stored item (id, time, R_i, T_i) sits in one vector in
// arrival == time order, with two indices: head_, the first item not yet
// dropped, and boundary_, the first current item. [head_, boundary_) is
// X(t) and [boundary_, end) is C(t). Expiry advances boundary_, the
// two-window drop advances head_ (the dropped prefix is erased in one
// batch once it reaches k), and capacity eviction erases one position
// past boundary_. The same item record is the wire entry and the merge
// fold's buffer entry.
//
// Cost model: T_n at a full sample needs only the second-largest
// current priority, and the eviction needs the largest. One index
// answers both: a max-heap of item positions ordered by (priority
// descending, position ascending), so its root is the first-arrived
// maximum and the larger root child the second largest. Expired entries
// leave it lazily as they reach the top, or all at once when more than
// k/2 of them have piled up and the heap is rebuilt. A rejected arrival
// -- the bulk of a saturated stream -- is therefore a few compares while
// the root and its children are current, and an O(log k) pop of each
// expired top entry otherwise. An accepted one makes no pass that
// branches per item. By Theorem 9 the eviction rule's
// min-update of every current threshold composes: an item's threshold is
// its own initial threshold min-composed with the accepts that came
// after it. So an accept only logs (its position, T_n) in a suffix-
// minima log, and the threshold is materialized when the item expires
// (in time order, so the log trims from the front), when a query or a
// merge settles the sampler, and on read by SerializeTo and the merge
// fold. The eviction stays one positional erase of the heap's root,
// after which one branch-free pass shifts the heap and log positions past
// the evictee; the rest is O(log k). The heap is built on the first full-
// sample arrival and released by queries, merges and dropped-prefix
// erases, so snapshots and query copies carry none.
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
// hoist: MergeMany/MergeManyFrames are defined by the pairwise chain in
// span order, which is the test oracle (tests/window_chain_reference.h),
// and computed as one fold (Fold, below) that carries the chain's running
// clock and current set across inputs and writes the merged expired union
// and current set into the sampler's item vector once (frames all
// validated before the first is applied).
// A step reads its input in place, so the sharded front-end's snapshot
// rebuild runs each shard's step under that shard's lock, copying no
// shard.
#ifndef ATS_SAMPLERS_SLIDING_WINDOW_H_
#define ATS_SAMPLERS_SLIDING_WINDOW_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/check.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class SlidingWindowSampler {
 public:
  struct StoredItem {
    uint64_t id = 0;
    double time = 0.0;
    double priority = 0.0;
    double threshold = 1.0;  // per-item threshold T_i(t)
  };

  /// k: target sample size / space bound per window; window: Delta.
  SlidingWindowSampler(size_t k, double window, uint64_t seed);

  /// Feeds an arrival. Times must be non-decreasing and not before
  /// last_time() (queries and merges advance it too): the expiry cuts
  /// rely on time order, and a Debug build checks it here. Returns true
  /// iff the item was stored. The priority is drawn internally from
  /// Uniform(0,1). Thread-safety: mutating call -- external
  /// synchronization required.
  //
  /// Defined inline: at the rate == k operating point the whole per-
  /// arrival path is a handful of compares and one push_back,
  /// and the call overhead itself is measurable against the deque
  /// baseline it is benchmarked against (BM_WindowArriveBoundary). At a
  /// full sample a rejected arrival is a few compares too (the eviction
  /// heap's root children give its threshold); an accept pays O(log k)
  /// heap work plus the positional erase (see ArriveAtFullSample).
  bool Arrive(double time, uint64_t id) {
    ATS_DCHECK(time >= last_time_);
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    if (items_.size() - boundary_ >= k_) {
      return ArriveAtFullSample(time, priority, id);
    }
    // Underfull: initial threshold 1, so the arrival is stored iff
    // R_n < 1 (a draw of exactly 1.0 is rejected). It lowers no other
    // threshold, so nothing is logged; a built heap indexes it.
    if (!(priority < 1.0)) return false;
    items_.push_back(StoredItem{id, time, priority, 1.0});
    if (!heap_.empty()) PushHeap(items_.size() - 1);
    ++epoch_;
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
  /// the item vector, including the fewer than k dropped items not yet
  /// erased (they occupy real bytes until the deferred erase runs), plus
  /// the eviction heap (built at the first full-sample arrival) and the
  /// accept log while a saturated sample is ingesting (a query releases
  /// both). O(1) -- never advances expiry.
  size_t MemoryFootprint() const {
    return VectorFootprint(items_) + VectorFootprint(heap_) +
           VectorFootprint(log_);
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
  uint64_t mutation_epoch() const { return epoch_; }

  /// Merges a sampler over a disjoint key partition of the same timeline
  /// (windows must match; ATS_CHECK enforced). Equivalent to
  /// MergeMany({&other}); self-merge is a no-op.
  void Merge(const SlidingWindowSampler& other);

  /// K-way merge, defined by the pairwise chain: merging the inputs one
  /// by one in span order, each step at the running clock max -- the
  /// windowed rule is clock-sensitive (see the file comment). Computed as
  /// one fold and differential-tested bit-identical to an independent
  /// chain (tests/window_chain_reference.h). Inputs aliasing `this` are
  /// skipped; with no real inputs this is a strict no-op.
  void MergeMany(std::span<const SlidingWindowSampler* const> inputs);

  // --- Versioned wire format (magic "SWN1") ---
  //
  // The frame carries k, window, last_time, the RNG state (a restored
  // sampler continues the exact priority stream), and the current +
  // expired entry regions in time order. Per-item validation admits
  // priority == threshold ties: storage keeps the item whose priority
  // became the eviction bound even though it is outside the strict
  // threshold sample (see docs/WIRE_FORMAT.md).

  /// Appends the wire frame: the current and expired sets as they stand
  /// at last_time(), which the item indices always describe exactly.
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
    std::array<uint64_t, 4> rng_state() const { return rng_state_; }

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

  /// The k-way merge as an incremental fold (defined below).
  class Fold;

 private:
  // The expiry hot path: pure index advances. Items leaving the window
  // only advance boundary_ (out of line while the log holds accepts, to
  // materialize each expiring item's threshold); expired items aging
  // past two windows only advance head_, and the dropped prefix is
  // erased in one batch once it reaches k, so one arrival at the
  // rate == k boundary costs two compares and two increments here
  // (BM_WindowArriveBoundary). Newly expired items stay in the eviction
  // heap until they reach its top (see ArriveAtFullSample).
  void ExpireUntil(double now) {
    if (now > last_time_) last_time_ = now;
    const double cutoff = last_time_ - window_;
    if (boundary_ < items_.size() && items_[boundary_].time <= cutoff) {
      ++epoch_;
      if (log_.empty()) {
        do {
          ++boundary_;
        } while (boundary_ < items_.size() &&
                 items_[boundary_].time <= cutoff);
      } else {
        ExpireLogged(cutoff);
      }
    }
    const double drop = last_time_ - 2.0 * window_;
    if (head_ < boundary_ && items_[head_].time <= drop) {
      ++epoch_;
      do {
        ++head_;
      } while (head_ < boundary_ && items_[head_].time <= drop);
      if (head_ >= k_) EraseDropped();
    }
  }
  // ExpireUntil's boundary advance while the log is non-empty: each
  // expiring item's threshold is materialized, then the log entries
  // that no current item precedes are trimmed from the front.
  void ExpireLogged(double cutoff);
  // Advances expiry to `now` for a query, then settles the sampler.
  void QueryAt(double now) {
    ExpireUntil(now);
    Settle();
  }
  // Materializes every current threshold, empties the log and releases
  // the heap; nothing observable changes.
  void Settle();

  // The saturated-sample arrival path. The initial threshold is the
  // eviction heap's second-largest current priority: the larger root
  // child, a few compares while the root and both children are current,
  // otherwise read after popping the expired entries off the top (O(log
  // k) each). The heap is built here if absent (O(k)). An accept erases
  // the evictee, the heap's root, sinks its own position into the root's
  // slot and logs its threshold. Out of line: it does the heap work.
  bool ArriveAtFullSample(double time, double priority, uint64_t id);
  // Erases the dropped prefix [0, head_): one memmove of the stored
  // items, amortized O(1) per dropped item since it runs once head_
  // reaches k. Log positions shift with the items; the heap, which may
  // index dropped items, is released.
  void EraseDropped();
  std::vector<SampleEntry> SampleWithThreshold(double threshold) const;
  // Improved threshold over the current items as-is (no expiry advance;
  // the log must be settled).
  double CurrentMinThreshold() const;

  // One full-sample accept in the log (see log_).
  struct LoggedAccept {
    uint32_t position;
    double threshold;
  };
  // Applies the log to current items read in increasing position:
  // Threshold(item, p) is the min of the item's stored threshold and the
  // first (smallest) logged threshold positioned after p. Amortized O(1)
  // per item; a read at a lower position than the last restarts the
  // walk. An expired item's threshold was materialized when it expired.
  class LogCursor {
   public:
    explicit LogCursor(std::span<const LoggedAccept> log) : log_(log) {}
    double Threshold(const StoredItem& item, size_t position) {
      if (next_ > 0 && log_[next_ - 1].position > position) next_ = 0;
      while (next_ < log_.size() && log_[next_].position <= position) {
        ++next_;
      }
      return next_ < log_.size()
                 ? std::min(item.threshold, log_[next_].threshold)
                 : item.threshold;
    }

   private:
    std::span<const LoggedAccept> log_;
    size_t next_ = 0;
  };

  // The eviction heap over positions in items_: a is above b iff its
  // priority is larger, or equal with a smaller position. Stored
  // priorities lie in (0, 1), so their bit patterns are below 2^62 and
  // order like their values, and each compare is the sign of a
  // difference: the heap walks stay free of branches.
  bool Above(uint32_t a, uint32_t b) const {
    const auto pa = std::bit_cast<uint64_t>(items_[a].priority);
    const auto pb = std::bit_cast<uint64_t>(items_[b].priority);
    const uint64_t greater = (pb - pa) >> 63;
    const uint64_t tie = ((pa ^ pb) - 1) >> 63;  // pa == pb
    const uint64_t earlier = (uint64_t{a} - uint64_t{b}) >> 63;
    return (greater | (tie & earlier)) != 0;
  }
  void BuildHeap();
  void PushHeap(size_t position);
  // The slot of the larger child whose left sibling is at `left`.
  size_t LargerChild(size_t left) const;
  // Fills the hole at heap slot `slot` with `entry`, given that both
  // subtrees below it are heaps and that `entry` belongs at or below
  // the slot.
  void SinkInto(size_t slot, uint32_t entry);
  // Fills the hole at `hole` with `entry`, moving the parents it is
  // above down one level each, up to slot `top` at most.
  void RiseInto(size_t hole, uint32_t entry, size_t top);
  // Removes the root or a child of the root.
  void RemoveHeapSlot(size_t slot);
  // Pops expired entries off the top, so heap_[0] is the largest current
  // priority (or the heap is empty).
  void DropExpiredTop();
  // The largest current priority below the root (0 if none): the larger
  // root child once neither child is expired. Requires a current root.
  double HeapSecond();

  size_t k_;
  double window_;
  Xoshiro256 rng_;
  // Every stored item in arrival (== time) order: [0, head_) dropped but
  // not yet erased, [head_, boundary_) the expired set X(t) and
  // [boundary_, end) the current set C(t), |C(t)| <= k. Both indices
  // are exact at last_time_.
  std::vector<StoredItem> items_;
  size_t head_ = 0;
  size_t boundary_ = 0;
  // The one priority index: every current item's position, plus expired
  // ones not yet popped off the top, as a max-heap by Above. A full-
  // sample arrival builds it if absent and rebuilds it once more than
  // k/2 expired entries have piled up. Empty means not built; once
  // built, every stored arrival is pushed.
  std::vector<uint32_t> heap_;
  // The suffix-minima log of full-sample accepts: entry (p, T_n) lowers
  // the threshold of every item positioned before p. Positions are non-
  // decreasing and thresholds strictly increasing, so an item's logged
  // min is the first entry positioned after it. Entries no current item
  // precedes are trimmed at expiry.
  std::vector<LoggedAccept> log_;
  double last_time_;
  // Bumped by every observable mutation; see mutation_epoch().
  uint64_t epoch_ = 0;
};

/// The one k-way merge of windowed samplers, behind Merge, MergeMany,
/// MergeManyFrames and the sharded front-end's snapshot rebuild
/// (concurrent_sampler.h): Fold(acc), then Step(in) per input in chain
/// order, then Finish, yields exactly acc.MergeMany(inputs). A step
/// copies its input's survivors into the fold's own buffers and keeps
/// nothing that refers to the input, so an input need only stay
/// unchanged during its own step. The algorithm is explained in the .cc.
class SlidingWindowSampler::Fold {
 public:
  /// Opens the fold on `acc`, the chain's first element; the merged
  /// sampler keeps its k, window and RNG state.
  explicit Fold(SlidingWindowSampler acc);
  Fold(Fold&&) = default;
  Fold& operator=(Fold&&) = default;
  Fold(const Fold&) = delete;
  Fold& operator=(const Fold&) = delete;

  /// One chain step at the running clock max. The input's window must
  /// match the accumulator's (ATS_CHECK enforced); a frame view is
  /// validated by construction (DeserializeView).
  void Step(const SlidingWindowSampler& in);
  void Step(const FrameView& in);

  /// Materializes the merged sampler.
  SlidingWindowSampler Finish() &&;

 private:
  struct Run {
    size_t begin;
    size_t end;
  };
  // The inputs as two time-ordered regions (defined in the .cc).
  class SamplerInput;
  class ViewInput;

  template <typename Input>
  void StepInput(const Input& in);
  template <typename Input, typename Keep>
  void Filter(const Input& in, size_t in_begin, size_t in_end,
              double t_final, Keep keep);
  void MergeRuns(const StoredItem* items, std::span<const Run> runs,
                 StoredItem* out);
  void AddMergedRun(const StoredItem* items, std::span<const Run> runs);

  SlidingWindowSampler acc_;
  double now_;
  // The carried current set: one time-ordered run per contributing
  // step, in step order.
  std::vector<StoredItem> current_;
  std::vector<Run> current_runs_;
  std::vector<Run> prefixes_;    // a step's expiring run prefixes
  std::vector<double> scratch_;  // candidate priorities for the re-cap
  // Every expired run, in recording order.
  std::vector<StoredItem> pool_;
  std::vector<Run> runs_;
  // MergeRuns scratch: the working runs and the alternate buffer.
  std::vector<Run> rounds_;
  std::vector<StoredItem> spare_;
};

static_assert(MergeableSketch<SlidingWindowSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_SLIDING_WINDOW_H_
