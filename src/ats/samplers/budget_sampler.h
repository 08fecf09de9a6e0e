// Memory-budget sampling with variable item sizes (Section 3.1).
//
// A bottom-k sketch guarantees k items, but when item sizes vary the
// memory footprint varies with them; honoring a hard budget B forces the
// conservative choice k = B / L_max. The budget thresholding rule instead
// takes as many items as fit: order items by ascending priority and accept
// the maximal prefix whose cumulative size is <= B; the threshold is the
// priority of the first item that overflows the budget. Like bottom-k, the
// values of the retained (smaller) priorities are irrelevant to the
// threshold, so it is fully substitutable and the usual HT estimators
// apply whenever B >= L_max (every item has non-zero inclusion
// probability; B >= 2 L_max for the variance estimator).
#ifndef ATS_SAMPLERS_BUDGET_SAMPLER_H_
#define ATS_SAMPLERS_BUDGET_SAMPLER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class BudgetSampler {
 public:
  struct Item {
    uint64_t key = 0;
    double size = 0.0;   // storage cost against the budget
    double value = 0.0;  // aggregation value
    double weight = 1.0; // sampling weight (1 = uniform)
    double priority = 0.0;
  };

  // budget: total size capacity B (> 0).
  BudgetSampler(double budget, uint64_t seed);

  // Feeds one item (size must be positive and should not exceed the
  // budget; oversized items can never be sampled and are rejected).
  // Returns true iff the item is currently retained.
  bool Add(uint64_t key, double size, double value, double weight = 1.0);

  // One batched-ingest input (AddBatch).
  struct BatchItem {
    uint64_t key = 0;
    double size = 0.0;
    double value = 0.0;
    double weight = 1.0;
  };

  // Batched ingest: exactly equivalent to calling Add() on each item in
  // order (same retained set, threshold, and RNG stream), but priorities
  // are drawn into a dense column and each 64-item block is culled
  // against the current threshold with the shared branch-free compare
  // scan (the budget threshold only ever decreases, so items culled
  // against the block-start snapshot would also be rejected one at a
  // time with no state change; survivors re-check the live threshold).
  // Returns the number of items accepted at their insertion instant.
  size_t AddBatch(std::span<const BatchItem> items);

  // Current adaptive threshold: priority of the first item (ascending
  // priority order over the whole stream) that would overflow the budget;
  // +infinity until the budget has ever been exceeded.
  double Threshold() const { return threshold_; }

  // Total size of retained items (always <= budget).
  double UsedBudget() const { return used_; }

  size_t size() const { return items_.size(); }

  // Live heap bytes of the retained multiset, modeled per
  // util/memory.h; excludes the reusable AddBatch scratch column.
  size_t MemoryFootprint() const { return TreeFootprint(items_); }
  double budget() const { return budget_; }

  // Sample entries for HT estimation. Weighted items carry
  // WeightedUniform(w) priorities; uniform items carry Uniform priorities.
  std::vector<SampleEntry> Sample() const;

  /// Merges a sampler over a disjoint stream, per the budget union rule:
  /// the merged threshold starts at min of the two (items lost above
  /// either threshold are unknowable), survivors above it are purged,
  /// then the other sampler's retained items are re-offered in ascending
  /// priority order with the budget shrink re-applied. Both samplers
  /// must share the budget B. Self-merge is a no-op.
  void Merge(const BudgetSampler& other);

  // --- Versioned wire format (magic "BGT1") ---
  //
  // Frame: header, budget B, current threshold, RNG state, then the
  // retained items in ascending priority order -- count, then count
  // fixed-stride entries of (key u64, size f64, value f64, weight f64,
  // priority f64). Ascending multiset order is canonical (equal
  // priorities keep their relative order through a round trip, since
  // multiset::insert places equals last), so
  // serialize-deserialize-serialize is byte-stable. Entries must be
  // non-decreasing in priority, strictly below the threshold, with
  // positive sizes that cumulatively fit the budget.

  void SerializeTo(ByteWriter& w) const;
  static std::optional<BudgetSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<BudgetSampler> Deserialize(std::string_view bytes) {
    return DeserializeSketch<BudgetSampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Zero-copy read-only view over a whole serialized frame: every
  /// layer validated (including the per-entry rules above), the
  /// fixed-stride entry region exposed in place. Borrows the frame's
  /// storage; must not outlive it.
  class FrameView {
   public:
    double budget() const { return budget_; }
    double threshold() const { return threshold_; }
    size_t size() const { return entries_.size() / kStride; }
    uint64_t key(size_t i) const { return ReadAt<uint64_t>(i, 0); }
    double item_size(size_t i) const { return ReadAt<double>(i, 8); }
    double value(size_t i) const { return ReadAt<double>(i, 16); }
    double weight(size_t i) const { return ReadAt<double>(i, 24); }
    double priority(size_t i) const { return ReadAt<double>(i, 32); }

   private:
    friend class BudgetSampler;
    static constexpr size_t kStride = sizeof(uint64_t) + 4 * sizeof(double);

    template <typename T>
    T ReadAt(size_t i, size_t offset) const {
      T v;
      std::memcpy(&v, entries_.data() + i * kStride + offset, sizeof(T));
      return v;
    }

    double budget_ = 0.0;
    double threshold_ = kInfiniteThreshold;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    std::string_view entries_;
  };

  /// Parses a SerializeToString buffer; nullopt on exactly the inputs
  /// Deserialize rejects. Allocation-free.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<BudgetSampler>(frame);
  }

  /// The BGT1 validator: one bare body off `r`, enforcing the per-entry
  /// and cross-entry rules above.
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Merge straight off the wire: observationally identical to
  /// deserializing every frame and merging with Merge() in span order.
  /// Every frame must carry this sampler's budget. Returns false --
  /// sampler observably unchanged -- if ANY frame fails validation; all
  /// frames are vetted before the first is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  void Shrink();
  // The shared first half of the merge rule: adopt the lower threshold
  // and purge retained items no longer strictly below it.
  void LowerThresholdAndPurge(double other_threshold);
  // The insertion tail shared by Add and AddBatch: threshold re-check,
  // multiset insert, budget shrink. Returns true iff the item is still
  // retained after the shrink.
  bool Insert(uint64_t key, double size, double value, double weight,
              double priority);

  double budget_;
  Xoshiro256 rng_;
  double threshold_ = kInfiniteThreshold;
  double used_ = 0.0;
  // Retained items ordered by ascending priority.
  std::multiset<Item, bool (*)(const Item&, const Item&)> items_;
  // Priority column scratch for AddBatch (reused across calls).
  std::vector<double> batch_priorities_;
};

static_assert(MergeableSketch<BudgetSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_BUDGET_SAMPLER_H_
