// Multi-stratified sampling (Section 3.7).
//
// A single sample that is simultaneously a stratified sample along several
// key dimensions (e.g. by country AND by age). Each (dimension, stratum)
// pair maintains a bottom-k threshold tau_s; an item's threshold is the
// MAX of its strata thresholds, so it is retained while it sits in the
// bottom-k of at least one of its strata. The max of substitutable
// thresholds is 1-substitutable, and Theorem 6 upgrades the composite rule
// to full substitutability, so plain HT estimators apply with
// pi_i = F(max_s tau_s).
//
// Budget control: ShrinkToBudget(B) repeatedly picks the stratum with the
// most retained members and decrements its threshold to the next smaller
// priority (evicting one member) until at most B distinct items remain --
// the dynamic per-stratum-k rule of Section 3.7.
#ifndef ATS_SAMPLERS_MULTI_STRATIFIED_H_
#define ATS_SAMPLERS_MULTI_STRATIFIED_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class MultiStratifiedSampler {
 public:
  // One stratum key per dimension.
  using StrataKeys = std::vector<uint64_t>;

  // num_dimensions >= 1, k >= 1 items per stratum (initially).
  MultiStratifiedSampler(size_t num_dimensions, size_t k, uint64_t seed);

  // Feeds one item. `strata` must have num_dimensions entries. Returns
  // true iff the item is currently retained.
  bool Add(uint64_t key, const StrataKeys& strata, double value);

  // Evicts items (largest-member-stratum first) until at most
  // `max_items` distinct items remain.
  void ShrinkToBudget(size_t max_items);

  // Number of distinct retained items.
  size_t size() const { return items_.size(); }

  // Live heap bytes (util/memory.h convention): the item table and
  // stratum map shells plus each item's strata-key column and each
  // stratum's member set. O(items + strata).
  size_t MemoryFootprint() const {
    size_t total = HashFootprint(items_) + TreeFootprint(strata_);
    for (const auto& [key, item] : items_) {
      total += VectorFootprint(item.strata);
    }
    for (const auto& [id, stratum] : strata_) {
      total += TreeFootprint(stratum.members);
    }
    return total;
  }

  // Current threshold of a stratum (+infinity while underfull).
  double StratumThreshold(size_t dimension, uint64_t stratum) const;

  // Number of retained members of a stratum.
  size_t StratumSize(size_t dimension, uint64_t stratum) const;

  // Sample entries: per-item threshold = max over the item's strata
  // thresholds; uniform priorities.
  std::vector<SampleEntry> Sample() const;

  size_t num_dimensions() const { return num_dimensions_; }

  /// Merges a sampler over a disjoint (key-disjoint) stream: strata are
  /// composed by min threshold and min capacity, then the union of the
  /// retained items is re-offered in ascending priority order, which
  /// rebuilds every stratum's bottom-capacity membership under the
  /// composed bounds. Both samplers must share num_dimensions and the
  /// initial k. Self-merge is a no-op.
  void Merge(const MultiStratifiedSampler& other);

  // --- Versioned wire format (magic "MSS1") ---
  //
  // Frame: header, num_dimensions, k, RNG state, then the stratum table
  // in ascending (dimension, stratum key) order -- count, then
  // fixed-stride entries of (dimension u64, stratum_key u64,
  // threshold f64, capacity u64, member_count u64) -- then the item
  // table in ascending key order: count, then fixed-stride entries of
  // (key u64, value f64, priority f64, num_dimensions stratum keys).
  // Both orders are canonical, so serialize-deserialize-serialize is
  // byte-stable. Memberships do not travel: an item is a member of a
  // stratum exactly when its priority lies strictly below the stratum
  // threshold, and the reader validates the reconstruction against the
  // serialized per-stratum member counts (a genuinely tied state --
  // probability zero under continuous draws -- fails closed).

  void SerializeTo(ByteWriter& w) const;
  static std::optional<MultiStratifiedSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<MultiStratifiedSampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<MultiStratifiedSampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Read-only view over a whole serialized frame: every layer
  /// validated (including the membership-count reconstruction check),
  /// the two fixed-stride regions exposed in place. Borrows the frame's
  /// storage; must not outlive it.
  class FrameView {
   public:
    size_t num_dimensions() const { return num_dimensions_; }
    size_t k() const { return k_; }

    size_t num_strata() const { return strata_.size() / kStratumStride; }
    size_t stratum_dimension(size_t i) const {
      return static_cast<size_t>(StratumAt<uint64_t>(i, 0));
    }
    uint64_t stratum_key(size_t i) const { return StratumAt<uint64_t>(i, 8); }
    double stratum_threshold(size_t i) const {
      return StratumAt<double>(i, 16);
    }
    size_t stratum_capacity(size_t i) const {
      return static_cast<size_t>(StratumAt<uint64_t>(i, 24));
    }
    size_t stratum_member_count(size_t i) const {
      return static_cast<size_t>(StratumAt<uint64_t>(i, 32));
    }

    size_t num_items() const { return items_.size() / item_stride(); }
    uint64_t item_key(size_t i) const { return ItemAt<uint64_t>(i, 0); }
    double item_value(size_t i) const { return ItemAt<double>(i, 8); }
    double item_priority(size_t i) const { return ItemAt<double>(i, 16); }
    uint64_t item_stratum(size_t i, size_t dimension) const {
      return ItemAt<uint64_t>(i, 24 + dimension * sizeof(uint64_t));
    }

   private:
    friend class MultiStratifiedSampler;
    static constexpr size_t kStratumStride =
        3 * sizeof(uint64_t) + sizeof(double) + sizeof(uint64_t);

    size_t item_stride() const {
      return 2 * sizeof(double) + (1 + num_dimensions_) * sizeof(uint64_t);
    }
    template <typename T>
    T StratumAt(size_t i, size_t offset) const {
      T v;
      std::memcpy(&v, strata_.data() + i * kStratumStride + offset,
                  sizeof(T));
      return v;
    }
    template <typename T>
    T ItemAt(size_t i, size_t offset) const {
      T v;
      std::memcpy(&v, items_.data() + i * item_stride() + offset, sizeof(T));
      return v;
    }

    size_t num_dimensions_ = 0;
    size_t k_ = 0;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    std::string_view strata_;
    std::string_view items_;
  };

  /// Parses a SerializeToString buffer; nullopt on exactly the inputs
  /// Deserialize rejects.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<MultiStratifiedSampler>(frame);
  }

  /// The MSS1 validator: one bare body off `r`, shared by the eager,
  /// view, diagnose and frame-merge paths so the validation logic exists
  /// once.
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Merge straight off the wire: observationally identical to
  /// deserializing every frame and merging with Merge() in span order
  /// (it is exactly that chain, after vetting). Every frame must carry
  /// this sampler's num_dimensions and k; streams must be key-disjoint
  /// (Merge's precondition). Returns false -- sampler observably
  /// unchanged -- if ANY frame fails validation; all frames are vetted
  /// before the first is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  struct ItemData {
    double value = 0.0;
    double priority = 0.0;
    StrataKeys strata;
    int memberships = 0;  // number of strata whose bottom-k contains it
  };

  struct Stratum {
    // Members ordered by priority (ascending); values are item keys.
    std::set<std::pair<double, uint64_t>> members;
    double threshold = kInfiniteThreshold;
    size_t capacity = 0;  // current k for this stratum
  };

  using StratumId = std::pair<size_t, uint64_t>;  // (dimension, stratum key)

  // Offers an item to one stratum; maintains capacity and thresholds.
  void OfferToStratum(const StratumId& id, double priority, uint64_t key);

  // Evicts the largest-priority member of a stratum, lowering its
  // threshold; drops the item globally when its membership count hits 0.
  void EvictTop(Stratum& stratum);

  // Rebuilds a sampler from a fully validated frame view.
  static MultiStratifiedSampler FromValidatedView(const FrameView& view);

  size_t num_dimensions_;
  size_t k_;
  Xoshiro256 rng_;
  std::map<StratumId, Stratum> strata_;
  std::unordered_map<uint64_t, ItemData> items_;
};

static_assert(MergeableSketch<MultiStratifiedSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_MULTI_STRATIFIED_H_
