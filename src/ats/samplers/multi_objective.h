// Multi-objective weighted sampling (Section 3.8).
//
// Queries may weight items differently (e.g. by profit or by revenue). One
// coordinated sample serves every objective: each item draws a single
// uniform U_i, and objective j sees the priority R_i^j = U_i / w_i^j. A
// bottom-k sketch per objective (k = B / c under a budget B split across c
// objectives, following Cohen [6]) retains the union of the per-objective
// samples. Because the priorities share U_i, highly correlated weights
// produce highly overlapping sketches: the combined size is <= c*k and
// approaches k as weights become scalar multiples of each other, which is
// the behavior the Section 3.8 bench measures.
#ifndef ATS_SAMPLERS_MULTI_OBJECTIVE_H_
#define ATS_SAMPLERS_MULTI_OBJECTIVE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

// One retained item under a single objective's sketch. Namespace-scope
// (not nested) so its wire codec below is complete before the sampler's
// frame view embeds BottomK views over it.
struct MultiObjectiveStored {
  uint64_t key;
  double value;
  double weight;  // weight under this sketch's objective
};

// Wire codec for the per-objective payload, so each objective's sample
// region nests inside the generic BottomK frame (one copy of the entry
// validation logic). Weight must be a positive finite double; the value
// must be finite.
template <>
struct PayloadCodec<MultiObjectiveStored> {
  static constexpr size_t kWireSize = sizeof(uint64_t) + 2 * sizeof(double);
  static void Write(ByteWriter& w, const MultiObjectiveStored& s) {
    w.WriteU64(s.key);
    w.WriteDouble(s.value);
    w.WriteDouble(s.weight);
  }
  static std::optional<MultiObjectiveStored> Read(ByteReader& r) {
    const auto key = r.ReadU64();
    const auto value = r.ReadDouble();
    const auto weight = r.ReadDouble();
    if (!key.has_value() || !value || !weight) return std::nullopt;
    if (!std::isfinite(*value) || !(*weight > 0.0) ||
        !std::isfinite(*weight)) {
      return std::nullopt;
    }
    return MultiObjectiveStored{*key, *value, *weight};
  }
};

class MultiObjectiveSampler {
 public:
  using Stored = MultiObjectiveStored;

  struct Item {
    uint64_t key = 0;
    double value = 0.0;
    std::vector<double> weights;  // one per objective
  };

  // num_objectives >= 1; k: per-objective bottom-k size.
  MultiObjectiveSampler(size_t num_objectives, size_t k, uint64_t seed);

  // Feeds one item with its per-objective weights (size must equal
  // num_objectives; all weights > 0). `value` is the aggregation value.
  void Add(uint64_t key, const std::vector<double>& weights, double value);

  // Number of distinct items retained by at least one objective's sketch:
  // the actual storage cost of the combined sketch.
  size_t CombinedSize() const;

  // Per-objective adaptive threshold (on the R^j = U/w^j scale).
  double Threshold(size_t objective) const;

  // Sample entries for objective j, for HT estimation of sums weighted by
  // that objective (entry value = item value, weight = w^j).
  std::vector<SampleEntry> Sample(size_t objective) const;

  size_t num_objectives() const { return sketches_.size(); }

  // Live heap bytes across the per-objective sketches (util/memory.h
  // convention): the sketch shells plus each store's columns.
  size_t MemoryFootprint() const {
    size_t total = VectorFootprint(sketches_);
    for (const auto& sketch : sketches_) total += sketch.MemoryFootprint();
    return total;
  }

  /// Merges a sampler over a disjoint stream: objective-wise bottom-k
  /// union (the shared-uniform coordination is per stream, so the union
  /// rule applies independently per objective). Both samplers must have
  /// the same objective count. Self-merge is a no-op.
  void Merge(const MultiObjectiveSampler& other);

  // --- Versioned wire format (magic "MOB1") ---
  //
  // Frame: header, objective count, per-objective k, RNG state, then one
  // length-prefixed embedded BTK2 sample region per objective (the
  // nested bottom-k body bytes, verbatim). Every nested region must
  // declare the frame's k. Nested regions are in objective order, so
  // serialize-deserialize-serialize is byte-stable.

  void SerializeTo(ByteWriter& w) const;
  static std::optional<MultiObjectiveSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<MultiObjectiveSampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<MultiObjectiveSampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Read-only view over a whole serialized frame: outer layers
  /// validated, then each objective's sample region exposed through the
  /// generic bottom-k frame view (one small vector of views is the only
  /// allocation). Borrows the frame's storage; must not outlive it.
  class FrameView {
   public:
    size_t num_objectives() const { return objectives_.size(); }
    size_t k() const { return k_; }
    const BottomK<Stored>::FrameView& objective(size_t j) const {
      return objectives_[j];
    }

   private:
    friend class MultiObjectiveSampler;
    size_t k_ = 0;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    std::vector<BottomK<Stored>::FrameView> objectives_;
  };

  /// Parses a SerializeToString buffer; nullopt on exactly the inputs
  /// Deserialize rejects.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<MultiObjectiveSampler>(frame);
  }

  /// The MOB1 validator: one bare body off `r`. Each length-prefixed
  /// objective segment must hold exactly one BTK2 body (validated by
  /// BottomK::ViewBody) declaring the frame's k.
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Objective-wise threshold-pruned merge straight off the wire:
  /// observationally identical to deserializing every frame and merging
  /// with Merge() in span order. Every frame must carry this sampler's
  /// objective count. Returns false -- sampler observably unchanged --
  /// if ANY frame fails validation; all frames are vetted before the
  /// first is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  std::vector<BottomK<Stored>> sketches_;
  Xoshiro256 rng_;
};

static_assert(MergeableSketch<MultiObjectiveSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_MULTI_OBJECTIVE_H_
