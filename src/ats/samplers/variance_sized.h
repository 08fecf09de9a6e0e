// Variance-sized samples (Section 3.9) and the heuristic streaming version
// justified by the asymptotic theory (Section 6).
//
// Priority sampling bounds the *relative* error of a sum; to bound the
// *absolute* error at Var <= delta^2, the threshold is chosen as the
// stopping point T where the unbiased HT variance estimate first reaches
// delta^2 while scanning thresholds downward:
//
//   Vhat(S_t) = sum_{R_i < t, w_i t < 1} x_i^2 (1 - w_i t) / (w_i t).
//
// Between priority values Vhat is continuous and increasing as t
// decreases, so the stop crosses delta^2 exactly and E Vhat(S_T) = delta^2.
//
// Streaming subtlety (the paper's own caveat): Vhat_n(t) grows with the
// data, so the stopping threshold grows with the stream -- "the stopping
// time may be a larger threshold that includes additional points that are
// not in the sample". A sampler that eagerly discarded everything above
// its current crossing could never raise the threshold again; recovering
// the true stopping time requires oversampling. VarianceSizedSampler
// therefore retains the stream (the maximal oversampling that always
// recovers the exact stopping time) and exposes, at every prefix, the
// exact prefix stopping threshold and the sample below it. Bounded-memory
// deployments pair it with a known data scale (Section 3.10's AQP engine,
// where the scan direction makes the threshold grow naturally).
#ifndef ATS_SAMPLERS_VARIANCE_SIZED_H_
#define ATS_SAMPLERS_VARIANCE_SIZED_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

struct VarianceSizedItem {
  uint64_t key = 0;
  double value = 0.0;   // x_i, the summand
  double weight = 1.0;  // w_i, the sampling weight (priority R = U/w)
  double priority = 0.0;
};

struct VarianceSizedResult {
  double threshold = kInfiniteThreshold;
  std::vector<SampleEntry> sample;
};

// Exact offline stopping threshold over a complete item set: the largest t
// with Vhat(S_t) >= delta_squared. Returns +infinity (and the full sample
// at probability one) when the target cannot be reached by thinning.
VarianceSizedResult SolveVarianceSizedThreshold(
    std::vector<VarianceSizedItem> items, double delta_squared);

// Streaming wrapper: draws priorities internally and maintains the exact
// prefix stopping threshold. The prefix threshold is monotone
// NON-DECREASING in the stream length (more data forces a larger
// threshold for the same absolute target).
class VarianceSizedSampler {
 public:
  VarianceSizedSampler(double delta_squared, uint64_t seed);

  // Feeds one weighted item.
  void Add(uint64_t key, double value, double weight);

  // Exact stopping threshold for the stream so far.
  double Threshold() const;

  // Items below the current stopping threshold, with HT metadata.
  std::vector<SampleEntry> Sample() const;

  // Number of items in the current sample (below the threshold).
  size_t SampleSize() const;

  // HT variance estimate at the current threshold; equals delta^2 exactly
  // whenever the threshold is finite.
  double VarianceEstimate() const;

  size_t stream_size() const { return items_.size(); }

  // Live heap bytes of the retained item column (util/memory.h
  // convention). This sampler keeps the whole stream, so the figure
  // grows linearly -- which is exactly what the accounting should show.
  size_t MemoryFootprint() const { return VectorFootprint(items_); }

  /// Merges a sampler over a disjoint stream. Because this sampler
  /// retains its whole stream (the maximal oversampling, see the file
  /// comment), the union of two streams is literally the concatenation
  /// of the retained item columns -- the merged prefix threshold then
  /// falls out of the same exact event scan. Both samplers must target
  /// the same delta^2. Self-merge is a no-op.
  void Merge(const VarianceSizedSampler& other);

  // --- Versioned wire format (magic "VSZ1") ---
  //
  // Frame: header, the delta^2 target, RNG state (a restored sampler
  // continues the exact priority stream), then the retained item column
  // in arrival order -- count, then count fixed-stride entries of
  // (key u64, value f64, weight f64, priority f64). Arrival order is
  // canonical, so serialize-deserialize-serialize is byte-stable.

  void SerializeTo(ByteWriter& w) const;
  static std::optional<VarianceSizedSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<VarianceSizedSampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<VarianceSizedSampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Zero-copy read-only view over a whole serialized frame: the outer
  /// checksum/header/field layers are validated (including every entry's
  /// fields), then the fixed-stride entry region is exposed in place.
  /// Borrows the frame's storage; must not outlive it.
  class FrameView {
   public:
    double delta_squared() const { return delta_squared_; }
    size_t size() const { return entries_.size() / kStride; }
    uint64_t key(size_t i) const { return ReadAt<uint64_t>(i, 0); }
    double value(size_t i) const { return ReadAt<double>(i, 8); }
    double weight(size_t i) const { return ReadAt<double>(i, 16); }
    double priority(size_t i) const { return ReadAt<double>(i, 24); }

   private:
    friend class VarianceSizedSampler;
    static constexpr size_t kStride = sizeof(uint64_t) + 3 * sizeof(double);

    template <typename T>
    T ReadAt(size_t i, size_t offset) const {
      T v;
      std::memcpy(&v, entries_.data() + i * kStride + offset, sizeof(T));
      return v;
    }

    double delta_squared_ = 0.0;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    std::string_view entries_;
  };

  /// Parses a SerializeToString buffer; nullopt on exactly the inputs
  /// Deserialize rejects. Allocation-free.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<VarianceSizedSampler>(frame);
  }

  /// The VSZ1 validator: one bare body off `r` (delta^2 positive and
  /// finite, RNG state valid, every entry's fields in range).
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Merge straight off the wire: observationally identical to
  /// deserializing every frame and merging with Merge() in span order.
  /// Every frame must target this sampler's delta^2. Returns false --
  /// sampler observably unchanged -- if ANY frame fails validation; all
  /// frames are vetted before the first is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  void Refresh() const;
  // Appends a validated view's entries in wire (arrival) order.
  void AppendItems(const FrameView& view);

  double delta_squared_;
  Xoshiro256 rng_;
  std::vector<VarianceSizedItem> items_;
  mutable bool dirty_ = true;
  mutable double threshold_ = kInfiniteThreshold;
};

static_assert(MergeableSketch<VarianceSizedSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_VARIANCE_SIZED_H_
