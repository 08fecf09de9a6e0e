// Time-decayed sampling via priority-threshold duality (Section 2.9).
//
// Under exponential decay the weight of an item decays as
// w_i(t) = w_i * exp(-(t - t_i)). Re-drawing priorities as weights change
// would be impractical; the duality of Section 2.9 instead keeps priorities
// fixed and lets the threshold grow: the item is in the time-t sample iff
//
//   U_i / w_i(t) < T(t)   <=>   U_i / (w_i e^{t_i}) < e^{-t} T(t),
//
// so the decay-invariant key  K_i = U_i / (w_i e^{t_i})  (stored in log
// space to avoid overflow) admits an ordinary bottom-k sketch whose
// threshold automatically tracks the decayed weights. The retained items
// are always the k currently-heaviest decayed-weight sample.
//
// Because the log-keys are absolute (no clock in the retention rule), the
// sampler is a plain bottom-k on the shared SampleStore core and inherits
// the whole mergeable-sketch machinery: samplers over disjoint streams
// merge by the bottom-k union rule, MergeMany runs the threshold-pruned
// k-way engine, and the versioned wire frame (magic "TDK1") carries the
// RNG state plus the embedded bottom-k sample region.
#ifndef ATS_SAMPLERS_TIME_DECAY_H_
#define ATS_SAMPLERS_TIME_DECAY_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/util/serialize.h"

namespace ats {

// One retained time-decay item: everything but the log-space
// decay-invariant key, which lives in the store's priority column.
// Namespace-scope (not nested) so its wire codec below is complete
// before the sampler's frame view embeds a BottomK view over it.
struct DecayedStored {
  uint64_t key;
  double weight;
  double value;
  double arrival_time;
};

// Wire codec for the decayed payload, so the sample region nests inside
// the generic BottomK frame (one copy of the entry validation logic).
// Weight must be a positive finite double; times and values must be
// finite (NaNs would poison every decayed query downstream).
template <>
struct PayloadCodec<DecayedStored> {
  static constexpr size_t kWireSize = sizeof(uint64_t) + 3 * sizeof(double);
  static void Write(ByteWriter& w, const DecayedStored& s) {
    w.WriteU64(s.key);
    w.WriteDouble(s.weight);
    w.WriteDouble(s.value);
    w.WriteDouble(s.arrival_time);
  }
  static std::optional<DecayedStored> Read(ByteReader& r) {
    const auto key = r.ReadU64();
    const auto weight = r.ReadDouble();
    const auto value = r.ReadDouble();
    const auto time = r.ReadDouble();
    if (!key.has_value() || !weight || !value || !time) return std::nullopt;
    if (!(*weight > 0.0) || !std::isfinite(*weight) ||
        !std::isfinite(*value) || !std::isfinite(*time)) {
      return std::nullopt;
    }
    return DecayedStored{*key, *weight, *value, *time};
  }
};

class TimeDecaySampler {
 public:
  using Stored = DecayedStored;

  struct DecayedEntry {
    uint64_t key = 0;
    double value = 0.0;
    double arrival_time = 0.0;
    double decayed_weight = 0.0;       // w_i e^{-(now - t_i)}
    double inclusion_probability = 0.0;
    double ht_value = 0.0;             // value * decayed_weight / pi
  };

  // One batched-ingest input (AddBatch).
  struct TimedItem {
    uint64_t key = 0;
    double weight = 1.0;
    double value = 0.0;
    double time = 0.0;
  };

  /// k: sample size bound; decay rate is fixed at 1 (rescale time for other
  /// rates).
  TimeDecaySampler(size_t k, uint64_t seed);

  /// Feeds one item at time `time` (non-decreasing). Returns true iff the
  /// item is accepted below the store's current (chunked) acceptance
  /// bound; the next compaction may still drop it if k smaller log-keys
  /// exist (see sample_store.h -- the sample exposed by SampleAt is
  /// unaffected by the chunking). Thread-safety: mutating call.
  bool Add(uint64_t key, double weight, double value, double time);

  /// Batched ingest: exactly equivalent to calling Add() on each item in
  /// order (same state, same RNG stream, same acceptance count), but the
  /// log-keys are computed into a dense column first and offered through
  /// the store's block-prefiltered batch path. Returns the number of
  /// accepted items. Thread-safety: mutating call.
  size_t AddBatch(std::span<const TimedItem> items);

  /// The adaptive threshold on the log-key scale (log of the (k+1)-th
  /// smallest decay-invariant key). Canonicalizes the store first.
  double LogKeyThreshold() const { return sketch_.Threshold(); }

  size_t size() const { return sketch_.size(); }

  /// Live heap bytes of the decayed sample state (util/memory.h
  /// convention); excludes the reusable AddBatch scratch columns.
  size_t MemoryFootprint() const { return sketch_.MemoryFootprint(); }
  size_t k() const { return sketch_.k(); }

  /// Observable-mutation counter of the backing store; query-side caches
  /// (ShardedDecaySampler) snapshot it to skip re-merging clean shards.
  uint64_t mutation_epoch() const {
    return sketch_.store().mutation_epoch();
  }

  /// The sample evaluated at time `now` >= every arrival time: decayed
  /// weights, inclusion probabilities, and HT terms for estimating the
  /// decayed total sum_i value_i * w_i e^{-(now - t_i)}.
  std::vector<DecayedEntry> SampleAt(double now) const;

  /// HT estimate of the decayed total at time `now`.
  double EstimateDecayedTotal(double now) const;

  /// Merges a sampler over a disjoint stream: the bottom-k union over the
  /// decay-invariant keys. Self-merge is a no-op.
  void Merge(const TimeDecaySampler& other) {
    sketch_.Merge(other.sketch_);
  }

  /// Threshold-pruned k-way merge: observationally identical to merging
  /// the inputs with Merge() in span order (see SampleStore::MergeMany);
  /// inputs aliasing `this` are skipped and are only read.
  void MergeMany(std::span<const TimeDecaySampler* const> inputs) {
    std::vector<const BottomK<Stored>*> sketches;
    sketches.reserve(inputs.size());
    for (const TimeDecaySampler* in : inputs) {
      sketches.push_back(&in->sketch_);
    }
    sketch_.MergeMany(sketches);
  }

  /// The k-way merge one input at a time, for callers that reach the
  /// inputs under separate locks (the concurrent tier): optionally lower
  /// the log-key threshold by any bound >= the final merged threshold,
  /// Gather each input (SampleStore::Gather: one pre-filtered scan of
  /// its raw columns, `in` only read), then PurgeAboveThreshold().
  void LowerLogKeyThreshold(double t) { sketch_.LowerThreshold(t); }
  void Gather(const TimeDecaySampler& in) {
    sketch_.store().Gather(in.sketch_.store());
  }
  void PurgeAboveThreshold() { sketch_.PurgeAboveThreshold(); }

  // --- Versioned wire format (magic "TDK1") ---
  //
  // Outer frame: header, RNG state (a restored sampler continues the
  // exact priority stream), then the embedded bottom-k sample region
  // (log-key priorities + Stored payloads). Only entries strictly below
  // the log-key threshold travel, per the PR-3 tie rule.

  void SerializeTo(ByteWriter& w) const;
  static std::optional<TimeDecaySampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<TimeDecaySampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<TimeDecaySampler>(bytes);
  }

  /// Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Zero-copy read-only view over a whole serialized frame: the outer
  /// checksum/header/RNG fields are validated, then the embedded sample
  /// region is exposed through the generic bottom-k frame view. Borrows
  /// the frame's storage; must not outlive it.
  class FrameView {
   public:
    size_t k() const { return sample_.k(); }
    double log_key_threshold() const { return sample_.threshold(); }
    size_t size() const { return sample_.size(); }
    double log_key(size_t i) const { return sample_.priority(i); }
    Stored stored(size_t i) const { return sample_.payload(i); }

   private:
    friend class TimeDecaySampler;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    BottomK<Stored>::FrameView sample_;
  };

  /// Parses a SerializeToString buffer; nullopt on exactly the inputs
  /// Deserialize rejects. Allocation-free.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<TimeDecaySampler>(frame);
  }

  /// The TDK1 validator: one bare body off `r` (RNG state, then the
  /// nested BTK2 sample region through BottomK::ViewBody).
  static std::optional<FrameView> ViewBody(ByteReader& r);

  /// Threshold-pruned k-way merge straight off the wire: observationally
  /// identical to deserializing every frame and merging with Merge() in
  /// span order. Returns false -- sampler observably unchanged -- if ANY
  /// frame fails validation; all frames are vetted before the first is
  /// applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  BottomK<Stored> sketch_;  // ordered by log K_i = log U_i - log w_i - t_i
  Xoshiro256 rng_;
  // Scratch columns for AddBatch (reused across calls).
  std::vector<double> batch_log_keys_;
  std::vector<Stored> batch_payloads_;
};

static_assert(MergeableSketch<TimeDecaySampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_TIME_DECAY_H_
