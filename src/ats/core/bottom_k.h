// Bottom-k sketch: the canonical substitutable adaptive threshold
// (Section 2.5.1).
//
// The sketch retains the k items with smallest priorities seen so far; the
// adaptive threshold is the (k+1)-th smallest priority. Recalibrating any
// sampled item's priority to -infinity leaves the threshold unchanged, so
// the threshold is fully substitutable (Theorem 6) and the plain HT
// estimator with pi_i = F_i(T) is unbiased (Corollary 3). With
// WeightedUniform priorities this is exactly priority sampling [12]; with
// hashed Uniform priorities it is the KMV distinct-counting sketch.
//
// Retention (compaction buffer + threshold bookkeeping) lives in the
// shared SampleStore; this header is the entry-oriented facade plus the
// weighted PrioritySampler built on it.
#ifndef ATS_CORE_BOTTOM_K_H_
#define ATS_CORE_BOTTOM_K_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ats/core/priority.h"
#include "ats/core/sample_store.h"
#include "ats/core/threshold.h"
#include "ats/util/check.h"
#include "ats/util/serialize.h"

namespace ats {

// Writes/reads a bottom-k payload on the wire. Specialize for payload
// types that need to cross serialization boundaries. `kWireSize` is the
// fixed encoded size in bytes; the zero-copy frame view relies on it to
// bounds-check a whole entry region with one size comparison.
template <typename Payload>
struct PayloadCodec;

template <>
struct PayloadCodec<uint64_t> {
  static constexpr size_t kWireSize = sizeof(uint64_t);
  static void Write(ByteWriter& w, uint64_t v) { w.WriteU64(v); }
  static std::optional<uint64_t> Read(ByteReader& r) { return r.ReadU64(); }
};

// Generic bottom-k container over (priority, payload) pairs, backed by the
// shared SampleStore.
//
// Offer() is amortized O(1) (append into the store's compaction buffer);
// Threshold() canonicalizes first and equals the (k+1)-th smallest
// priority ever offered once k+1 distinct offers have been seen
// (+infinity before that).
template <typename Payload>
class BottomK {
 public:
  struct Entry {
    double priority;
    Payload payload;
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.priority < b.priority;
    }
  };

  explicit BottomK(size_t k) : store_(k) {}

  // Offers an item. Returns true iff the item is accepted below the
  // store's current (chunked) acceptance bound and enters the candidate
  // buffer; the next compaction may still drop it if k smaller priorities
  // exist. The canonical retained set and threshold are unaffected by
  // the chunking (see sample_store.h).
  bool Offer(double priority, Payload payload) {
    return store_.Offer(priority, std::move(payload));
  }

  // Batched offers: equivalent to a scalar Offer loop (same state, same
  // acceptance count) but pre-filtered against the acceptance bound in
  // the store's column scan. Returns the number of accepted items.
  size_t OfferBatch(std::span<const double> priorities,
                    std::span<const Payload> payloads) {
    return store_.OfferBatch(priorities, payloads);
  }

  // The adaptive threshold: (k+1)-th smallest priority seen, or +infinity
  // while fewer than k+1 items have been offered.
  double Threshold() const { return store_.Threshold(); }

  // Largest retained priority (the k-th smallest seen). Only valid when
  // size() > 0.
  double MaxRetainedPriority() const { return store_.MaxRetainedPriority(); }

  size_t size() const { return store_.size(); }
  size_t k() const { return store_.k(); }
  bool saturated() const { return store_.saturated(); }

  // Live heap bytes of the sample state (util/memory.h convention):
  // exactly the store's SoA columns. O(1), non-canonicalizing.
  size_t MemoryFootprint() const { return store_.MemoryFootprint(); }

  // Retained entries in unspecified order, materialized from the store's
  // canonical columns.
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(store_.size());
    for (size_t i = 0; i < store_.size(); ++i) {
      out.push_back(Entry{store_.priorities()[i], store_.payloads()[i]});
    }
    return out;
  }

  // Retained entries sorted by ascending priority.
  std::vector<Entry> SortedEntries() const {
    std::vector<Entry> out;
    out.reserve(store_.size());
    for (size_t i : store_.SortedOrder()) {
      out.push_back(Entry{store_.priorities()[i], store_.payloads()[i]});
    }
    return out;
  }

  // Merges another bottom-k sketch over a disjoint stream: the result is
  // the bottom-k sketch of the concatenated streams. The threshold is the
  // min of both thresholds and of any priority evicted while merging.
  // Merging a sketch with itself is a no-op (aliasing-safe).
  void Merge(const BottomK& other) { store_.Merge(other.store_); }

  // Threshold-pruned k-way union: observationally identical to merging
  // the inputs with Merge() in span order, but the global acceptance
  // bound (min of all input thresholds) is taken first and each input is
  // block-prefiltered against it, finishing in a single selection
  // instead of S sequential merge+compaction rounds (see
  // SampleStore::MergeMany). Inputs aliasing `this` are skipped.
  void MergeMany(std::span<const BottomK* const> others) {
    std::vector<const SampleStore<Payload>*> stores;
    stores.reserve(others.size());
    for (const BottomK* o : others) stores.push_back(&o->store_);
    store_.MergeMany(stores);  // skips the store aliasing `this`
  }

  // Removes retained entries with priority >= Threshold(). Needed after
  // merges or external threshold reductions.
  void PurgeAboveThreshold() { store_.PurgeAboveThreshold(); }

  // Externally lowers the threshold (used by threshold composition); purges
  // entries that fall outside.
  void LowerThreshold(double t) { store_.LowerThreshold(t); }

  SampleStore<Payload>& store() { return store_; }
  const SampleStore<Payload>& store() const { return store_; }

  // Wire format (requires a PayloadCodec<Payload> specialization).
  // Only entries strictly below the threshold travel: after a
  // duplicate-priority warm-up (and before any purge) the canonical
  // retained set may hold entries tied AT the threshold, which are not
  // members of the threshold sample at that bound -- and which the
  // strict `priority < threshold` wire validation would rightly reject,
  // making the frame unparseable.
  void SerializeTo(ByteWriter& w) const {
    WriteSketchHeader(w, kMagic, kVersion);
    w.WriteU64(store_.k());
    const double t = store_.Threshold();
    w.WriteDouble(t);
    uint64_t count = 0;
    for (size_t i = 0; i < store_.size(); ++i) {
      count += store_.priorities()[i] < t ? 1 : 0;
    }
    w.WriteU64(count);
    for (size_t i = 0; i < store_.size(); ++i) {
      if (!(store_.priorities()[i] < t)) continue;
      w.WriteDouble(store_.priorities()[i]);
      PayloadCodec<Payload>::Write(w, store_.payloads()[i]);
    }
  }

  // Eager parse: the frame view, materialized (see ViewBody).
  static std::optional<BottomK> Deserialize(ByteReader& r) {
    const auto view = ViewBody(r);
    if (!view) return std::nullopt;
    return FromValidatedView(*view);
  }

  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<BottomK> Deserialize(std::string_view bytes) {
    return DeserializeSketch<BottomK>(bytes);
  }

  // Typed rejection reason via DiagnoseSketchFrame (util/serialize.h);
  // per-cause rejection counters in the transport tier are built on it.
  static FrameFault DiagnoseFrame(std::string_view frame) {
    return DiagnoseSketchFrame<BottomK>(frame, kMagic, kVersion);
  }

  // Zero-copy read-only view over a whole serialized frame (the
  // SerializeToString layout, trailing checksum included). Parsing
  // validates the checksum, header, field ranges and every entry -- the
  // one BTK2 validator, which Deserialize materializes -- but copies
  // nothing: the entry region stays a bounds-checked span over the
  // caller's bytes, decoded lazily per access. This is what lets
  // MergeManyFrames aggregate a large fan-in of wire sketches without
  // ever building the per-frame vectors a Deserialize+Merge chain would
  // (each frame's bytes are copied at most once: accepted survivors into
  // the accumulator).
  //
  // The view borrows the frame's storage; it must not outlive the bytes.
  class FrameView {
   public:
    size_t k() const { return static_cast<size_t>(k_); }
    double threshold() const { return threshold_; }
    size_t size() const { return entries_.size() / kStride; }

    double priority(size_t i) const {
      ATS_DCHECK(i < size());
      double p;
      std::memcpy(&p, entries_.data() + i * kStride, sizeof(p));
      return p;
    }

    Payload payload(size_t i) const {
      ATS_DCHECK(i < size());
      ByteReader r(entries_.substr(i * kStride + sizeof(double),
                                   PayloadCodec<Payload>::kWireSize));
      return *PayloadCodec<Payload>::Read(r);  // validated by ViewBody
    }

   private:
    friend class BottomK;
    static constexpr size_t kStride =
        sizeof(double) + PayloadCodec<Payload>::kWireSize;

    uint64_t k_ = 0;
    double threshold_ = kInfiniteThreshold;
    std::string_view entries_;
  };

  // Parses `frame` (a SerializeToString buffer) into a FrameView;
  // nullopt on bad checksum or anything ViewBody rejects, or trailing
  // bytes. A frame declaring a huge k is fine as long as its entry count
  // is consistent -- the view allocates nothing, so hostile capacity
  // claims cannot reserve memory here (the kMaxEagerReserve cap protects
  // the materializing path the same way).
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<BottomK>(frame);
  }

  // The BTK2 validator: parses one bare (un-checksummed) body -- exactly
  // the bytes SerializeTo appends -- off `r` into a FrameView. Rejects
  // truncation, foreign magic or another version, k < 1, NaN threshold,
  // count > k, an entry at/above the threshold, or an invalid payload.
  // Container formats embedding a sample region (PrioritySampler,
  // TimeDecaySampler, MultiObjectiveSampler) hand their nested bytes here.
  static std::optional<FrameView> ViewBody(ByteReader& r) {
    if (!ReadSketchHeader(r, kMagic, kVersion)) return std::nullopt;
    const auto k = r.ReadU64();
    const auto threshold = r.ReadDouble();
    const auto count = r.ReadU64();
    if (!k || !threshold || !count) return std::nullopt;
    // Priorities live on the whole real line (e.g. log-space keys in the
    // time-decay sampler), so only NaN thresholds are invalid here.
    if (*k < 1 || std::isnan(*threshold) || *count > *k) return std::nullopt;
    const auto entries = r.ReadRegion(*count, FrameView::kStride);
    if (!entries) return std::nullopt;
    FrameView view;
    view.k_ = *k;
    view.threshold_ = *threshold;
    view.entries_ = *entries;
    for (size_t i = 0; i < view.size(); ++i) {
      const double p = view.priority(i);
      if (!(p < view.threshold_)) return std::nullopt;  // NaN included
      ByteReader pr(view.entries_.substr(
          i * FrameView::kStride + sizeof(double),
          PayloadCodec<Payload>::kWireSize));
      if (!PayloadCodec<Payload>::Read(pr).has_value()) return std::nullopt;
    }
    return view;
  }

  // Rebuilds a sketch from a view ViewBody accepted: the entries offered
  // in wire order, then the wire threshold.
  static BottomK FromValidatedView(const FrameView& view) {
    BottomK sketch(view.k());
    for (size_t i = 0; i < view.size(); ++i) {
      sketch.Offer(view.priority(i), view.payload(i));
    }
    sketch.LowerThreshold(view.threshold());
    return sketch;
  }

  // Threshold-pruned k-way union straight off the wire: observationally
  // identical to deserializing every frame and merging the results with
  // Merge() in span order, but zero-copy (see FrameView) and pruned by
  // the global min threshold before any entry is decoded into the store.
  // Returns false -- leaving the sketch observably unchanged -- if ANY
  // frame fails validation; all frames are vetted before the first one
  // is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames) {
    const auto views =
        VetFrames<BottomK>(frames, [](const FrameView&) { return true; });
    if (!views) return false;
    // No inputs: strict no-op, like a zero-length Deserialize+Merge
    // chain (the closing purge below would otherwise drop retained
    // entries tied AT the threshold, which no pairwise merge ran to
    // justify).
    if (views->empty()) return true;
    MergeValidatedViews(*views);
    return true;
  }

  // The mutation half of MergeManyFrames: applies frame views that have
  // ALREADY passed DeserializeView/ViewBody validation (global min bound
  // first, block-prefiltered gather, closing purge). For container
  // sketches (TimeDecaySampler) that vet their own outer frames before
  // delegating; the span must be non-empty (the all-frames-invalid /
  // no-frames cases are the caller's strict no-op).
  void MergeValidatedViews(std::span<const FrameView> views) {
    double bound = store_.Threshold();
    for (const FrameView& v : views) bound = std::min(bound, v.threshold());
    store_.LowerThreshold(bound);
    alignas(64) double block[internal::kIngestBlock];
    for (const FrameView& v : views) {
      const size_t n = v.size();
      size_t i = 0;
      for (; i + internal::kIngestBlock <= n;
           i += internal::kIngestBlock) {
        // Gather the block's priorities into a dense column, then reuse
        // the batched-ingest pre-filter; only survivors decode payloads.
        for (size_t j = 0; j < internal::kIngestBlock; ++j) {
          block[j] = v.priority(i + j);
        }
        internal::VisitBlockCandidates(
            block, store_.AcceptBound(),
            [&](size_t j) { store_.Offer(block[j], v.payload(i + j)); });
      }
      for (; i < n; ++i) {
        const double p = v.priority(i);
        if (p < store_.AcceptBound()) store_.Offer(p, v.payload(i));
      }
    }
    store_.PurgeAboveThreshold();
  }

 private:
  static constexpr uint32_t kMagic = 0x42544b32;  // "BTK2"
  static constexpr uint32_t kVersion = 2;

  SampleStore<Payload> store_;
};

static_assert(MergeableSketch<BottomK<uint64_t>>);

// One weighted item retained by PrioritySampler. Namespace-scope (not
// nested) so its wire codec below is complete before the sampler's frame
// view embeds a BottomK view over it.
struct WeightedStored {
  uint64_t key;
  double weight;
};

// Wire codec for weighted items, so PrioritySampler's sample nests inside
// the generic BottomK frame (one copy of the entry validation logic).
template <>
struct PayloadCodec<WeightedStored> {
  static constexpr size_t kWireSize = sizeof(uint64_t) + sizeof(double);
  static void Write(ByteWriter& w, const WeightedStored& item) {
    w.WriteU64(item.key);
    w.WriteDouble(item.weight);
  }
  static std::optional<WeightedStored> Read(ByteReader& r) {
    const auto key = r.ReadU64();
    const auto weight = r.ReadDouble();
    if (!key.has_value() || !weight || !(*weight > 0.0)) {
      return std::nullopt;
    }
    return WeightedStored{*key, *weight};
  }
};

// Priority sampling (weighted bottom-k) over keyed, weighted items.
//
// Each item draws priority R = U/w (coordinated via its key hash when
// `coordinated` is true, independent otherwise). The sample supports
// unbiased subset-sum estimation through estimators/subset_sum.h.
class PrioritySampler {
 public:
  using Item = WeightedStored;

  // `seed` drives independent priorities; ignored when coordinated.
  PrioritySampler(size_t k, uint64_t seed = 1, bool coordinated = false);

  // Feeds one weighted item.
  void Add(uint64_t key, double weight);

  // Feeds a batch of weighted items: equivalent to calling Add() on each
  // item in order (bit-identical state, including the RNG stream in
  // independent mode), but priorities are computed into a dense column and
  // offered through the store's pre-filtered batch path. Returns the
  // number of retained items.
  size_t AddBatch(std::span<const Item> items);

  // Current adaptive threshold tau.
  double Threshold() const { return sketch_.Threshold(); }

  // Externally lowers tau (a bound known to be >= the final threshold,
  // e.g. a merged snapshot's); drops retained entries at/above it.
  void LowerThreshold(double t) { sketch_.LowerThreshold(t); }

  // The priority a coordinated sampler draws for `item`: a pure function
  // of its key and weight.
  static double CoordinatedPriority(const Item& item) {
    return PriorityDist::WeightedUniform(item.weight)
        .FromHash(HashKey(item.key));
  }

  size_t size() const { return sketch_.size(); }

  // Live heap bytes of the sample state (util/memory.h convention);
  // excludes the reusable AddBatch scratch column.
  size_t MemoryFootprint() const { return sketch_.MemoryFootprint(); }

  // Sample entries (with per-item inclusion probabilities) for estimators.
  std::vector<SampleEntry> Sample() const;

  const BottomK<Item>& sketch() const { return sketch_; }

  // Merges a sampler over a disjoint stream (same k recommended); the
  // merged sample is the bottom-k of the concatenated streams. Safe for
  // self-merge (no-op).
  void Merge(const PrioritySampler& other);

  // Threshold-pruned k-way union: observationally identical to folding
  // `others` with Merge() in span order (RNG state and coordination
  // flags do not participate in a merge), but pruned by the global min
  // threshold first (see SampleStore::MergeMany). Inputs aliasing
  // `this` are skipped.
  void MergeMany(std::span<const PrioritySampler* const> others);

  // Wire format. The RNG state travels with the sample so a restored
  // independent sampler continues the exact same priority stream.
  void SerializeTo(ByteWriter& w) const;
  static std::optional<PrioritySampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<PrioritySampler> Deserialize(std::string_view bytes) {
    return DeserializeSketch<PrioritySampler>(bytes);
  }

  // Typed rejection reason via DiagnoseSketchFrame (util/serialize.h).
  static FrameFault DiagnoseFrame(std::string_view frame);

  // Zero-copy read-only view over a whole serialized frame: the outer
  // checksum/header/flag/RNG fields are validated, then the embedded
  // sample region is exposed through the generic bottom-k frame view.
  // Borrows the frame's storage; must not outlive it.
  class FrameView {
   public:
    bool coordinated() const { return coordinated_; }
    size_t k() const { return sample_.k(); }
    double threshold() const { return sample_.threshold(); }
    size_t size() const { return sample_.size(); }
    double priority(size_t i) const { return sample_.priority(i); }
    Item item(size_t i) const { return sample_.payload(i); }

   private:
    friend class PrioritySampler;
    bool coordinated_ = false;
    std::array<uint64_t, 4> rng_state_ = {1, 0, 0, 0};
    BottomK<Item>::FrameView sample_;
  };

  // Parses a SerializeToString buffer; nullopt on exactly the inputs
  // Deserialize rejects. Allocation-free.
  static std::optional<FrameView> DeserializeView(std::string_view frame) {
    return ViewSketchFrame<PrioritySampler>(frame);
  }

  // The PSM2 validator: one bare body off `r` (the coordination flag must
  // be 0 or 1, the RNG state valid, the nested BTK2 sample region valid).
  static std::optional<FrameView> ViewBody(ByteReader& r);

  // Threshold-pruned k-way merge straight off the wire: observationally
  // identical to deserializing every frame and merging with Merge() in
  // span order (frame RNG state and coordination flags do not
  // participate in a merge). Returns false -- sampler observably
  // unchanged -- if ANY frame fails validation; all frames are vetted
  // before the first is applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  BottomK<Item> sketch_;
  Xoshiro256 rng_;
  bool coordinated_;
  // Scratch column for AddBatch (reused across calls to avoid allocation).
  std::vector<double> batch_priorities_;
};

static_assert(MergeableSketch<PrioritySampler>);

// Estimator-ready entries (with inclusion probabilities at the store's
// threshold) from a weighted-item store. Shared by PrioritySampler and
// the sharded front-end.
std::vector<SampleEntry> MakeWeightedSample(
    const SampleStore<PrioritySampler::Item>& store);

}  // namespace ats

#endif  // ATS_CORE_BOTTOM_K_H_
