#include "ats/sketch/kmv.h"

#include <algorithm>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kKmvMagic = ats::KmvSketch::kWireMagic;
constexpr uint32_t kKmvVersion = ats::KmvSketch::kWireVersion;
}  // namespace

namespace ats {

KmvSketch::KmvSketch(size_t k, double initial_threshold, uint64_t hash_salt)
    : hash_salt_(hash_salt), store_(k, initial_threshold) {
  ATS_CHECK(initial_threshold > 0.0 && initial_threshold <= 1.0);
}

bool KmvSketch::AddKey(uint64_t key) {
  return store_.Offer(HashToUnit(HashKey(key, hash_salt_)), key);
}

size_t KmvSketch::AddKeys(std::span<const uint64_t> keys) {
  return store_.HashedBatchOffer(keys, hash_salt_);
}

bool KmvSketch::OfferPriority(double priority, uint64_t key) {
  return store_.Offer(priority, key);
}

double KmvSketch::Estimate() const {
  return static_cast<double>(store_.size()) / store_.Threshold();
}

std::vector<std::pair<double, uint64_t>> KmvSketch::members() const {
  const std::vector<double>& priorities = store_.priorities();
  const std::vector<uint64_t>& keys = store_.payloads();
  std::vector<std::pair<double, uint64_t>> out(priorities.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = {priorities[i], keys[i]};
  return out;
}

void KmvSketch::Merge(const KmvSketch& other) {
  if (&other == this) return;
  ATS_CHECK(hash_salt_ == other.hash_salt_);
  store_.LowerThreshold(other.Threshold());
  // An offer loop, not SampleStore::Merge, which would also merge the
  // initial thresholds. Keys in both sketches carry equal priorities and
  // collapse at the closing compaction.
  store_.OfferBatch(other.store_.priorities(), other.store_.payloads());
  store_.PurgeAboveThreshold();
}

template <typename Input>
void KmvSketch::MergeInputs(std::span<const Input> inputs) {
  // Global acceptance bound, taken before any member moves; then one
  // pre-filtered gather per input, then one purge (SampleStore::MergeMany
  // has the equivalence argument). Rejected members never touch the key
  // column.
  double bound = store_.AcceptBound();
  for (const Input& in : inputs) bound = std::min(bound, AcceptBoundOf(in));
  store_.LowerThreshold(bound);
  for (const Input& in : inputs) GatherInput(in);
  store_.PurgeAboveThreshold();
}

void KmvSketch::GatherInput(const FrameView& in) {
  // Canonical frames are ascending, so the first entry at or above the
  // live bound ends the frame's candidates: the rest is never decoded.
  store_.LowerThreshold(in.threshold());
  for (size_t i = 0; i < in.size(); ++i) {
    if (!store_.Offer(in.priority(i), in.key(i))) break;
  }
}

void KmvSketch::MergeMany(std::span<const KmvSketch* const> others) {
  std::vector<const KmvSketch*> inputs;
  inputs.reserve(others.size());
  for (const KmvSketch* o : others) {
    if (o == this) continue;
    ATS_CHECK(hash_salt_ == o->hash_salt_);
    inputs.push_back(o);
  }
  // No real inputs: strict no-op, like the zero-length pairwise chain
  // (the closing purge must only run on behalf of an actual merge).
  if (!inputs.empty()) MergeInputs<const KmvSketch*>(inputs);
}

void KmvSketch::Gather(const KmvSketch& other) {
  if (&other == this) return;
  ATS_CHECK(hash_salt_ == other.hash_salt_);
  // The input's RAW buffered columns, never canonicalized: entries above
  // its canonical threshold, and duplicates in its tail, are candidates
  // the closing purge drops. Not SampleStore::Gather, which would also
  // merge the initial thresholds.
  store_.LowerThreshold(other.store_.AcceptBound());
  other.store_.ScanBuffered([this] { return store_.AcceptBound(); },
                            [this](double priority, uint64_t key) {
                              store_.Offer(priority, key);
                            });
}

std::optional<KmvSketch::FrameView> KmvSketch::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kKmvMagic, kKmvVersion)) return std::nullopt;
  const auto k = r.ReadU64();
  const auto salt = r.ReadU64();
  const auto initial = r.ReadDouble();
  const auto threshold = r.ReadDouble();
  const auto count = r.ReadU64();
  if (!k || !salt.has_value() || !initial || !threshold || !count) {
    return std::nullopt;
  }
  if (*k < 1 || !(*initial > 0.0) || *initial > 1.0 ||
      !(*threshold > 0.0) || *threshold > *initial || *count > *k) {
    return std::nullopt;
  }
  // Fixed-stride entry region: one size comparison bounds-checks every
  // entry.
  const auto entries = r.ReadRegion(*count, FrameView::kStride);
  if (!entries) return std::nullopt;
  FrameView view;
  view.k_ = *k;
  view.hash_salt_ = *salt;
  view.initial_threshold_ = *initial;
  view.threshold_ = *threshold;
  view.entries_ = *entries;
  // Canonical encoding only: strictly ascending priorities inside
  // (0, threshold). Ascending order implies distinctness, which is what
  // lets this validation run without a hash set.
  double prev = 0.0;
  for (size_t i = 0; i < view.size(); ++i) {
    const double p = view.priority(i);
    if (!(p > prev) || p >= *threshold) return std::nullopt;
    prev = p;
  }
  return view;
}

bool KmvSketch::MergeManyFrames(std::span<const std::string_view> frames) {
  const auto views = VetFrames<KmvSketch>(frames, [this](const FrameView& v) {
    return v.hash_salt() == hash_salt_;
  });
  if (!views) return false;
  // No frames: strict no-op, no closing purge.
  if (!views->empty()) MergeInputs<FrameView>(*views);
  return true;
}

FrameFault KmvSketch::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<KmvSketch>(frame, kKmvMagic, kKmvVersion);
}

void KmvSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kKmvMagic, kKmvVersion);
  w.WriteU64(store_.k());
  w.WriteU64(hash_salt_);
  w.WriteDouble(store_.initial_threshold());
  w.WriteDouble(store_.Threshold());
  // The canonical columns are already in entry order.
  const std::vector<double>& priorities = store_.priorities();
  const std::vector<uint64_t>& keys = store_.payloads();
  w.WriteU64(priorities.size());
  for (size_t i = 0; i < priorities.size(); ++i) {
    w.WriteDouble(priorities[i]);
    w.WriteU64(keys[i]);
  }
}

std::optional<KmvSketch> KmvSketch::Deserialize(ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  KmvSketch sketch(view->k(), view->initial_threshold(), view->hash_salt());
  // ViewBody checked the entries ascending, distinct and below the
  // threshold, and count <= k: they are the canonical columns as they
  // stand.
  std::vector<double> priorities(view->size());
  std::vector<uint64_t> keys(view->size());
  for (size_t i = 0; i < view->size(); ++i) {
    priorities[i] = view->priority(i);
    keys[i] = view->key(i);
  }
  sketch.store_.Restore(std::move(priorities), std::move(keys),
                        view->threshold());
  return sketch;
}

}  // namespace ats
