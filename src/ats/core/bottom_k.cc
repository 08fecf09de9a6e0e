#include "ats/core/bottom_k.h"

#include <array>

namespace {
constexpr uint32_t kPrioritySamplerMagic = 0x50534d32;  // "PSM2"
constexpr uint32_t kPrioritySamplerVersion = 2;
}  // namespace

namespace ats {

PrioritySampler::PrioritySampler(size_t k, uint64_t seed, bool coordinated)
    : sketch_(k), rng_(seed), coordinated_(coordinated) {}

void PrioritySampler::Add(uint64_t key, double weight) {
  const PriorityDist dist = PriorityDist::WeightedUniform(weight);
  const double priority = coordinated_ ? dist.FromHash(HashKey(key))
                                       : dist.Sample(rng_);
  sketch_.Offer(priority, Item{key, weight});
}

size_t PrioritySampler::AddBatch(std::span<const Item> items) {
  batch_priorities_.resize(items.size());
  if (coordinated_) {
    for (size_t i = 0; i < items.size(); ++i) {
      batch_priorities_[i] = CoordinatedPriority(items[i]);
    }
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      batch_priorities_[i] =
          PriorityDist::WeightedUniform(items[i].weight).Sample(rng_);
    }
  }
  return sketch_.OfferBatch(batch_priorities_, items);
}

std::vector<SampleEntry> PrioritySampler::Sample() const {
  return MakeWeightedSample(sketch_.store());
}

std::vector<SampleEntry> MakeWeightedSample(
    const SampleStore<PrioritySampler::Item>& store) {
  // Each accessor canonicalizes (an out-of-line call), so read the
  // canonical columns once.
  const double t = store.Threshold();
  const std::vector<double>& priorities = store.priorities();
  const std::vector<PrioritySampler::Item>& items = store.payloads();
  std::vector<SampleEntry> out;
  out.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out.push_back(
        MakeWeightedEntry(items[i].key, items[i].weight, priorities[i], t));
  }
  return out;
}

void PrioritySampler::Merge(const PrioritySampler& other) {
  sketch_.Merge(other.sketch_);
}

void PrioritySampler::MergeMany(
    std::span<const PrioritySampler* const> others) {
  std::vector<const BottomK<Item>*> inputs;
  inputs.reserve(others.size());
  for (const PrioritySampler* other : others) {
    inputs.push_back(&other->sketch_);
  }
  sketch_.MergeMany(inputs);  // skips the sketch aliasing `this`
}

void PrioritySampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kPrioritySamplerMagic, kPrioritySamplerVersion);
  w.WriteU32(coordinated_ ? 1 : 0);
  WriteRngState(w, rng_.State());
  sketch_.SerializeTo(w);  // the nested BottomK frame carries the sample
}

std::optional<PrioritySampler::FrameView> PrioritySampler::ViewBody(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kPrioritySamplerMagic, kPrioritySamplerVersion)) {
    return std::nullopt;
  }
  const auto coordinated = r.ReadU32();
  if (!coordinated || *coordinated > 1) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  // The rest of the body is exactly the embedded bottom-k sample region.
  auto sample = BottomK<Item>::ViewBody(r);
  if (!sample) return std::nullopt;
  FrameView view;
  view.coordinated_ = *coordinated != 0;
  view.rng_state_ = *rng_state;
  view.sample_ = *sample;
  return view;
}

std::optional<PrioritySampler> PrioritySampler::Deserialize(ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  PrioritySampler sampler(view->k(), /*seed=*/1, view->coordinated());
  sampler.sketch_ = BottomK<Item>::FromValidatedView(view->sample_);
  sampler.rng_.SetState(view->rng_state_);
  return sampler;
}

FrameFault PrioritySampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<PrioritySampler>(frame, kPrioritySamplerMagic,
                                              kPrioritySamplerVersion);
}

bool PrioritySampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  const auto views =
      VetFrames<PrioritySampler>(frames, [](const FrameView&) { return true; });
  if (!views) return false;
  if (views->empty()) return true;  // strict no-op, like MergeMany({})
  std::vector<BottomK<Item>::FrameView> samples;
  samples.reserve(views->size());
  for (const FrameView& v : *views) samples.push_back(v.sample_);
  sketch_.MergeValidatedViews(samples);
  return true;
}

}  // namespace ats
