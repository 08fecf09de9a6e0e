#include "ats/samplers/multi_objective.h"

#include <algorithm>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kMultiObjectiveMagic = 0x31424f4d;  // "MOB1"
constexpr uint32_t kMultiObjectiveVersion = 2;
}  // namespace

namespace ats {

MultiObjectiveSampler::MultiObjectiveSampler(size_t num_objectives, size_t k,
                                             uint64_t seed)
    : rng_(seed) {
  ATS_CHECK(num_objectives >= 1);
  sketches_.reserve(num_objectives);
  for (size_t j = 0; j < num_objectives; ++j) sketches_.emplace_back(k);
}

void MultiObjectiveSampler::Add(uint64_t key,
                                const std::vector<double>& weights,
                                double value) {
  ATS_CHECK(weights.size() == sketches_.size());
  // One shared uniform per item coordinates the per-objective priorities.
  const double u = rng_.NextDoubleOpenZero();
  for (size_t j = 0; j < sketches_.size(); ++j) {
    ATS_CHECK(weights[j] > 0.0);
    sketches_[j].Offer(u / weights[j], Stored{key, value, weights[j]});
  }
}

size_t MultiObjectiveSampler::CombinedSize() const {
  std::unordered_set<uint64_t> keys;
  for (const auto& sketch : sketches_) {
    for (const Stored& item : sketch.store().payloads()) {
      keys.insert(item.key);
    }
  }
  return keys.size();
}

double MultiObjectiveSampler::Threshold(size_t objective) const {
  ATS_CHECK(objective < sketches_.size());
  return sketches_[objective].Threshold();
}

std::vector<SampleEntry> MultiObjectiveSampler::Sample(
    size_t objective) const {
  ATS_CHECK(objective < sketches_.size());
  const auto& sketch = sketches_[objective];
  std::vector<SampleEntry> out;
  out.reserve(sketch.size());
  const auto& store = sketch.store();
  for (size_t i = 0; i < store.size(); ++i) {
    const Stored& item = store.payloads()[i];
    SampleEntry s;
    s.key = item.key;
    s.value = item.value;
    s.priority = store.priorities()[i];
    s.threshold = sketch.Threshold();
    s.dist = PriorityDist::WeightedUniform(item.weight);
    out.push_back(s);
  }
  return out;
}

void MultiObjectiveSampler::Merge(const MultiObjectiveSampler& other) {
  if (&other == this) return;
  ATS_CHECK(other.sketches_.size() == sketches_.size());
  for (size_t j = 0; j < sketches_.size(); ++j) {
    sketches_[j].Merge(other.sketches_[j]);
  }
}

void MultiObjectiveSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kMultiObjectiveMagic, kMultiObjectiveVersion);
  w.WriteU64(sketches_.size());
  w.WriteU64(sketches_.front().k());
  WriteRngState(w, rng_.State());
  for (const BottomK<Stored>& sketch : sketches_) {
    // Length-prefixed nested body: the reader can hand each objective's
    // segment to the nested parser without trusting its self-description.
    ByteWriter nested;
    sketch.SerializeTo(nested);
    w.WriteU64(nested.bytes().size());
    w.WriteBytes(nested.bytes());
  }
}

std::optional<MultiObjectiveSampler::FrameView>
MultiObjectiveSampler::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kMultiObjectiveMagic, kMultiObjectiveVersion)) {
    return std::nullopt;
  }
  const auto num_objectives = r.ReadU64();
  const auto k = r.ReadU64();
  if (!num_objectives || !k) return std::nullopt;
  if (*num_objectives < 1 || *k < 1) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  FrameView view;
  view.k_ = static_cast<size_t>(*k);
  view.rng_state_ = *rng_state;
  view.objectives_.reserve(static_cast<size_t>(
      std::min<uint64_t>(*num_objectives, 1024)));
  for (uint64_t j = 0; j < *num_objectives; ++j) {
    // Each objective's BTK2 body must fill its length-prefixed segment.
    const auto body_len = r.ReadU64();
    if (!body_len) return std::nullopt;
    const auto body = r.ReadRegion(*body_len, 1);
    if (!body) return std::nullopt;
    ByteReader nested(*body);
    auto sample = BottomK<Stored>::ViewBody(nested);
    if (!sample || !nested.AtEnd() || sample->k() != *k) return std::nullopt;
    view.objectives_.push_back(*sample);
  }
  return view;
}

std::optional<MultiObjectiveSampler> MultiObjectiveSampler::Deserialize(
    ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  MultiObjectiveSampler sampler(1, view->k(), /*seed=*/1);
  sampler.rng_.SetState(view->rng_state_);
  sampler.sketches_.clear();
  for (const BottomK<Stored>::FrameView& sample : view->objectives_) {
    sampler.sketches_.push_back(BottomK<Stored>::FromValidatedView(sample));
  }
  return sampler;
}

FrameFault MultiObjectiveSampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<MultiObjectiveSampler>(
      frame, kMultiObjectiveMagic, kMultiObjectiveVersion);
}

bool MultiObjectiveSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  const auto views = VetFrames<MultiObjectiveSampler>(
      frames, [this](const FrameView& v) {
        return v.num_objectives() == sketches_.size();
      });
  if (!views) return false;
  if (views->empty()) return true;  // strict no-op, like MergeMany({})
  // Objective-wise threshold-pruned application: observationally equal
  // to the per-frame Merge() chain, objective by objective.
  std::vector<BottomK<Stored>::FrameView> per_objective;
  per_objective.reserve(views->size());
  for (size_t j = 0; j < sketches_.size(); ++j) {
    per_objective.clear();
    for (const FrameView& v : *views) per_objective.push_back(v.objective(j));
    sketches_[j].MergeValidatedViews(per_objective);
  }
  return true;
}

}  // namespace ats
