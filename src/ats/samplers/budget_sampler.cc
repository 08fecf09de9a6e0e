#include "ats/samplers/budget_sampler.h"

#include <cmath>

#include "ats/core/sample_store.h"
#include "ats/util/check.h"

namespace ats {

namespace {

constexpr uint32_t kBudgetMagic = 0x31544742;  // "BGT1"
constexpr uint32_t kBudgetVersion = 2;

bool PriorityLess(const BudgetSampler::Item& a,
                  const BudgetSampler::Item& b) {
  return a.priority < b.priority;
}

// Entry-level wire validation (the cross-entry rules -- ascending
// priorities, cumulative size within budget -- live at the callers):
// size positive, finite, and not oversized (Add rejects size > B before
// drawing, so no genuine frame carries one); value finite; weight a
// positive finite double; priority a positive finite draw strictly
// below the frame threshold (the travel rule).
bool ValidWireItem(double budget, double threshold, double size,
                   double value, double weight, double priority) {
  return size > 0.0 && std::isfinite(size) && size <= budget &&
         std::isfinite(value) && weight > 0.0 && std::isfinite(weight) &&
         priority > 0.0 && std::isfinite(priority) && priority < threshold;
}

}  // namespace

BudgetSampler::BudgetSampler(double budget, uint64_t seed)
    : budget_(budget), rng_(seed), items_(PriorityLess) {
  ATS_CHECK(budget > 0.0);
}

bool BudgetSampler::Add(uint64_t key, double size, double value,
                        double weight) {
  ATS_CHECK(size > 0.0);
  ATS_CHECK(weight > 0.0);
  if (size > budget_) return false;  // can never fit: inclusion prob 0
  return Insert(key, size, value, weight,
                rng_.NextDoubleOpenZero() / weight);
}

bool BudgetSampler::Insert(uint64_t key, double size, double value,
                           double weight, double priority) {
  if (priority >= threshold_) return false;
  Item item;
  item.key = key;
  item.size = size;
  item.value = value;
  item.weight = weight;
  item.priority = priority;
  items_.insert(item);
  used_ += size;
  Shrink();
  // The item may have been evicted again immediately (it might itself be
  // the first-overflow item).
  return item.priority < threshold_;
}

size_t BudgetSampler::AddBatch(std::span<const BatchItem> items) {
  const size_t n = items.size();
  batch_priorities_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ATS_CHECK(items[i].size > 0.0);
    ATS_CHECK(items[i].weight > 0.0);
    // Oversized items draw no priority (the scalar path rejects them
    // before its draw); an infinite column entry can never pass the
    // block filter, so they stay invisible downstream too.
    batch_priorities_[i] =
        items[i].size > budget_
            ? kInfiniteThreshold
            : rng_.NextDoubleOpenZero() / items[i].weight;
  }
  size_t accepted = 0;
  const auto offer = [&](size_t i) {
    const BatchItem& it = items[i];
    accepted += Insert(it.key, it.size, it.value, it.weight,
                       batch_priorities_[i])
                    ? 1
                    : 0;
  };
  size_t i = 0;
  for (; i + internal::kIngestBlock <= n; i += internal::kIngestBlock) {
    // Snapshot the threshold per block (it only decreases; Insert
    // re-checks the live value) -- the same pre-filter argument as
    // SampleStore::OfferBatch.
    internal::VisitBlockCandidates(batch_priorities_.data() + i, threshold_,
                                   [&](size_t j) { offer(i + j); });
  }
  for (; i < n; ++i) {
    if (batch_priorities_[i] < threshold_) offer(i);
  }
  return accepted;
}

void BudgetSampler::Shrink() {
  // Restore the invariant: retained items are the maximal ascending-
  // priority prefix of all stream items whose cumulative size fits within
  // the budget. Removing from the largest priority down terminates at that
  // prefix; the last removed item is the first-overflow item whose
  // priority becomes the new threshold.
  while (used_ > budget_) {
    auto last = std::prev(items_.end());
    used_ -= last->size;
    threshold_ = last->priority;
    items_.erase(last);
  }
}

std::vector<SampleEntry> BudgetSampler::Sample() const {
  std::vector<SampleEntry> out;
  out.reserve(items_.size());
  for (const Item& it : items_) {
    SampleEntry e;
    e.key = it.key;
    e.value = it.value;
    e.priority = it.priority;
    e.threshold = threshold_;
    e.dist = it.weight == 1.0 ? PriorityDist::Uniform()
                              : PriorityDist::WeightedUniform(it.weight);
    out.push_back(e);
  }
  return out;
}

void BudgetSampler::LowerThresholdAndPurge(double other_threshold) {
  if (other_threshold >= threshold_) return;
  threshold_ = other_threshold;
  while (!items_.empty()) {
    auto last = std::prev(items_.end());
    if (last->priority < threshold_) break;
    used_ -= last->size;
    items_.erase(last);
  }
}

void BudgetSampler::Merge(const BudgetSampler& other) {
  if (&other == this) return;
  ATS_CHECK(other.budget_ == budget_);
  LowerThresholdAndPurge(other.threshold_);
  for (const Item& it : other.items_) {
    Insert(it.key, it.size, it.value, it.weight, it.priority);
  }
}

void BudgetSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kBudgetMagic, kBudgetVersion);
  w.WriteDouble(budget_);
  w.WriteDouble(threshold_);
  WriteRngState(w, rng_.State());
  w.WriteU64(items_.size());
  for (const Item& it : items_) {
    w.WriteU64(it.key);
    w.WriteDouble(it.size);
    w.WriteDouble(it.value);
    w.WriteDouble(it.weight);
    w.WriteDouble(it.priority);
  }
}

std::optional<BudgetSampler::FrameView> BudgetSampler::ViewBody(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kBudgetMagic, kBudgetVersion)) {
    return std::nullopt;
  }
  const auto budget = r.ReadDouble();
  if (!budget || !(*budget > 0.0) || !std::isfinite(*budget)) {
    return std::nullopt;
  }
  const auto threshold = r.ReadDouble();
  // +infinity (never exceeded the budget) is legal; NaN and <= 0 are not.
  if (!threshold || !(*threshold > 0.0)) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  const auto count = r.ReadU64();
  if (!count) return std::nullopt;
  const auto entries = r.ReadRegion(*count, FrameView::kStride);
  if (!entries) return std::nullopt;
  FrameView view;
  view.budget_ = *budget;
  view.threshold_ = *threshold;
  view.rng_state_ = *rng_state;
  view.entries_ = *entries;
  double previous_priority = 0.0;
  double used = 0.0;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!ValidWireItem(*budget, *threshold, view.item_size(i), view.value(i),
                       view.weight(i), view.priority(i)) ||
        view.priority(i) < previous_priority ||
        used + view.item_size(i) > *budget) {
      return std::nullopt;
    }
    previous_priority = view.priority(i);
    used += view.item_size(i);
  }
  return view;
}

std::optional<BudgetSampler> BudgetSampler::Deserialize(ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  BudgetSampler sampler(view->budget(), /*seed=*/1);
  sampler.rng_.SetState(view->rng_state_);
  sampler.threshold_ = view->threshold();
  for (size_t i = 0; i < view->size(); ++i) {
    Item item;
    item.key = view->key(i);
    item.size = view->item_size(i);
    item.value = view->value(i);
    item.weight = view->weight(i);
    item.priority = view->priority(i);
    // End-hint insert: entries arrive in ascending order, and equal
    // priorities keep their wire order (byte-stability).
    sampler.items_.insert(sampler.items_.end(), item);
    sampler.used_ += item.size;
  }
  return sampler;
}

FrameFault BudgetSampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<BudgetSampler>(frame, kBudgetMagic,
                                            kBudgetVersion);
}

bool BudgetSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  const auto views = VetFrames<BudgetSampler>(
      frames, [this](const FrameView& v) { return v.budget() == budget_; });
  if (!views) return false;
  // Apply per frame in span order -- exactly the Merge() rule, so the
  // result matches deserializing each frame and chaining Merge().
  for (const FrameView& v : *views) {
    LowerThresholdAndPurge(v.threshold());
    for (size_t i = 0; i < v.size(); ++i) {
      Insert(v.key(i), v.item_size(i), v.value(i), v.weight(i),
             v.priority(i));
    }
  }
  return true;
}

}  // namespace ats
