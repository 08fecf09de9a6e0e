#include "ats/samplers/variance_sized.h"

#include <algorithm>
#include <cmath>

#include "ats/util/check.h"

namespace ats {

namespace {

constexpr uint32_t kVarianceMagic = 0x315a5356;  // "VSZ1"
constexpr uint32_t kVarianceVersion = 2;

// Entry-level wire validation: the summand must be finite, the weight a
// positive finite double (priorities divide by it), and the priority a
// positive finite draw (U/w with U in (0,1] and finite w is never 0,
// inf, or NaN).
bool ValidWireItem(double value, double weight, double priority) {
  return std::isfinite(value) && weight > 0.0 && std::isfinite(weight) &&
         priority > 0.0 && std::isfinite(priority);
}

// Downward event scan over thresholds. Two event types per item: the term
// x^2 (1 - w t)/(w t) activates at t = 1/w (it is zero above, where pi = 1)
// and disappears at t = R (the item leaves the sample). Between events
// Vhat(t) = A/t - C with A = sum x^2/w and C = sum x^2 over active items,
// increasing as t decreases, so the first crossing of delta^2 solves
// t = A / (delta^2 + C). Returns +infinity when no crossing exists.
double FirstCrossing(const std::vector<VarianceSizedItem>& items,
                     double delta_squared) {
  struct Event {
    double t;
    double a_delta;  // change to A when scanning below t
    double c_delta;  // change to C when scanning below t
  };
  std::vector<Event> events;
  events.reserve(2 * items.size());
  for (const VarianceSizedItem& it : items) {
    const double x2 = it.value * it.value;
    events.push_back(Event{1.0 / it.weight, x2 / it.weight, x2});
    events.push_back(Event{it.priority, -x2 / it.weight, -x2});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t > b.t; });
  double a_sum = 0.0, c_sum = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    a_sum += events[i].a_delta;
    c_sum += events[i].c_delta;
    const double t_hi = events[i].t;
    const double t_lo = i + 1 < events.size() ? events[i + 1].t : 0.0;
    if (a_sum <= 0.0) continue;
    const double cross = a_sum / (delta_squared + c_sum);
    // Vhat(t_hi) < delta^2 is an invariant of the scan, so cross < t_hi;
    // the crossing is realized iff it lies above the next event.
    if (cross > t_lo && cross <= t_hi) return cross;
  }
  return kInfiniteThreshold;
}

SampleEntry ToEntry(const VarianceSizedItem& it, double threshold) {
  SampleEntry e = MakeWeightedEntry(it.key, it.weight, it.priority, threshold);
  e.value = it.value;
  return e;
}

}  // namespace

VarianceSizedResult SolveVarianceSizedThreshold(
    std::vector<VarianceSizedItem> items, double delta_squared) {
  ATS_CHECK(delta_squared > 0.0);
  VarianceSizedResult result;
  result.threshold = FirstCrossing(items, delta_squared);
  for (const VarianceSizedItem& it : items) {
    if (it.priority < result.threshold) {
      result.sample.push_back(ToEntry(it, result.threshold));
    }
  }
  return result;
}

VarianceSizedSampler::VarianceSizedSampler(double delta_squared,
                                           uint64_t seed)
    : delta_squared_(delta_squared), rng_(seed) {
  ATS_CHECK(delta_squared > 0.0);
}

void VarianceSizedSampler::Add(uint64_t key, double value, double weight) {
  ATS_CHECK(weight > 0.0);
  VarianceSizedItem item;
  item.key = key;
  item.value = value;
  item.weight = weight;
  item.priority = rng_.NextDoubleOpenZero() / weight;
  items_.push_back(item);
  dirty_ = true;
}

void VarianceSizedSampler::Refresh() const {
  if (!dirty_) return;
  threshold_ = FirstCrossing(items_, delta_squared_);
  dirty_ = false;
}

double VarianceSizedSampler::Threshold() const {
  Refresh();
  return threshold_;
}

std::vector<SampleEntry> VarianceSizedSampler::Sample() const {
  Refresh();
  std::vector<SampleEntry> out;
  for (const VarianceSizedItem& it : items_) {
    if (it.priority < threshold_) out.push_back(ToEntry(it, threshold_));
  }
  return out;
}

size_t VarianceSizedSampler::SampleSize() const {
  Refresh();
  size_t n = 0;
  for (const VarianceSizedItem& it : items_) n += it.priority < threshold_;
  return n;
}

double VarianceSizedSampler::VarianceEstimate() const {
  Refresh();
  double v = 0.0;
  for (const VarianceSizedItem& it : items_) {
    if (it.priority >= threshold_) continue;
    const double pi = std::min(1.0, it.weight * threshold_);
    if (pi < 1.0) v += it.value * it.value * (1.0 - pi) / pi;
  }
  return v;
}

void VarianceSizedSampler::Merge(const VarianceSizedSampler& other) {
  if (&other == this) return;
  ATS_CHECK(other.delta_squared_ == delta_squared_);
  if (other.items_.empty()) return;
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  dirty_ = true;
}

void VarianceSizedSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kVarianceMagic, kVarianceVersion);
  w.WriteDouble(delta_squared_);
  WriteRngState(w, rng_.State());
  w.WriteU64(items_.size());
  for (const VarianceSizedItem& it : items_) {
    w.WriteU64(it.key);
    w.WriteDouble(it.value);
    w.WriteDouble(it.weight);
    w.WriteDouble(it.priority);
  }
}

std::optional<VarianceSizedSampler::FrameView>
VarianceSizedSampler::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kVarianceMagic, kVarianceVersion)) {
    return std::nullopt;
  }
  const auto delta_squared = r.ReadDouble();
  if (!delta_squared || !(*delta_squared > 0.0) ||
      !std::isfinite(*delta_squared)) {
    return std::nullopt;
  }
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  const auto count = r.ReadU64();
  if (!count) return std::nullopt;
  const auto entries = r.ReadRegion(*count, FrameView::kStride);
  if (!entries) return std::nullopt;
  FrameView view;
  view.delta_squared_ = *delta_squared;
  view.rng_state_ = *rng_state;
  view.entries_ = *entries;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!ValidWireItem(view.value(i), view.weight(i), view.priority(i))) {
      return std::nullopt;
    }
  }
  return view;
}

std::optional<VarianceSizedSampler> VarianceSizedSampler::Deserialize(
    ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  VarianceSizedSampler sampler(view->delta_squared(), /*seed=*/1);
  sampler.rng_.SetState(view->rng_state_);
  sampler.AppendItems(*view);
  return sampler;
}

FrameFault VarianceSizedSampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<VarianceSizedSampler>(frame, kVarianceMagic,
                                                   kVarianceVersion);
}

void VarianceSizedSampler::AppendItems(const FrameView& view) {
  for (size_t i = 0; i < view.size(); ++i) {
    items_.push_back(VarianceSizedItem{view.key(i), view.value(i),
                                       view.weight(i), view.priority(i)});
    dirty_ = true;
  }
}

bool VarianceSizedSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  const auto views = VetFrames<VarianceSizedSampler>(
      frames, [this](const FrameView& v) {
        return v.delta_squared() == delta_squared_;
      });
  if (!views) return false;
  for (const FrameView& v : *views) AppendItems(v);
  return true;
}

}  // namespace ats
