#include "ats/samplers/multi_stratified.h"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <utility>

#include "ats/util/check.h"

namespace ats {

namespace {

constexpr uint32_t kStratifiedMagic = 0x3153534d;  // "MSS1"
constexpr uint32_t kStratifiedVersion = 2;

}  // namespace

MultiStratifiedSampler::MultiStratifiedSampler(size_t num_dimensions,
                                               size_t k, uint64_t seed)
    : num_dimensions_(num_dimensions), k_(k), rng_(seed) {
  ATS_CHECK(num_dimensions >= 1);
  ATS_CHECK(k >= 1);
}

bool MultiStratifiedSampler::Add(uint64_t key, const StrataKeys& strata,
                                 double value) {
  ATS_CHECK(strata.size() == num_dimensions_);
  ATS_CHECK(!items_.contains(key));
  const double priority = rng_.NextDoubleOpenZero();
  auto [it, inserted] =
      items_.emplace(key, ItemData{value, priority, strata, 0});
  ATS_CHECK(inserted);
  for (size_t d = 0; d < num_dimensions_; ++d) {
    OfferToStratum({d, strata[d]}, priority, key);
  }
  if (it->second.memberships == 0) {
    items_.erase(it);
    return false;
  }
  return true;
}

void MultiStratifiedSampler::OfferToStratum(const StratumId& id,
                                            double priority, uint64_t key) {
  auto [sit, created] = strata_.try_emplace(id);
  Stratum& s = sit->second;
  if (created) s.capacity = k_;
  if (priority >= s.threshold) return;
  if (s.members.size() < s.capacity) {
    s.members.emplace(priority, key);
    ++items_.at(key).memberships;
    return;
  }
  if (s.capacity == 0) return;
  const auto top = std::prev(s.members.end());
  if (priority >= top->first) {
    // New (capacity+1)-th smallest: becomes the stratum threshold.
    s.threshold = std::min(s.threshold, priority);
    return;
  }
  s.members.emplace(priority, key);
  ++items_.at(key).memberships;
  EvictTop(s);
}

void MultiStratifiedSampler::EvictTop(Stratum& stratum) {
  ATS_CHECK(!stratum.members.empty());
  const auto top = std::prev(stratum.members.end());
  const auto [priority, key] = *top;
  stratum.threshold = std::min(stratum.threshold, priority);
  stratum.members.erase(top);
  ItemData& item = items_.at(key);
  if (--item.memberships == 0) items_.erase(key);
}

void MultiStratifiedSampler::ShrinkToBudget(size_t max_items) {
  while (items_.size() > max_items) {
    // Pick the stratum with the most retained members and decrement its
    // threshold to the next smaller priority (= evict its top member).
    Stratum* best = nullptr;
    for (auto& [id, s] : strata_) {
      if (s.members.empty()) continue;
      if (best == nullptr || s.members.size() > best->members.size()) {
        best = &s;
      }
    }
    ATS_CHECK_MSG(best != nullptr, "budget unreachable: no members left");
    if (best->capacity > 0) best->capacity = best->members.size() - 1;
    EvictTop(*best);
  }
}

double MultiStratifiedSampler::StratumThreshold(size_t dimension,
                                                uint64_t stratum) const {
  const auto it = strata_.find({dimension, stratum});
  return it == strata_.end() ? kInfiniteThreshold : it->second.threshold;
}

size_t MultiStratifiedSampler::StratumSize(size_t dimension,
                                           uint64_t stratum) const {
  const auto it = strata_.find({dimension, stratum});
  return it == strata_.end() ? 0 : it->second.members.size();
}

std::vector<SampleEntry> MultiStratifiedSampler::Sample() const {
  std::vector<SampleEntry> out;
  out.reserve(items_.size());
  for (const auto& [key, item] : items_) {
    double threshold = 0.0;
    for (size_t d = 0; d < num_dimensions_; ++d) {
      threshold = std::max(
          threshold, StratumThreshold(d, item.strata[d]));
    }
    out.push_back(MakeUniformEntry(key, item.value, item.priority, threshold));
  }
  return out;
}

void MultiStratifiedSampler::Merge(const MultiStratifiedSampler& other) {
  if (&other == this) return;
  ATS_CHECK(other.num_dimensions_ == num_dimensions_);
  ATS_CHECK(other.k_ == k_);
  // 1) Compose strata: items lost above either side's threshold are
  // unknowable, so the merged bound is the min; likewise the budget
  // rule's capacity only ever shrinks, so the min capacity governs.
  for (const auto& [id, s] : other.strata_) {
    auto [sit, created] = strata_.try_emplace(id);
    Stratum& mine = sit->second;
    if (created) mine.capacity = k_;
    mine.threshold = std::min(mine.threshold, s.threshold);
    mine.capacity = std::min(mine.capacity, s.capacity);
  }
  // 2) The union of the retained items, ascending by priority (keys
  // break exact ties deterministically).
  std::vector<std::pair<double, uint64_t>> order;
  order.reserve(items_.size() + other.items_.size());
  for (const auto& [key, item] : items_) {
    order.emplace_back(item.priority, key);
  }
  for (const auto& [key, item] : other.items_) {
    ATS_CHECK_MSG(!items_.contains(key),
                  "Merge requires key-disjoint streams");
    order.emplace_back(item.priority, key);
    items_.emplace(key, item);
  }
  std::sort(order.begin(), order.end());
  // 3) Rebuild every membership under the composed bounds: clear the
  // member sets and re-offer ascending. Ascending order means a full
  // stratum only ever lowers its threshold (EvictTop never fires), which
  // is exactly the bottom-capacity of the union below the composed bound.
  for (auto& [id, s] : strata_) s.members.clear();
  for (auto& [key, item] : items_) item.memberships = 0;
  for (const auto& [priority, key] : order) {
    const StrataKeys& strata = items_.at(key).strata;
    for (size_t d = 0; d < num_dimensions_; ++d) {
      OfferToStratum({d, strata[d]}, priority, key);
    }
  }
  // 4) Items that landed in no stratum are not retained.
  for (auto it = items_.begin(); it != items_.end();) {
    it = it->second.memberships == 0 ? items_.erase(it) : std::next(it);
  }
}

void MultiStratifiedSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kStratifiedMagic, kStratifiedVersion);
  w.WriteU64(num_dimensions_);
  w.WriteU64(k_);
  WriteRngState(w, rng_.State());
  w.WriteU64(strata_.size());
  for (const auto& [id, s] : strata_) {  // std::map: ascending (dim, key)
    w.WriteU64(id.first);
    w.WriteU64(id.second);
    w.WriteDouble(s.threshold);
    w.WriteU64(s.capacity);
    w.WriteU64(s.members.size());
  }
  std::vector<uint64_t> keys;
  keys.reserve(items_.size());
  for (const auto& [key, item] : items_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());  // canonical item order
  w.WriteU64(keys.size());
  for (uint64_t key : keys) {
    const ItemData& item = items_.at(key);
    w.WriteU64(key);
    w.WriteDouble(item.value);
    w.WriteDouble(item.priority);
    for (uint64_t stratum_key : item.strata) w.WriteU64(stratum_key);
  }
}

std::optional<MultiStratifiedSampler::FrameView>
MultiStratifiedSampler::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kStratifiedMagic, kStratifiedVersion)) {
    return std::nullopt;
  }
  const auto num_dimensions = r.ReadU64();
  const auto k = r.ReadU64();
  if (!num_dimensions || !k) return std::nullopt;
  // The dimension bound keeps the item stride (24 + 8 * dimensions bytes)
  // from overflowing; no genuine sampler comes near it.
  if (*num_dimensions < 1 || *num_dimensions > (uint64_t{1} << 32) ||
      *k < 1) {
    return std::nullopt;
  }
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  FrameView view;
  view.num_dimensions_ = static_cast<size_t>(*num_dimensions);
  view.k_ = static_cast<size_t>(*k);
  view.rng_state_ = *rng_state;
  const auto num_strata = r.ReadU64();
  if (!num_strata) return std::nullopt;
  const auto strata = r.ReadRegion(*num_strata, FrameView::kStratumStride);
  if (!strata) return std::nullopt;
  view.strata_ = *strata;
  const auto num_items = r.ReadU64();
  if (!num_items) return std::nullopt;
  const auto items = r.ReadRegion(*num_items, view.item_stride());
  if (!items) return std::nullopt;
  view.items_ = *items;
  // Stratum table: strictly ascending (dimension, stratum key), every
  // dimension in range, thresholds in (0, 1] or +infinity (priorities
  // are NextDoubleOpenZero draws), capacity within the initial k,
  // member count within the capacity.
  const auto stratum_id = [&view](size_t i) {
    return std::make_pair(view.stratum_dimension(i), view.stratum_key(i));
  };
  for (size_t i = 0; i < view.num_strata(); ++i) {
    if (view.stratum_dimension(i) >= view.num_dimensions_) {
      return std::nullopt;
    }
    if (i > 0 && !(stratum_id(i - 1) < stratum_id(i))) return std::nullopt;
    const double t = view.stratum_threshold(i);
    if (!(t > 0.0) || (t > 1.0 && t != kInfiniteThreshold)) {
      return std::nullopt;
    }
    if (view.stratum_capacity(i) > view.k_ ||
        view.stratum_member_count(i) > view.stratum_capacity(i)) {
      return std::nullopt;
    }
  }
  // Item table: strictly ascending keys, finite values, priorities in
  // (0, 1], every stratum reference resolving to a table entry. The
  // membership reconstruction (priority strictly below the stratum
  // threshold) must hit every serialized member count exactly, and every
  // item must be a member somewhere -- otherwise it would not be
  // retained.
  std::vector<uint64_t> counted(view.num_strata(), 0);
  const auto strata_indices = std::views::iota(size_t{0}, view.num_strata());
  const auto find_stratum = [&](size_t dimension,
                                uint64_t key) -> std::optional<size_t> {
    const auto target = std::make_pair(dimension, key);
    const auto it = std::ranges::partition_point(
        strata_indices, [&](size_t i) { return stratum_id(i) < target; });
    if (it == strata_indices.end() || stratum_id(*it) != target) {
      return std::nullopt;
    }
    return *it;
  };
  for (size_t i = 0; i < view.num_items(); ++i) {
    if (i > 0 && view.item_key(i) <= view.item_key(i - 1)) {
      return std::nullopt;
    }
    if (!std::isfinite(view.item_value(i))) return std::nullopt;
    const double p = view.item_priority(i);
    if (!(p > 0.0) || p > 1.0) return std::nullopt;
    bool member_somewhere = false;
    for (size_t d = 0; d < view.num_dimensions_; ++d) {
      const auto s = find_stratum(d, view.item_stratum(i, d));
      if (!s) return std::nullopt;
      if (p < view.stratum_threshold(*s)) {
        ++counted[*s];
        member_somewhere = true;
      }
    }
    if (!member_somewhere) return std::nullopt;
  }
  for (size_t i = 0; i < view.num_strata(); ++i) {
    if (counted[i] != view.stratum_member_count(i)) return std::nullopt;
  }
  return view;
}

MultiStratifiedSampler MultiStratifiedSampler::FromValidatedView(
    const FrameView& view) {
  MultiStratifiedSampler sampler(view.num_dimensions(), view.k(),
                                 /*seed=*/1);
  sampler.rng_.SetState(view.rng_state_);
  for (size_t i = 0; i < view.num_strata(); ++i) {
    Stratum s;
    s.threshold = view.stratum_threshold(i);
    s.capacity = view.stratum_capacity(i);
    sampler.strata_.emplace(
        StratumId{view.stratum_dimension(i), view.stratum_key(i)},
        std::move(s));
  }
  for (size_t i = 0; i < view.num_items(); ++i) {
    ItemData item;
    item.value = view.item_value(i);
    item.priority = view.item_priority(i);
    item.strata.reserve(view.num_dimensions());
    for (size_t d = 0; d < view.num_dimensions(); ++d) {
      item.strata.push_back(view.item_stratum(i, d));
    }
    const uint64_t key = view.item_key(i);
    // Rebuild memberships by the wire rule the view already validated.
    for (size_t d = 0; d < view.num_dimensions(); ++d) {
      Stratum& s = sampler.strata_.at({d, item.strata[d]});
      if (item.priority < s.threshold) {
        s.members.emplace(item.priority, key);
        ++item.memberships;
      }
    }
    sampler.items_.emplace(key, std::move(item));
  }
  return sampler;
}

std::optional<MultiStratifiedSampler> MultiStratifiedSampler::Deserialize(
    ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  return FromValidatedView(*view);
}

FrameFault MultiStratifiedSampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<MultiStratifiedSampler>(
      frame, kStratifiedMagic, kStratifiedVersion);
}

bool MultiStratifiedSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  // Vet every frame before the first one is applied (all-or-nothing),
  // then apply as the literal Merge() chain in span order.
  const auto views = VetFrames<MultiStratifiedSampler>(
      frames, [this](const FrameView& v) {
        return v.num_dimensions() == num_dimensions_ && v.k() == k_;
      });
  if (!views) return false;
  for (const FrameView& v : *views) Merge(FromValidatedView(v));
  return true;
}

}  // namespace ats
