#include "ats/samplers/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "ats/util/check.h"

namespace {

constexpr uint32_t kWindowMagic = 0x53574e31;  // "SWN1"
constexpr uint32_t kWindowVersion = 1;

// Field offsets inside one 32-byte wire entry (id, time, priority,
// threshold; see docs/WIRE_FORMAT.md).
constexpr size_t kEntryTimeOffset = 8;
constexpr size_t kEntryPriorityOffset = 16;
constexpr size_t kEntryThresholdOffset = 24;

double ReadEntryDouble(std::string_view entries, size_t offset) {
  double v;
  std::memcpy(&v, entries.data() + offset, sizeof(v));
  return v;
}

}  // namespace

namespace ats {

SlidingWindowSampler::SlidingWindowSampler(size_t k, double window,
                                           uint64_t seed)
    : k_(k),
      window_(window),
      rng_(seed),
      // Uniform priorities live in (0, 1]; the store bound stays at 1.0
      // forever because eviction is manual (see Arrive). The store is
      // sized at TWICE the sampler's k: it holds at most k live plus k
      // dead-prefix entries (see ExpireUntil), and the store's own
      // priority-ordered compaction -- which fires whenever a
      // canonicalizing accessor sees more than its k entries -- must
      // never run on windowed state (it would evict by priority, not by
      // time).
      current_(2 * k, 1.0),
      last_time_(-std::numeric_limits<double>::infinity()) {
  ATS_CHECK(k >= 1);
  ATS_CHECK(window > 0.0);
}

void SlidingWindowSampler::CleanupDeadPrefix() {
  if (dead_prefix_ == 0) return;
  // The dead entries are a physical prefix, in time order, and OLDER
  // than everything already in expired_ was when it was copied -- so the
  // bulk copy appends in time order, and the reclamation is two ranged
  // erases (memmoves), not a per-element filter pass. Batching the
  // copy here (instead of copying item-by-item as each expires) is what
  // keeps the rate == k boundary at parity with a deque front-pop design
  // (bench_window.cc, BM_WindowArriveBoundary). The dead entries are
  // checked against the cached top two before their positions vanish.
  CheckExpiredTopTwo();
  const auto& payloads = current_.payloads();
  const auto& priorities = current_.priorities();
  expired_.reserve(expired_.size() + dead_prefix_);
  for (size_t i = 0; i < dead_prefix_; ++i) {
    expired_.push_back(StoredItem{payloads[i].id, payloads[i].time,
                                  priorities[i], payloads[i].threshold});
  }
  current_.Erase(0, dead_prefix_);
  dead_prefix_ = 0;
  if (top_checked_ != kNoTopTwo) top_checked_ = 0;
}

void SlidingWindowSampler::FlushExpiry(double now) {
  ExpireUntil(now);
  CleanupDeadPrefix();
  // Entries that aged past two windows while parked in the dead prefix
  // reached expired_ only in the extraction above; one more drop scan
  // makes the exposed expired set exact.
  DropExpired();
}

void SlidingWindowSampler::CheckExpiredTopTwo() {
  if (top_checked_ == kNoTopTwo) return;
  const auto& priorities = current_.priorities();
  for (size_t i = top_checked_; i < dead_prefix_; ++i) {
    if (priorities[i] >= top2_) {
      top_checked_ = kNoTopTwo;
      return;
    }
  }
  top_checked_ = dead_prefix_;
}

void SlidingWindowSampler::RescanTopTwo() {
  // The live current set is the column region past the dead prefix.
  top1_ = 0.0;
  top2_ = 0.0;
  const auto& priorities = current_.priorities();
  for (size_t i = dead_prefix_; i < priorities.size(); ++i) {
    NoteTopInsert(priorities[i]);
  }
  top_checked_ = dead_prefix_;
}

bool SlidingWindowSampler::ArriveAtFullSample(double time, double priority,
                                              uint64_t id) {
  // Initial threshold at a full sample: the k-th smallest of the k
  // current priorities together with the new one. With m1 the largest
  // and m2 the second largest current priority, that is m1 if the
  // newcomer is above m1, otherwise max(m2, priority).
  CheckExpiredTopTwo();
  if (top_checked_ == kNoTopTwo) RescanTopTwo();
  const double initial_threshold =
      priority >= top1_ ? top1_ : std::max(top2_, priority);
  if (priority >= initial_threshold) return false;

  // The insertion will push |C| above k: lower every current threshold
  // to min(T_i, T_n) and evict the (first) largest-priority item -- its
  // priority is >= the new threshold. One pass does both and also
  // tracks the second and third largest priorities, which are the top
  // two once the evictee is gone. It runs on the physically clean store
  // (evictions are O(k) anyway, so the deferred prefix cleanup rides
  // along) and BEFORE the store sees the newcomer, so the store never
  // exceeds k entries here and its own compaction stays idle.
  CleanupDeadPrefix();
  size_t index = 0;
  size_t evict = 0;
  double m1 = 0.0, m2 = 0.0, m3 = 0.0;
  current_.ForEachMutablePayload([&](double p, WindowItem& item) {
    item.threshold = std::min(item.threshold, initial_threshold);
    if (p > m1) {
      m3 = m2;
      m2 = m1;
      m1 = p;
      evict = index;
    } else if (p > m2) {
      m3 = m2;
      m2 = p;
    } else if (p > m3) {
      m3 = p;
    }
    ++index;
  });
  ATS_DCHECK(m1 >= initial_threshold);
  current_.Erase(evict, 1);
  top1_ = m2;
  top2_ = m3;
  top_checked_ = 0;
  current_.Offer(priority, WindowItem{id, time, initial_threshold});
  NoteTopInsert(priority);
  return true;
}

SlidingWindowSampler::StoredItem SlidingWindowSampler::ItemAt(
    size_t i) const {
  const WindowItem& item = current_.payloads()[i];
  return StoredItem{item.id, item.time, current_.priorities()[i],
                    item.threshold};
}

double SlidingWindowSampler::GlThreshold(double now) {
  FlushExpiry(now);
  const auto expired = ExpiredItems();
  std::vector<double> priorities;
  priorities.reserve(current_.size() + expired.size());
  priorities.assign(current_.priorities().begin(),
                    current_.priorities().end());
  for (const StoredItem& it : expired) priorities.push_back(it.priority);
  if (priorities.size() < k_) return 1.0;
  std::nth_element(priorities.begin(),
                   priorities.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
                   priorities.end());
  return priorities[k_ - 1];
}

double SlidingWindowSampler::CurrentMinThreshold() const {
  double t = 1.0;
  const auto& payloads = current_.payloads();
  for (size_t i = dead_prefix_; i < payloads.size(); ++i) {
    t = std::min(t, payloads[i].threshold);
  }
  return t;
}

double SlidingWindowSampler::ImprovedThreshold(double now) {
  FlushExpiry(now);
  return CurrentMinThreshold();
}

std::vector<SampleEntry> SlidingWindowSampler::SampleWithThreshold(
    double threshold) const {
  std::vector<SampleEntry> out;
  const auto& priorities = current_.priorities();
  const auto& payloads = current_.payloads();
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (priorities[i] < threshold) {
      out.push_back(MakeUniformEntry(payloads[i].id, 1.0, priorities[i],
                                     threshold));
    }
  }
  return out;
}

std::vector<SampleEntry> SlidingWindowSampler::GlSample(double now) {
  return SampleWithThreshold(GlThreshold(now));
}

std::vector<SampleEntry> SlidingWindowSampler::ImprovedSample(double now) {
  return SampleWithThreshold(ImprovedThreshold(now));
}

size_t SlidingWindowSampler::StoredCount(double now) {
  FlushExpiry(now);
  return current_.size() + ExpiredItems().size();
}

std::vector<SlidingWindowSampler::StoredItem>
SlidingWindowSampler::CurrentItems(double now) {
  FlushExpiry(now);
  std::vector<StoredItem> out;
  out.reserve(current_.size());
  for (size_t i = 0; i < current_.size(); ++i) {
    out.push_back(ItemAt(i));
  }
  return out;
}

// --- Merging ----------------------------------------------------------

SlidingWindowSampler::WindowSnapshot SlidingWindowSampler::SnapshotAt(
    double now) const {
  WindowSnapshot snap;
  const double cut_window = now - window_;
  const double cut_drop = now - 2.0 * window_;
  // Expired items are older than any dead-prefix or lazily-expiring
  // current item, so the append order expired_, dead prefix, current
  // spill-over keeps time order.
  for (const StoredItem& it : ExpiredItems()) {
    if (it.time > cut_drop && it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  // Dead-prefix entries are logically expired items not yet copied into
  // expired_ (see ExpireUntil); they belong to the expired region.
  for (size_t i = 0; i < dead_prefix_; ++i) {
    const StoredItem it = ItemAt(i);
    if (it.time > cut_drop && it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  for (size_t i = dead_prefix_; i < current_.size(); ++i) {
    const StoredItem it = ItemAt(i);
    if (it.time <= cut_drop) continue;
    (it.time <= cut_window ? snap.expired : snap.current).push_back(it);
  }
  return snap;
}

SlidingWindowSampler::WindowSnapshot SlidingWindowSampler::SnapshotOfView(
    const FrameView& view, double now) {
  WindowSnapshot snap;
  const double cut_window = now - view.window();
  const double cut_drop = now - 2.0 * view.window();
  for (size_t i = view.current_count();
       i < view.current_count() + view.expired_count(); ++i) {
    const StoredItem it = view.entry(i);
    if (it.time > cut_drop && it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  for (size_t i = 0; i < view.current_count(); ++i) {
    const StoredItem it = view.entry(i);
    if (it.time <= cut_drop) continue;
    (it.time <= cut_window ? snap.expired : snap.current).push_back(it);
  }
  return snap;
}

void SlidingWindowSampler::MergeOneSnapshot(WindowSnapshot snap,
                                            double now) {
  FlushExpiry(now);
  ++aux_epoch_;
  // Min threshold composition (Theorem 9): the common bound is the min
  // of both sides' improved thresholds at the merge instant.
  double bound = CurrentMinThreshold();
  for (const StoredItem& it : snap.current) {
    bound = std::min(bound, it.threshold);
  }
  // Candidates: the time-sorted union of the current sets, self first
  // for equal times (stable), matching the accumulation order of every
  // earlier merge so priority ties resolve deterministically.
  std::vector<StoredItem> candidates;
  candidates.reserve(current_.size());
  for (size_t i = 0; i < current_.size(); ++i) {
    candidates.push_back(ItemAt(i));
  }
  candidates.insert(candidates.end(), snap.current.begin(),
                    snap.current.end());
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const StoredItem& a, const StoredItem& b) {
                     return a.time < b.time;
                   });
  std::erase_if(candidates, [bound](const StoredItem& it) {
    return it.priority >= bound;
  });
  // Re-cap at k with the usual bottom-k selection (ties at the pivot
  // kept first-arrived-first, mirroring the store's compaction).
  double t_final = bound;
  if (candidates.size() > k_) {
    std::vector<double> scratch;
    scratch.reserve(candidates.size());
    for (const StoredItem& it : candidates) scratch.push_back(it.priority);
    const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(k_);
    std::nth_element(scratch.begin(), nth, scratch.end());
    const double pivot = *nth;
    t_final = std::min(bound, pivot);
    size_t below = 0;
    for (const StoredItem& it : candidates) below += it.priority < pivot;
    size_t ties_needed = k_ - below;
    std::vector<StoredItem> kept;
    kept.reserve(k_);
    for (const StoredItem& it : candidates) {
      if (it.priority < pivot) {
        kept.push_back(it);
      } else if (it.priority == pivot && ties_needed > 0) {
        --ties_needed;
        kept.push_back(it);
      }
    }
    candidates = std::move(kept);
  }
  // Min-compose the per-item thresholds with the final bound. The
  // improved threshold (min over items) already equals t_final, so this
  // changes no query result; it keeps per-item state consistent with
  // what a single sampler's eviction chain records.
  for (StoredItem& it : candidates) {
    it.threshold = std::min(it.threshold, t_final);
  }
  // Rebuild the current store (time order preserved by construction);
  // the cached top two describe the old live set.
  current_.Erase(0, current_.size());
  top_checked_ = kNoTopTwo;
  for (const StoredItem& it : candidates) {
    current_.Offer(it.priority, WindowItem{it.id, it.time, it.threshold});
  }
  // Union the expired sets in time order; they feed the G&L threshold of
  // the merged sampler. Self expiry at `now` already trimmed both sides
  // (the snapshot was filtered at `now`).
  const auto expired_live = ExpiredItems();
  std::vector<StoredItem> merged_expired(expired_live.begin(),
                                         expired_live.end());
  merged_expired.insert(merged_expired.end(), snap.expired.begin(),
                        snap.expired.end());
  std::stable_sort(merged_expired.begin(), merged_expired.end(),
                   [](const StoredItem& a, const StoredItem& b) {
                     return a.time < b.time;
                   });
  expired_ = std::move(merged_expired);
  expired_head_ = 0;
}

void SlidingWindowSampler::MergeMany(
    std::span<const SlidingWindowSampler* const> inputs) {
  // The windowed merge is inherently clock-sensitive: improved
  // thresholds RECOVER as old constraints expire, so there is no
  // clock-free global bound to hoist the way SampleStore::MergeMany
  // does. K-way aggregation is therefore DEFINED as the pairwise chain
  // in span order -- one shared snapshot/selection core per input, each
  // step at the ratcheting clock max -- and the differential test pins
  // MergeMany to the explicit Merge chain bit-for-bit. Inputs aliasing
  // `this` are skipped; with no real inputs this is a strict no-op
  // (expiry must not advance, ties at thresholds must survive).
  for (const SlidingWindowSampler* in : inputs) {
    if (in == this) continue;
    ATS_CHECK(in->window_ == window_);
    const double now = std::max(last_time_, in->last_time_);
    MergeOneSnapshot(in->SnapshotAt(now), now);
  }
}

void SlidingWindowSampler::Merge(const SlidingWindowSampler& other) {
  const SlidingWindowSampler* input = &other;
  MergeMany(std::span<const SlidingWindowSampler* const>(&input, 1));
}

// --- Wire format ------------------------------------------------------

void SlidingWindowSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kWindowMagic, kWindowVersion);
  w.WriteU64(k_);
  w.WriteDouble(window_);
  w.WriteDouble(last_time_);
  WriteRngState(w, rng_.State());
  // The live current region starts past the dead prefix (those entries
  // travel in the expired region below). Serialization is const -- it
  // cannot flush the lazily-marked state -- so the expired region is the
  // live expired_ range plus the uncopied dead prefix, each filtered at
  // the two-window drop cutoff (entries can age past it while parked;
  // the reader's per-entry range validation rejects them otherwise).
  const double drop_cut = last_time_ - 2.0 * window_;
  const auto expired_live = ExpiredItems();
  size_t skip_expired = 0;
  while (skip_expired < expired_live.size() &&
         expired_live[skip_expired].time <= drop_cut) {
    ++skip_expired;
  }
  const auto& payloads = current_.payloads();
  size_t skip_dead = 0;
  while (skip_dead < dead_prefix_ &&
         payloads[skip_dead].time <= drop_cut) {
    ++skip_dead;
  }
  w.WriteU64(current_.size() - dead_prefix_);
  w.WriteU64((expired_live.size() - skip_expired) +
             (dead_prefix_ - skip_dead));
  const auto write_entry = [&w](const StoredItem& it) {
    w.WriteU64(it.id);
    w.WriteDouble(it.time);
    w.WriteDouble(it.priority);
    w.WriteDouble(it.threshold);
  };
  for (size_t i = dead_prefix_; i < current_.size(); ++i) {
    write_entry(ItemAt(i));
  }
  // Expired region in time order: expired_ entries predate everything
  // still parked in the dead prefix.
  for (size_t i = skip_expired; i < expired_live.size(); ++i) {
    write_entry(expired_live[i]);
  }
  for (size_t i = skip_dead; i < dead_prefix_; ++i) {
    write_entry(ItemAt(i));
  }
}

namespace {

// Per-entry validation inside SlidingWindowSampler::ViewBody. The
// sampler's invariants are tight enough to check field-by-field:
// priorities are open-unit-interval draws below a threshold in (0, 1];
// priority == threshold ties are legal storage (the item whose priority
// became an eviction bound stays stored; see docs/WIRE_FORMAT.md).
// Entries must sit inside their region's time range and arrive in
// non-decreasing time order. NaNs fail the comparisons by construction.
bool ValidWindowEntry(const SlidingWindowSampler::StoredItem& it,
                      double region_min, double region_max,
                      double prev_time) {
  if (!(it.priority > 0.0) || !(it.priority < 1.0)) return false;
  if (!(it.threshold > 0.0) || !(it.threshold <= 1.0)) return false;
  if (!(it.priority <= it.threshold)) return false;
  if (!(it.time > region_min) || !(it.time <= region_max)) return false;
  if (!(it.time >= prev_time)) return false;
  return true;
}

}  // namespace

SlidingWindowSampler::StoredItem SlidingWindowSampler::FrameView::entry(
    size_t i) const {
  ATS_DCHECK(i < current_count_ + expired_count_);
  const std::string_view e = entries_.substr(i * kStride, kStride);
  StoredItem it;
  uint64_t id;
  std::memcpy(&id, e.data(), sizeof(id));
  it.id = id;
  it.time = ReadEntryDouble(e, kEntryTimeOffset);
  it.priority = ReadEntryDouble(e, kEntryPriorityOffset);
  it.threshold = ReadEntryDouble(e, kEntryThresholdOffset);
  return it;
}

std::optional<SlidingWindowSampler::FrameView>
SlidingWindowSampler::ViewBody(ByteReader& r) {
  if (!ReadSketchHeader(r, kWindowMagic, kWindowVersion)) {
    return std::nullopt;
  }
  const auto k = r.ReadU64();
  const auto window = r.ReadDouble();
  const auto last_time = r.ReadDouble();
  if (!k || !window || !last_time) return std::nullopt;
  if (*k < 1 || !(*window > 0.0) || !std::isfinite(*window)) {
    return std::nullopt;
  }
  // last_time may be -infinity (a sampler that never saw an arrival),
  // never NaN or +infinity.
  if (std::isnan(*last_time) ||
      *last_time == std::numeric_limits<double>::infinity()) {
    return std::nullopt;
  }
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  const auto current_count = r.ReadU64();
  const auto expired_count = r.ReadU64();
  if (!current_count || !expired_count) return std::nullopt;
  if (*current_count > *k) return std::nullopt;
  // Two adjacent fixed-stride regions, current then expired.
  const auto current = r.ReadRegion(*current_count, FrameView::kStride);
  if (!current) return std::nullopt;
  const auto expired = r.ReadRegion(*expired_count, FrameView::kStride);
  if (!expired) return std::nullopt;
  FrameView view;
  view.k_ = *k;
  view.window_ = *window;
  view.last_time_ = *last_time;
  view.rng_state_ = *rng_state;
  view.current_count_ = static_cast<size_t>(*current_count);
  view.expired_count_ = static_cast<size_t>(*expired_count);
  view.entries_ =
      std::string_view(current->data(), current->size() + expired->size());
  double prev = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < view.current_count_; ++i) {
    const StoredItem it = view.entry(i);
    if (!ValidWindowEntry(it, *last_time - *window, *last_time, prev)) {
      return std::nullopt;
    }
    prev = it.time;
  }
  prev = -std::numeric_limits<double>::infinity();
  for (size_t i = view.current_count_;
       i < view.current_count_ + view.expired_count_; ++i) {
    const StoredItem it = view.entry(i);
    if (!ValidWindowEntry(it, *last_time - 2.0 * *window,
                          *last_time - *window, prev)) {
      return std::nullopt;
    }
    prev = it.time;
  }
  return view;
}

std::optional<SlidingWindowSampler> SlidingWindowSampler::Deserialize(
    ByteReader& r) {
  const auto view = ViewBody(r);
  if (!view) return std::nullopt;
  SlidingWindowSampler out(view->k(), view->window(), /*seed=*/1);
  out.rng_.SetState(view->rng_state_);
  out.last_time_ = view->last_time();
  const size_t current = view->current_count();
  for (size_t i = 0; i < current; ++i) {
    const StoredItem it = view->entry(i);
    out.current_.Offer(it.priority, WindowItem{it.id, it.time, it.threshold});
  }
  for (size_t i = current; i < current + view->expired_count(); ++i) {
    out.expired_.push_back(view->entry(i));
  }
  return out;
}

FrameFault SlidingWindowSampler::DiagnoseFrame(std::string_view frame) {
  return DiagnoseSketchFrame<SlidingWindowSampler>(frame, kWindowMagic,
                                                   kWindowVersion);
}

bool SlidingWindowSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  // Validate every frame before the first one is applied; a window
  // mismatch is as fatal as a parse failure (merging different window
  // lengths has no defined semantics).
  std::vector<FrameView> views;
  views.reserve(frames.size());
  for (std::string_view f : frames) {
    auto view = DeserializeView(f);
    if (!view || view->window() != window_) return false;
    views.push_back(*view);
  }
  // Fold the validated views through the pairwise core in span order --
  // observationally identical to Deserialize + Merge per frame, without
  // materializing a sampler per frame. An empty list is a strict no-op.
  for (const FrameView& v : views) {
    const double now = std::max(last_time_, v.last_time());
    MergeOneSnapshot(SnapshotOfView(v, now), now);
  }
  return true;
}

}  // namespace ats
