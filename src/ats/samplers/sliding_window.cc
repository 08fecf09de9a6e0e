#include "ats/samplers/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <ranges>

#include "ats/util/check.h"

namespace {

constexpr uint32_t kWindowMagic = 0x53574e31;  // "SWN1"
constexpr uint32_t kWindowVersion = 2;

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
      last_time_(-std::numeric_limits<double>::infinity()) {
  ATS_CHECK(k >= 1);
  ATS_CHECK(window > 0.0);
}

void SlidingWindowSampler::EraseDropped() {
  // No log entry sits before boundary_, so each shifts with its items.
  ATS_DCHECK(log_.empty() || log_.front().position >= boundary_);
  items_.erase(items_.begin(),
               items_.begin() + static_cast<std::ptrdiff_t>(head_));
  boundary_ -= head_;
  const auto shift = static_cast<uint32_t>(head_);
  for (LoggedAccept& e : log_) e.position -= shift;
  heap_.clear();
  head_ = 0;
}

void SlidingWindowSampler::ExpireLogged(double cutoff) {
  LogCursor log(log_);
  do {
    StoredItem& item = items_[boundary_];
    item.threshold = log.Threshold(item, boundary_);
    ++boundary_;
  } while (boundary_ < items_.size() && items_[boundary_].time <= cutoff);
  size_t trimmed = 0;
  while (trimmed < log_.size() && log_[trimmed].position <= boundary_) {
    ++trimmed;
  }
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(trimmed));
}

void SlidingWindowSampler::Settle() {
  if (!log_.empty()) {
    LogCursor log(log_);
    for (size_t i = boundary_; i < items_.size(); ++i) {
      items_[i].threshold = log.Threshold(items_[i], i);
    }
    log_.clear();
  }
  heap_.clear();
}

size_t SlidingWindowSampler::LargerChild(size_t left) const {
  // Branch-free: which child is larger is a coin flip.
  const size_t right = left + 1;
  return left + (right < heap_.size() && Above(heap_[right], heap_[left]));
}

void SlidingWindowSampler::PushHeap(size_t position) {
  ATS_DCHECK(position <= UINT32_MAX);
  heap_.push_back(static_cast<uint32_t>(position));
  RiseInto(heap_.size() - 1, heap_.back(), 0);
}

void SlidingWindowSampler::RiseInto(size_t hole, uint32_t entry,
                                    size_t top) {
  while (hole > top) {
    const size_t parent = (hole - 1) / 2;
    if (!Above(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void SlidingWindowSampler::BuildHeap() {
  ATS_DCHECK(items_.size() <= UINT32_MAX);
  heap_.resize(items_.size() - boundary_);
  for (size_t i = 0; i < heap_.size(); ++i) {
    heap_[i] = static_cast<uint32_t>(boundary_ + i);
  }
  for (size_t slot = heap_.size() / 2; slot-- > 0;) {
    SinkInto(slot, heap_[slot]);
  }
}

void SlidingWindowSampler::SinkInto(size_t slot, uint32_t entry) {
  // Floyd's descent: the hole at `slot` moves down to a leaf along the
  // larger children, then `entry` rises from there, but not past
  // `slot`.
  size_t hole = slot;
  for (size_t left = 2 * hole + 1; left < heap_.size(); left = 2 * hole + 1) {
    const size_t child = LargerChild(left);
    heap_[hole] = heap_[child];
    hole = child;
  }
  RiseInto(hole, entry, slot);
}

void SlidingWindowSampler::RemoveHeapSlot(size_t slot) {
  ATS_DCHECK(slot <= 2);
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (slot < heap_.size()) SinkInto(slot, last);
}

void SlidingWindowSampler::DropExpiredTop() {
  while (!heap_.empty() && heap_[0] < boundary_) RemoveHeapSlot(0);
}

double SlidingWindowSampler::HeapSecond() {
  for (size_t slot = 1; slot <= 2 && slot < heap_.size();) {
    if (heap_[slot] < boundary_) {
      RemoveHeapSlot(slot);  // the slot's new entry is checked next
    } else {
      ++slot;
    }
  }
  double second = 0.0;
  for (size_t slot = 1; slot <= 2 && slot < heap_.size(); ++slot) {
    second = std::max(second, items_[heap_[slot]].priority);
  }
  return second;
}

bool SlidingWindowSampler::ArriveAtFullSample(double time, double priority,
                                              uint64_t id) {
  // Initial threshold at a full sample: the k-th smallest of the k
  // current priorities together with the new one. With m1 the largest
  // and m2 the second largest current priority, that is m1 if the
  // newcomer is above m1, otherwise max(m2, priority) -- so the newcomer
  // is stored iff priority < m2, and then T_n = m2.
  //
  // The heap holds every current item, so m1 is its root and m2 the
  // larger root child once expired entries have left the top. It is
  // built on the first full-sample arrival and rebuilt once more than
  // k/2 expired entries have piled up, which bounds it (and the shift
  // below) at 1.5k entries.
  if (heap_.empty() || heap_.size() - (items_.size() - boundary_) > k_ / 2) {
    BuildHeap();
  }
  double second;
  if (heap_.size() >= 3 &&
      std::min({heap_[0], heap_[1], heap_[2]}) >= boundary_) {
    // The common case, a few compares: no expired entry at the top.
    second = std::max(items_[heap_[1]].priority, items_[heap_[2]].priority);
  } else {
    DropExpiredTop();
    second = HeapSecond();
  }
  if (!(priority < second)) return false;
  const double initial_threshold = second;

  // The insertion pushes |C| above k: every current threshold drops to
  // min(T_i, T_n), which the log records, and the (first) largest-
  // priority item -- the heap's root, now current -- is evicted.
  const uint32_t evict = heap_[0];
  ATS_DCHECK(evict >= boundary_);
  items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(evict));
  // Positions past the evictee move down one; order among them holds.
  for (uint32_t& p : heap_) p -= p > evict ? 1 : 0;
  for (LoggedAccept& e : log_) e.position -= e.position > evict ? 1 : 0;

  // The newcomer takes the evictee's root entry and sinks.
  const auto position = static_cast<uint32_t>(items_.size());
  items_.push_back(StoredItem{id, time, priority, initial_threshold});
  SinkInto(0, position);
  while (!log_.empty() && log_.back().threshold >= initial_threshold) {
    log_.pop_back();
  }
  log_.push_back({position, initial_threshold});
  ++epoch_;
  return true;
}

double SlidingWindowSampler::GlThreshold(double now) {
  QueryAt(now);
  if (items_.size() - head_ < k_) return 1.0;
  std::vector<double> priorities;
  priorities.reserve(items_.size() - head_);
  for (size_t i = head_; i < items_.size(); ++i) {
    priorities.push_back(items_[i].priority);
  }
  std::nth_element(priorities.begin(),
                   priorities.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
                   priorities.end());
  return priorities[k_ - 1];
}

double SlidingWindowSampler::CurrentMinThreshold() const {
  double t = 1.0;
  for (size_t i = boundary_; i < items_.size(); ++i) {
    t = std::min(t, items_[i].threshold);
  }
  return t;
}

double SlidingWindowSampler::ImprovedThreshold(double now) {
  QueryAt(now);
  return CurrentMinThreshold();
}

std::vector<SampleEntry> SlidingWindowSampler::SampleWithThreshold(
    double threshold) const {
  std::vector<SampleEntry> out;
  for (size_t i = boundary_; i < items_.size(); ++i) {
    const StoredItem& it = items_[i];
    if (it.priority < threshold) {
      out.push_back(MakeUniformEntry(it.id, 1.0, it.priority, threshold));
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
  QueryAt(now);
  return items_.size() - head_;
}

std::vector<SlidingWindowSampler::StoredItem>
SlidingWindowSampler::CurrentItems(double now) {
  QueryAt(now);
  return std::vector<StoredItem>(
      items_.begin() + static_cast<std::ptrdiff_t>(boundary_), items_.end());
}

// --- Merging ----------------------------------------------------------

namespace {

using StoredItem = SlidingWindowSampler::StoredItem;

// First index in [0, n) whose entry is NOT `before`, for a predicate that
// holds on a prefix (a time cut over a time-ordered region).
template <typename Before>
size_t PartitionPoint(size_t n, Before before) {
  const auto indices = std::views::iota(size_t{0}, n);
  return static_cast<size_t>(std::ranges::partition_point(indices, before) -
                             indices.begin());
}

// Stable time-order merge of [a, a + na) and [b, b + nb) into `out`: on
// equal times a's entries come first. Runs from different shards
// interleave at random, so a branch on the comparison would mispredict
// about every other entry, and one branch-free chain is bound by its
// compare-select latency. Two independent branch-free chains run instead:
// one moves the smallest remaining entry to the front of the output, the
// other the largest to the back. While both sides have entries and at
// least two slots remain, those are distinct entries; a plain forward
// merge finishes the middle.
void MergeTwoByTime(const StoredItem* a, size_t na, const StoredItem* b,
                    size_t nb, StoredItem* out) {
  size_t ia = 0, ja = na, ib = 0, jb = nb;
  StoredItem* front = out;
  StoredItem* back = out + na + nb;
  while (ia < ja && ib < jb && back - front >= 2) {
    const bool front_b = b[ib].time < a[ia].time;
    *front++ = *(front_b ? b + ib : a + ia);
    ib += front_b ? 1 : 0;
    ia += front_b ? 0 : 1;
    const bool back_a = b[jb - 1].time < a[ja - 1].time;
    *--back = *(back_a ? a + (ja - 1) : b + (jb - 1));
    ja -= back_a ? 1 : 0;
    jb -= back_a ? 0 : 1;
  }
  while (ia < ja && ib < jb) {
    const bool front_b = b[ib].time < a[ia].time;
    *front++ = *(front_b ? b + ib : a + ia);
    ib += front_b ? 1 : 0;
    ia += front_b ? 0 : 1;
  }
  front = std::copy(a + ia, a + ja, front);
  std::copy(b + ib, b + jb, front);
}

// A current entry's place in the chain's order: time, then the run
// (step) that contributed it, then its position there.
struct TieKey {
  double time;
  size_t run;
  size_t index;
  friend bool operator<(const TieKey& a, const TieKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.run != b.run) return a.run < b.run;
    return a.index < b.index;
  }
};

// Index of the first entry with time > cut in a fold input's whole
// sequence: its expired region, then its current region.
template <typename Input>
size_t FirstAfter(const Input& in, double cut) {
  const size_t expired = in.expired_size();
  if (expired > 0 && in.expired_time(expired - 1) > cut) {
    return PartitionPoint(
        expired, [&](size_t i) { return in.expired_time(i) <= cut; });
  }
  return expired + PartitionPoint(in.current_size(), [&](size_t i) {
           return in.current_time(i) <= cut;
         });
}

}  // namespace

// The chain this fold computes, one step per input in span order: the
// clock advances to now = max(now, input clock); the accumulator expires
// at now; the input is filtered at now (current: time in (now - w, now];
// expired: time in (now - 2w, now - w]); the two current sets are
// unioned in time order with the accumulator's entries first on equal
// times, filtered below bound = the min of both sides' per-item
// thresholds, re-capped at k by bottom-k (ties at the pivot keep the
// first-arrived entries) and min-composed with the final bound; the
// expired sets are unioned in time order, accumulator first.
//
// The fold reads every input in place: a sampler or frame is one
// time-ordered sequence -- its expired region, then its current region
// -- and its snapshot at now is two binary-searched cuts of it. The
// current part of that snapshot always lies in the current region,
// because the expired region ends at or before the input's clock minus
// one window.
//
// The chain's current set, ordered by (time, step that contributed the
// entry, position in that step's input), is carried as one time-ordered
// run per contributing step, in step order, in one reused buffer. A step
// expires each run's prefix, selects the re-cap pivot by priority alone
// (the order matters only for ties at the pivot, which are resolved by
// that key), filters every run in place and appends the input's
// survivors as a new run. Nothing is merged by time until Finish.
//
// Expired entries are recorded as runs in one pool: a step's
// accumulator expiry (its runs' prefixes merged into one), then the
// input's expired cut. Every run is in time order, and an accumulator
// run is strictly newer than everything recorded before it (those
// entries had already expired at an earlier clock, its entries had
// not), so the chain's expired union is exactly the stable time-order
// merge of the runs in recording order. The clock only rises, so the
// chain's per-step drops at now - 2w are the single drop at the final
// clock. Finish writes the expired union, then the current set, into the
// merged sampler's item vector once.

SlidingWindowSampler::Fold::Fold(SlidingWindowSampler acc)
    : acc_(std::move(acc)), now_(acc_.last_time_) {
  // The accumulator enters the chain as its own time-ordered sequence:
  // its expired items are the first run; its current items, their
  // thresholds settled, are the first carried run, which the first step
  // expires at its clock like any other.
  acc_.Settle();
  const auto& items = acc_.items_;
  const auto boundary = items.begin() +
                        static_cast<std::ptrdiff_t>(acc_.boundary_);
  pool_.assign(items.begin() + static_cast<std::ptrdiff_t>(acc_.head_),
               boundary);
  if (!pool_.empty()) runs_.push_back({0, pool_.size()});
  current_.assign(boundary, items.end());
  if (!current_.empty()) current_runs_.push_back({0, current_.size()});
}

// One chain step. `Input` is SamplerInput or ViewInput.
template <typename Input>
void SlidingWindowSampler::Fold::StepInput(const Input& in) {
  now_ = std::max(now_, in.last_time());
  const double cut_window = now_ - acc_.window_;
  const double cut_drop = now_ - 2.0 * acc_.window_;

  // Accumulator expiry at the step's clock: each carried run loses its
  // prefix up to the window cut; the prefixes, merged, are one run.
  prefixes_.clear();
  for (Run& run : current_runs_) {
    const size_t cut = PartitionPoint(run.end - run.begin, [&](size_t i) {
      return current_[run.begin + i].time <= cut_window;
    });
    prefixes_.push_back({run.begin, run.begin + cut});
    run.begin += cut;
  }
  AddMergedRun(current_.data(), prefixes_);

  // The input's snapshot: [kept, first_current) of its sequence is its
  // expired run, the rest its current entries. (The min only matters
  // for a sampler fed out-of-order times, which breaks its contract.)
  const size_t first_current = FirstAfter(in, cut_window);
  const size_t kept = std::min(FirstAfter(in, cut_drop), first_current);
  const size_t expired_size = in.expired_size();
  ATS_DCHECK(first_current >= expired_size);
  const size_t run_begin = pool_.size();
  for (size_t i = kept; i < first_current; ++i) {
    pool_.push_back(i < expired_size ? in.expired(i)
                                     : in.current(i - expired_size));
  }
  if (pool_.size() > run_begin) runs_.push_back({run_begin, pool_.size()});
  const size_t in_begin = first_current - expired_size;
  const size_t in_end = in.current_size();

  // Min threshold composition (Theorem 9): the common bound, over every
  // carried and incoming entry, whose priorities the same pass gathers.
  scratch_.resize(current_.size() + (in_end - in_begin));
  double bound = 1.0;
  size_t gathered = 0;
  for (const Run& run : current_runs_) {
    for (size_t i = run.begin; i < run.end; ++i) {
      bound = std::min(bound, current_[i].threshold);
      scratch_[gathered++] = current_[i].priority;
    }
  }
  for (size_t j = in_begin; j < in_end; ++j) {
    const StoredItem it = in.current(j);
    bound = std::min(bound, it.threshold);
    scratch_[gathered++] = it.priority;
  }
  // Re-cap at k: the pivot is the (k+1)-th smallest candidate priority
  // below the bound.
  size_t n = 0;
  for (size_t c = 0; c < gathered; ++c) {
    scratch_[n] = scratch_[c];
    n += scratch_[c] < bound ? 1 : 0;
  }
  const size_t k = acc_.k_;
  if (n <= k) {
    Filter(in, in_begin, in_end, bound,
           [bound](const StoredItem& it, const TieKey&) {
             return it.priority < bound;
           });
    return;
  }
  const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(scratch_.begin(), nth,
                   scratch_.begin() + static_cast<std::ptrdiff_t>(n));
  const double pivot = *nth;
  size_t below = 0;
  for (size_t c = 0; c < k; ++c) below += scratch_[c] < pivot ? 1 : 0;
  const size_t ties_needed = k - below;
  if (ties_needed == 0) {
    Filter(in, in_begin, in_end, pivot,
           [pivot](const StoredItem& it, const TieKey&) {
             return it.priority < pivot;
           });
    return;
  }
  // Ties at the pivot (handcrafted or astronomically unlikely draws):
  // keep the first `ties_needed` in the chain's order.
  std::vector<TieKey> ties;
  for (size_t r = 0; r < current_runs_.size(); ++r) {
    for (size_t i = current_runs_[r].begin; i < current_runs_[r].end; ++i) {
      if (current_[i].priority == pivot) {
        ties.push_back({current_[i].time, r, i});
      }
    }
  }
  for (size_t j = in_begin; j < in_end; ++j) {
    const StoredItem it = in.current(j);
    if (it.priority == pivot) {
      ties.push_back({it.time, current_runs_.size(), j});
    }
  }
  std::sort(ties.begin(), ties.end());
  const TieKey last = ties[ties_needed - 1];
  Filter(in, in_begin, in_end, pivot,
         [pivot, last](const StoredItem& it, const TieKey& key) {
           return it.priority < pivot ||
                  (it.priority == pivot && !(last < key));
         });
}

SlidingWindowSampler SlidingWindowSampler::Fold::Finish() && {
  acc_.last_time_ = now_;
  ++acc_.epoch_;
  // The expired union, every run cut at the final drop, then the current
  // set, each merged into time order. The accumulator was settled when
  // the fold opened, so it carries no heap or log.
  const double cut_drop = now_ - 2.0 * acc_.window_;
  size_t expired = 0;
  for (Run& run : runs_) {
    run.begin += PartitionPoint(run.end - run.begin, [&](size_t i) {
      return pool_[run.begin + i].time <= cut_drop;
    });
    expired += run.end - run.begin;
  }
  std::vector<StoredItem>& items = acc_.items_;
  items.resize(expired + current_.size());
  MergeRuns(pool_.data(), runs_, items.data());
  MergeRuns(current_.data(), current_runs_, items.data() + expired);
  acc_.head_ = 0;
  acc_.boundary_ = expired;
  return std::move(acc_);
}

// The inputs: a sampler or a validated frame, as entry and time
// accessors over its expired region, then its current region.
class SlidingWindowSampler::Fold::SamplerInput {
 public:
  explicit SamplerInput(const SlidingWindowSampler& s)
      : last_time_(s.last_time_),
        boundary_(s.boundary_),
        expired_(s.items_.data() + s.head_, s.boundary_ - s.head_),
        current_(s.items_.data() + s.boundary_,
                 s.items_.size() - s.boundary_),
        log_(s.log_) {}
  double last_time() const { return last_time_; }
  size_t expired_size() const { return expired_.size(); }
  size_t current_size() const { return current_.size(); }
  StoredItem expired(size_t i) const { return expired_[i]; }
  double expired_time(size_t i) const { return expired_[i].time; }
  // A current item with its logged accepts applied, also when it is
  // copied into the pool because it expires at the fold's clock. The
  // fold reads the current region in passes of increasing index.
  StoredItem current(size_t i) const {
    StoredItem it = current_[i];
    it.threshold = log_.Threshold(it, boundary_ + i);
    return it;
  }
  double current_time(size_t i) const { return current_[i].time; }

 private:
  double last_time_;
  size_t boundary_;
  std::span<const StoredItem> expired_;
  std::span<const StoredItem> current_;
  mutable LogCursor log_;
};

class SlidingWindowSampler::Fold::ViewInput {
 public:
  explicit ViewInput(const FrameView& v) : view_(v) {}
  double last_time() const { return view_.last_time(); }
  size_t expired_size() const { return view_.expired_count(); }
  size_t current_size() const { return view_.current_count(); }
  StoredItem expired(size_t i) const {
    return view_.entry(view_.current_count() + i);
  }
  double expired_time(size_t i) const {
    return Time(view_.current_count() + i);
  }
  StoredItem current(size_t i) const { return view_.entry(i); }
  double current_time(size_t i) const { return Time(i); }

 private:
  double Time(size_t entry) const {
    return ReadEntryDouble(view_.entries_,
                           entry * FrameView::kStride + kEntryTimeOffset);
  }
  const FrameView& view_;
};

void SlidingWindowSampler::Fold::Step(const SlidingWindowSampler& in) {
  ATS_CHECK(in.window_ == acc_.window_);
  StepInput(SamplerInput(in));
}

void SlidingWindowSampler::Fold::Step(const FrameView& in) {
  ATS_CHECK(in.window() == acc_.window_);
  StepInput(ViewInput(in));
}

// Keeps the carried and incoming current entries that pass `keep`,
// min-composing their thresholds with `t_final`: every carried run is
// filtered in place, and the input's survivors become the last run.
template <typename Input, typename Keep>
void SlidingWindowSampler::Fold::Filter(const Input& in, size_t in_begin,
                                        size_t in_end, double t_final,
                                        Keep keep) {
  const size_t in_run = current_runs_.size();
  size_t w = 0;
  size_t live_runs = 0;
  for (size_t r = 0; r < current_runs_.size(); ++r) {
    const Run run = current_runs_[r];
    const size_t begin = w;
    for (size_t i = run.begin; i < run.end; ++i) {
      StoredItem it = current_[i];
      const bool kept = keep(it, TieKey{it.time, r, i});
      it.threshold = std::min(it.threshold, t_final);
      current_[w] = it;
      w += kept ? 1 : 0;
    }
    if (w > begin) current_runs_[live_runs++] = {begin, w};
  }
  current_runs_.resize(live_runs);
  current_.resize(w + (in_end - in_begin));
  const size_t begin = w;
  for (size_t j = in_begin; j < in_end; ++j) {
    StoredItem it = in.current(j);
    const bool kept = keep(it, TieKey{it.time, in_run, j});
    it.threshold = std::min(it.threshold, t_final);
    current_[w] = it;
    w += kept ? 1 : 0;
  }
  current_.resize(w);
  if (w > begin) current_runs_.push_back({begin, w});
}

// Merges the time-ordered `runs` of `items` into `out` (room for all of
// them), stably: on equal times an earlier run's entries come first.
// Adjacent runs merge pairwise, left run first, in rounds that alternate
// between spare_ and `out`, so that the last lands in `out`.
void SlidingWindowSampler::Fold::MergeRuns(const StoredItem* items,
                                           std::span<const Run> runs,
                                           StoredItem* out) {
  rounds_.clear();
  size_t total = 0;
  for (const Run& run : runs) {
    if (run.begin == run.end) continue;
    rounds_.push_back(run);
    total += run.end - run.begin;
  }
  size_t rounds = 0;
  for (size_t n = rounds_.size(); n > 1; n = (n + 1) / 2) ++rounds;
  if (rounds == 0) {
    if (!rounds_.empty()) std::copy(items + rounds_[0].begin,
                                    items + rounds_[0].end, out);
    return;
  }
  if (spare_.size() < total) spare_.resize(total);
  const StoredItem* from = items;
  for (size_t round = rounds; round > 0; --round) {
    // Odd rounds-to-go write `out`, even ones the spare.
    StoredItem* to = round % 2 == 1 ? out : spare_.data();
    size_t merged = 0;
    size_t at = 0;
    for (size_t r = 0; r < rounds_.size(); r += 2) {
      const Run a = rounds_[r];
      const Run b = r + 1 < rounds_.size() ? rounds_[r + 1]
                                            : Run{a.end, a.end};
      MergeTwoByTime(from + a.begin, a.end - a.begin, from + b.begin,
                     b.end - b.begin, to + at);
      const size_t size = (a.end - a.begin) + (b.end - b.begin);
      rounds_[merged++] = {at, at + size};
      at += size;
    }
    rounds_.resize(merged);
    from = to;
  }
}

void SlidingWindowSampler::Fold::AddMergedRun(const StoredItem* items,
                                              std::span<const Run> runs) {
  size_t size = 0;
  for (const Run& run : runs) size += run.end - run.begin;
  if (size == 0) return;
  const size_t begin = pool_.size();
  pool_.resize(begin + size);
  MergeRuns(items, runs, pool_.data() + begin);
  runs_.push_back({begin, pool_.size()});
}

void SlidingWindowSampler::MergeMany(
    std::span<const SlidingWindowSampler* const> inputs) {
  // Inputs aliasing `this` are skipped; with no real inputs this is a
  // strict no-op (expiry must not advance, ties at thresholds must
  // survive).
  if (std::ranges::all_of(inputs, [this](const SlidingWindowSampler* in) {
        return in == this;
      })) {
    return;
  }
  Fold fold(std::move(*this));
  for (const SlidingWindowSampler* in : inputs) {
    if (in != this) fold.Step(*in);
  }
  *this = std::move(fold).Finish();
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
  // [head_, boundary_) is exactly the expired set at last_time_, and
  // the current region follows it; current thresholds are written with
  // the logged accepts applied.
  w.WriteU64(items_.size() - boundary_);
  w.WriteU64(boundary_ - head_);
  const auto write_entry = [&w](const StoredItem& it) {
    w.WriteU64(it.id);
    w.WriteDouble(it.time);
    w.WriteDouble(it.priority);
    w.WriteDouble(it.threshold);
  };
  LogCursor log(log_);
  for (size_t i = boundary_; i < items_.size(); ++i) {
    StoredItem it = items_[i];
    it.threshold = log.Threshold(it, i);
    write_entry(it);
  }
  for (size_t i = head_; i < boundary_; ++i) write_entry(items_[i]);
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
  // Items in time order: the expired region, then the current region.
  const size_t current = view->current_count();
  const size_t expired = view->expired_count();
  out.items_.reserve(current + expired);
  for (size_t i = current; i < current + expired; ++i) {
    out.items_.push_back(view->entry(i));
  }
  for (size_t i = 0; i < current; ++i) out.items_.push_back(view->entry(i));
  out.boundary_ = expired;
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
  const auto views =
      VetFrames<SlidingWindowSampler>(frames, [this](const FrameView& v) {
        return v.window() == window_;
      });
  if (!views) return false;
  // Fold the validated views in span order -- observationally identical
  // to Deserialize + Merge per frame, without materializing a sampler
  // per frame. An empty list is a strict no-op.
  if (views->empty()) return true;
  Fold fold(std::move(*this));
  for (const FrameView& v : *views) fold.Step(v);
  *this = std::move(fold).Finish();
  return true;
}

}  // namespace ats
