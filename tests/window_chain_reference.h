// Test-local oracle for SlidingWindowSampler's k-way merge: the pairwise
// chain that defines Merge, MergeMany and MergeManyFrames, written out
// step by step on plain StoredItem vectors. It reads samplers only
// through their SWN1 frames (DeserializeView entries) and shares no code
// with the library's merge, so a merged sampler whose frame equals
// Frame() here, byte for byte, computes the chain.
//
// One chain step merges an input at now = max(accumulator clock, input
// clock):
//   1. the accumulator expires at now (current entries at or before
//      now - w move, in order, to the back of the expired set; expired
//      entries at or before now - 2w drop);
//   2. the input is filtered at now: current entries in (now - w, now],
//      expired entries in (now - 2w, now - w];
//   3. bound = min(1, every per-item threshold of both current sets);
//   4. candidates = the time-ordered union of the current sets, the
//      accumulator's entries first on equal times, priority < bound;
//   5. over k candidates: pivot = the (k+1)-th smallest priority; keep
//      the priorities below it plus the first-arrived ties at it until
//      k are kept; the final bound is min(bound, pivot);
//   6. every kept threshold is min-composed with the final bound;
//   7. the expired sets are unioned in time order, accumulator first.
#ifndef ATS_TESTS_WINDOW_CHAIN_REFERENCE_H_
#define ATS_TESTS_WINDOW_CHAIN_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ats/samplers/sliding_window.h"
#include "ats/util/serialize.h"

namespace ats {

/// SWN1 bytes of a window sampler state (docs/WIRE_FORMAT.md), checksum
/// included. Entries are written as given: no validation.
inline std::string EncodeWindowFrame(
    size_t k, double window, double last_time,
    const std::array<uint64_t, 4>& rng,
    const std::vector<SlidingWindowSampler::StoredItem>& current,
    const std::vector<SlidingWindowSampler::StoredItem>& expired) {
  ByteWriter w;
  w.WriteU32(0x53574e31);  // "SWN1"
  w.WriteU32(2);
  w.WriteU64(k);
  w.WriteDouble(window);
  w.WriteDouble(last_time);
  WriteRngState(w, rng);
  w.WriteU64(current.size());
  w.WriteU64(expired.size());
  for (const auto* region : {&current, &expired}) {
    for (const SlidingWindowSampler::StoredItem& it : *region) {
      w.WriteU64(it.id);
      w.WriteDouble(it.time);
      w.WriteDouble(it.priority);
      w.WriteDouble(it.threshold);
    }
  }
  std::string bytes = w.Take();
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

class WindowChainReference {
 public:
  using StoredItem = SlidingWindowSampler::StoredItem;

  /// The accumulator, read off its SWN1 frame; valid() is false if the
  /// frame does not parse.
  explicit WindowChainReference(std::string_view frame) {
    const auto view = SlidingWindowSampler::DeserializeView(frame);
    if (!view) return;
    ByteReader r(frame);
    r.ReadU32();
    r.ReadU32();
    r.ReadU64();
    r.ReadDouble();
    r.ReadDouble();
    const auto rng = ReadRngState(r);
    if (!rng) return;
    valid_ = true;
    k_ = view->k();
    window_ = view->window();
    last_time_ = view->last_time();
    rng_ = *rng;
    Regions(*view, &current_, &expired_);
  }

  bool valid() const { return valid_; }

  /// One chain step with the input whose SWN1 frame is `frame`. Returns
  /// false, changing nothing, if the frame does not parse or its window
  /// differs.
  bool Merge(std::string_view frame) {
    const auto view = SlidingWindowSampler::DeserializeView(frame);
    if (!valid_ || !view || view->window() != window_) return false;
    const double now = std::max(last_time_, view->last_time());
    const double cut_window = now - window_;
    const double cut_drop = now - 2.0 * window_;

    // 1. The accumulator's expiry at now.
    last_time_ = now;
    std::vector<StoredItem> own;
    for (const StoredItem& it : current_) {
      (it.time <= cut_window ? expired_ : own).push_back(it);
    }
    std::erase_if(expired_, [cut_drop](const StoredItem& it) {
      return it.time <= cut_drop;
    });

    // 2. The input's snapshot at now.
    std::vector<StoredItem> in_current, in_expired, snap_current,
        snap_expired;
    Regions(*view, &in_current, &in_expired);
    for (const StoredItem& it : in_expired) {
      if (it.time > cut_drop && it.time <= cut_window) {
        snap_expired.push_back(it);
      }
    }
    for (const StoredItem& it : in_current) {
      if (it.time <= cut_drop) continue;
      (it.time <= cut_window ? snap_expired : snap_current).push_back(it);
    }

    // 3. The common bound.
    double bound = 1.0;
    for (const StoredItem& it : own) bound = std::min(bound, it.threshold);
    for (const StoredItem& it : snap_current) {
      bound = std::min(bound, it.threshold);
    }

    // 4. Candidates in time order, accumulator first on equal times.
    std::vector<StoredItem> candidates(own.size() + snap_current.size());
    std::merge(own.begin(), own.end(), snap_current.begin(),
               snap_current.end(), candidates.begin(), ByTime);
    std::erase_if(candidates, [bound](const StoredItem& it) {
      return it.priority >= bound;
    });

    // 5. The bottom-k re-cap, first-arrived ties kept.
    double t_final = bound;
    if (candidates.size() > k_) {
      std::vector<double> priorities;
      for (const StoredItem& it : candidates) {
        priorities.push_back(it.priority);
      }
      std::sort(priorities.begin(), priorities.end());
      const double pivot = priorities[k_];
      t_final = std::min(bound, pivot);
      size_t ties_needed =
          k_ - static_cast<size_t>(std::count_if(
                   priorities.begin(), priorities.end(),
                   [pivot](double p) { return p < pivot; }));
      std::vector<StoredItem> kept;
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

    // 6. Min-composed thresholds.
    for (StoredItem& it : candidates) {
      it.threshold = std::min(it.threshold, t_final);
    }
    current_ = std::move(candidates);

    // 7. The expired union, accumulator first on equal times.
    std::vector<StoredItem> expired(expired_.size() + snap_expired.size());
    std::merge(expired_.begin(), expired_.end(), snap_expired.begin(),
               snap_expired.end(), expired.begin(), ByTime);
    expired_ = std::move(expired);
    return true;
  }

  /// One chain step with a sampler input, through its frame.
  bool Merge(const SlidingWindowSampler& input) {
    return Merge(input.SerializeToString());
  }

  double last_time() const { return last_time_; }
  const std::vector<StoredItem>& current() const { return current_; }
  const std::vector<StoredItem>& expired() const { return expired_; }

  /// SWN1 bytes of the chain's result: the accumulator's k, window and
  /// RNG state with the merged clock and regions.
  std::string Frame() const {
    return EncodeWindowFrame(k_, window_, last_time_, rng_, current_,
                             expired_);
  }

 private:
  static bool ByTime(const StoredItem& a, const StoredItem& b) {
    return a.time < b.time;
  }

  static void Regions(const SlidingWindowSampler::FrameView& view,
                      std::vector<StoredItem>* current,
                      std::vector<StoredItem>* expired) {
    current->clear();
    expired->clear();
    for (size_t i = 0; i < view.current_count(); ++i) {
      current->push_back(view.entry(i));
    }
    for (size_t i = 0; i < view.expired_count(); ++i) {
      expired->push_back(view.entry(view.current_count() + i));
    }
  }

  bool valid_ = false;
  size_t k_ = 1;
  double window_ = 1.0;
  double last_time_ = 0.0;
  std::array<uint64_t, 4> rng_ = {1, 0, 0, 0};
  std::vector<StoredItem> current_;
  std::vector<StoredItem> expired_;
};

}  // namespace ats

#endif  // ATS_TESTS_WINDOW_CHAIN_REFERENCE_H_
