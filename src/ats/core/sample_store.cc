#include "ats/core/sample_store.h"

#include <numeric>

namespace ats {
namespace internal {

std::vector<size_t> AscendingPriorityOrder(
    const std::vector<double>& priorities) {
  std::vector<size_t> order(priorities.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&priorities](size_t a, size_t b) {
    return priorities[a] < priorities[b];
  });
  return order;
}

}  // namespace internal

namespace {

// Sorts `priorities`, all below `bound`, ascending by (priority, index)
// into `out`. A counting pass buckets the entries by value over
// (0, bound), where hash-derived priorities are uniform, then each bucket
// is sorted on its own: expected O(n). Skewed priorities (weighted U/w,
// direct offers) only crowd buckets, and a crowded bucket costs
// O(m log m), so the worst case stays O(n log n).
void BucketSortAscending(std::span<const double> priorities, double bound,
                         std::vector<internal::IndexedPriority>& out) {
  const size_t n = priorities.size();
  out.resize(n);
  if (n == 0) return;
  // n buckets of equal width over (0, bound): about one entry each.
  const double scale = static_cast<double>(n) / bound;
  const auto bucket_of = [scale, n](double p) -> size_t {
    const double b = p * scale;
    if (!(b > 0.0)) return 0;
    return b < static_cast<double>(n) ? static_cast<size_t>(b) : n - 1;
  };
  // Counting sort into buckets. end[b + 1] first counts bucket b; the
  // prefix sum turns end[b] into bucket b's start, and the scatter
  // advances it to bucket b's end (= bucket b + 1's start).
  std::vector<size_t> end(n + 1, 0);
  for (const double p : priorities) ++end[bucket_of(p) + 1];
  for (size_t b = 1; b < n; ++b) end[b] += end[b - 1];
  for (size_t i = 0; i < n; ++i) {
    out[end[bucket_of(priorities[i])]++] = {priorities[i], i};
  }
  // Each bucket is sorted on its own; std::sort insertion-sorts the
  // small ones and bounds a crowded (skewed) bucket at O(m log m).
  size_t begin = 0;
  for (size_t b = 0; b < n; ++b) {
    if (end[b] - begin > 1) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(end[b]),
                [](const internal::IndexedPriority& x,
                   const internal::IndexedPriority& y) {
                  return x.priority < y.priority ||
                         (x.priority == y.priority && x.index < y.index);
                });
    }
    begin = end[b];
  }
}

}  // namespace

template <>
void SampleStore<uint64_t, StoreOrder::kAscendingDistinct>::CompactDistinct()
    const {
  const size_t prefix = sorted_;
  BucketSortAscending(std::span<const double>(priority_).subspan(prefix),
                      threshold_, tail_);
  scratch_.clear();
  payload_scratch_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < prefix || j < tail_.size()) {
    // The prefix entry goes first on a tie: it arrived earlier.
    const size_t from =
        j == tail_.size() || (i < prefix && priority_[i] <= tail_[j].priority)
            ? i++
            : prefix + tail_[j++].index;
    const double p = priority_[from];
    if (!scratch_.empty() && p == scratch_.back()) continue;
    if (scratch_.size() == k_) {
      threshold_ = std::min(threshold_, p);
      break;
    }
    scratch_.push_back(p);
    payload_scratch_.push_back(payload_[from]);
  }
  priority_.swap(scratch_);
  payload_.swap(payload_scratch_);
  sorted_ = priority_.size();
}

}  // namespace ats
