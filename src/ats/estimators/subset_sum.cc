#include "ats/estimators/subset_sum.h"

#include <algorithm>

namespace ats {

EstimateWithError EstimateTotal(std::span<const SampleEntry> sample) {
  return HtEstimate(sample, AllKeys{}, EntryValue{});
}

EstimateWithError EstimateSubsetSum(
    std::span<const SampleEntry> sample,
    const std::function<bool(uint64_t)>& in_subset) {
  return HtEstimate(sample, in_subset, EntryValue{});
}

EstimateWithError EstimateSubsetCount(
    std::span<const SampleEntry> sample,
    const std::function<bool(uint64_t)>& in_subset) {
  return HtEstimate(sample, in_subset, UnitValue{});
}

double EstimateSubsetMean(std::span<const SampleEntry> sample,
                          const std::function<bool(uint64_t)>& in_subset) {
  const double sum = EstimateSubsetSum(sample, in_subset).estimate;
  const double count = EstimateSubsetCount(sample, in_subset).estimate;
  return count > 0.0 ? sum / count : 0.0;
}

double PrioritySamplingTotal(std::span<const SampleEntry> sample) {
  double total = 0.0;
  for (const SampleEntry& e : sample) {
    total += e.threshold == kInfiniteThreshold
                 ? e.value
                 : std::max(e.value, 1.0 / e.threshold);
  }
  return total;
}

}  // namespace ats
