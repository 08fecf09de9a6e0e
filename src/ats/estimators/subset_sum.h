// Subset-sum estimation over adaptive threshold samples (Sections 2.2,
// 2.5.1, 2.6.1; Duffield et al. [12]).
//
// Thin, task-oriented wrappers over the core HT pass (HtEstimate):
// population and subset totals and counts with their variance estimates and
// normal confidence intervals, subset means (ratio estimator), plus the
// classic priority-sampling form sum of max(w_i, 1/tau).
#ifndef ATS_ESTIMATORS_SUBSET_SUM_H_
#define ATS_ESTIMATORS_SUBSET_SUM_H_

#include <functional>
#include <span>

#include "ats/core/ht_estimator.h"
#include "ats/core/threshold.h"

namespace ats {

// Population total with variance estimate and CI.
EstimateWithError EstimateTotal(std::span<const SampleEntry> sample);

// Subset total restricted by a key predicate.
EstimateWithError EstimateSubsetSum(
    std::span<const SampleEntry> sample,
    const std::function<bool(uint64_t)>& in_subset);

// Estimated number of items in a key subset.
EstimateWithError EstimateSubsetCount(
    std::span<const SampleEntry> sample,
    const std::function<bool(uint64_t)>& in_subset);

// Ratio (Hajek) estimator of the subset mean: subset sum / subset count.
double EstimateSubsetMean(std::span<const SampleEntry> sample,
                          const std::function<bool(uint64_t)>& in_subset);

// The priority-sampling estimator sum_i max(w_i, 1/tau) over a weighted
// bottom-k sample with threshold tau; algebraically equal to the HT total
// when value == weight and priorities are Uniform(0, 1/w).
double PrioritySamplingTotal(std::span<const SampleEntry> sample);

}  // namespace ats

#endif  // ATS_ESTIMATORS_SUBSET_SUM_H_
