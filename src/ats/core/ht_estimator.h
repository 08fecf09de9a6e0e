// Horvitz-Thompson and pseudo-HT estimation over adaptive threshold
// samples (Sections 2.2, 2.5, 2.6.1).
//
// All estimators consume spans of SampleEntry and use the per-item
// pseudo-inclusion probability pi_i = F_i(T_i). By Theorem 4 / Corollary 5
// these fixed-threshold estimators are unbiased whenever the producing
// sampler's threshold is substitutable (all samplers in this library are,
// and tests verify it); the degree-d estimators (pairwise and higher) need
// d-substitutability.
#ifndef ATS_CORE_HT_ESTIMATOR_H_
#define ATS_CORE_HT_ESTIMATOR_H_

#include <functional>
#include <span>
#include <vector>

#include "ats/core/threshold.h"
#include "ats/util/check.h"

namespace ats {

// HT estimate of the population total sum_i x_i from a sample:
// sum over sampled i of value_i / pi_i (Corollary 3).
double HtTotal(std::span<const SampleEntry> sample);

namespace internal {
// pi_i = F_i(T_i), checked positive: every HT term divides by it.
inline double HtInclusion(const SampleEntry& e) {
  const double pi = e.InclusionProbability();
  ATS_CHECK_MSG(pi > 0.0, "sample entry with zero inclusion probability");
  return pi;
}
}  // namespace internal

// HT estimate of a subset sum: only entries whose key satisfies `in_subset`
// contribute (the "zero out items outside the subset" device of [12]).
// `in_subset` is any callable bool(uint64_t) -- a lambda, a function
// pointer or a std::function -- called directly, not through a type-erased
// wrapper.
template <typename Pred>
double HtSubsetSum(std::span<const SampleEntry> sample, Pred&& in_subset) {
  double total = 0.0;
  for (const SampleEntry& e : sample) {
    if (in_subset(e.key)) total += e.value / internal::HtInclusion(e);
  }
  return total;
}

// HT estimate of the number of (weighted) items: sum of 1/pi_i.
double HtCount(std::span<const SampleEntry> sample);

// Unbiased estimate of Var(theta_hat) for the HT total under a fixed (or
// substitutable adaptive) threshold:  sum_i Z_i x_i^2 (1-pi_i)/pi_i^2
// (Section 2.6.1; valid when the sample has >= 2 items for bottom-k).
double HtVarianceEstimate(std::span<const SampleEntry> sample);

// True variance of the fixed-threshold HT total over a known population:
// sum_i x_i^2 (1 - F_i(t)) / F_i(t). `dists` and `values` are parallel.
double FixedThresholdVariance(std::span<const double> values,
                              std::span<const PriorityDist> dists, double t);

// Normal-approximation confidence interval half-width at ~95% for the HT
// total, from the variance estimate.
double HtConfidenceHalfWidth95(std::span<const SampleEntry> sample);

// Pseudo-HT estimate of a pairwise population sum
//   sum_{i != j} h(x_i, x_j)
// from sampled items (Theorem 2 with |lambda| = 2):
//   sum over sampled pairs i != j of h_ij / (pi_i pi_j).
// Requires a 2-substitutable threshold. O(m^2) over the sample.
double PairwiseHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&)>& h);

// Pseudo-HT estimate of sum over ordered triples of distinct items.
// Requires 3-substitutability. O(m^3).
double TripleHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&,
                               const SampleEntry&)>& h);

// Pseudo-HT estimate of sum over ordered quadruples of distinct items.
// Requires 4-substitutability. O(m^4); intended for modest sample sizes.
double QuadrupleHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&,
                               const SampleEntry&, const SampleEntry&)>& h);

}  // namespace ats

#endif  // ATS_CORE_HT_ESTIMATOR_H_
