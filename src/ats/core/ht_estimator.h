// Horvitz-Thompson and pseudo-HT estimation over adaptive threshold
// samples (Sections 2.2, 2.5, 2.6.1, 3.4).
//
// All estimators consume spans of SampleEntry and use the per-item
// pseudo-inclusion probability pi_i = F_i(T_i). By Theorem 4 / Corollary 5
// these fixed-threshold estimators are unbiased whenever the producing
// sampler's threshold is substitutable (all samplers in this library are,
// and tests verify it); the degree-d estimators (pairwise and higher) need
// d-substitutability.
//
// Every first-order estimate and its variance come from one pass,
// HtEstimate. HtTotal, HtSubsetSum, HtCount and HtVarianceEstimate are
// one-line wrappers over it, and so are the task-oriented estimators in
// estimators/subset_sum.h and UStatistic1. HtCount is also the
// distinct-count estimator of Section 3.4: on a weighted coordinated
// sample, sum_i Z_i / F_i(T_i) estimates the number of distinct items, and
// the same sum over a key subset counts a subgroup.
#ifndef ATS_CORE_HT_ESTIMATOR_H_
#define ATS_CORE_HT_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <span>

#include "ats/core/threshold.h"
#include "ats/util/check.h"

namespace ats {

struct EstimateWithError {
  double estimate = 0.0;
  double variance = 0.0;       // unbiased variance estimate
  double ci_half_width = 0.0;  // ~95% normal CI half width
};

namespace internal {
// pi_i = F_i(T_i), checked positive: every HT term divides by it.
inline double HtInclusion(const SampleEntry& e) {
  const double pi = e.InclusionProbability();
  ATS_CHECK_MSG(pi > 0.0, "sample entry with zero inclusion probability");
  return pi;
}

// 1.96 * sqrt(max(0, variance)). Never inlined and declared const, so a
// caller that reads only HtEstimate's estimate lets the compiler drop the
// variance accumulator, which an inlined std::sqrt (it may set errno)
// would keep alive.
[[gnu::const, gnu::noinline]] double HtHalfWidth95(double variance);
}  // namespace internal

// Arguments for HtEstimate: every key is in the subset; an entry's value
// is its `value` (sums) or 1 (counts).
struct AllKeys {
  bool operator()(uint64_t) const { return true; }
};
struct EntryValue {
  double operator()(const SampleEntry& e) const { return e.value; }
};
struct UnitValue {
  double operator()(const SampleEntry&) const { return 1.0; }
};

// The first-order HT pass: the estimate of sum over keys in the subset of
// x_i, where x_i = value_of(entry), i.e. sum over sampled i of x_i / pi_i
// (Corollary 3), with the unbiased variance estimate
// sum_i Z_i x_i^2 (1-pi_i)/pi_i^2 (Section 2.6.1; valid when the sample has
// >= 2 items for bottom-k) and its ~95% normal CI half width. Items outside
// the subset are zeroed out (the device of [12]). `in_subset` is any
// callable bool(uint64_t) and `value_of` any callable
// double(const SampleEntry&); both are called directly, not through a
// type-erased wrapper. Declared inline so that each single-value wrapper
// gets its own copy of the loop, not a shared one that fills every field.
template <typename Pred, typename ValueOf>
inline EstimateWithError HtEstimate(std::span<const SampleEntry> sample,
                                    Pred&& in_subset, ValueOf&& value_of) {
  double estimate = 0.0;
  double variance = 0.0;
  for (const SampleEntry& e : sample) {
    if (!in_subset(e.key)) continue;
    const double pi = internal::HtInclusion(e);
    const double x = value_of(e);
    estimate += x / pi;
    variance += x * x * (1.0 - pi) / (pi * pi);
  }
  return {estimate, variance, internal::HtHalfWidth95(variance)};
}

// HT estimate of the population total sum_i x_i.
double HtTotal(std::span<const SampleEntry> sample);

// HT estimate of a subset sum: only entries whose key satisfies
// `in_subset` contribute.
template <typename Pred>
double HtSubsetSum(std::span<const SampleEntry> sample, Pred&& in_subset) {
  return HtEstimate(sample, in_subset, EntryValue{}).estimate;
}

// HT estimate of the number of (weighted) items: sum of 1/pi_i.
double HtCount(std::span<const SampleEntry> sample);

// Unbiased estimate of Var(theta_hat) for the HT total under a fixed (or
// substitutable adaptive) threshold.
double HtVarianceEstimate(std::span<const SampleEntry> sample);

// True variance of the fixed-threshold HT total over a known population:
// sum_i x_i^2 (1 - F_i(t)) / F_i(t). `dists` and `values` are parallel.
double FixedThresholdVariance(std::span<const double> values,
                              std::span<const PriorityDist> dists, double t);

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
