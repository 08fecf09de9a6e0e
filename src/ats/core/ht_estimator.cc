#include "ats/core/ht_estimator.h"

#include <algorithm>
#include <cmath>

#include "ats/util/check.h"

namespace ats {

using internal::HtInclusion;

double internal::HtHalfWidth95(double variance) {
  return 1.96 * std::sqrt(std::max(0.0, variance));
}

double HtTotal(std::span<const SampleEntry> sample) {
  return HtEstimate(sample, AllKeys{}, EntryValue{}).estimate;
}

double HtCount(std::span<const SampleEntry> sample) {
  return HtEstimate(sample, AllKeys{}, UnitValue{}).estimate;
}

double HtVarianceEstimate(std::span<const SampleEntry> sample) {
  return HtEstimate(sample, AllKeys{}, EntryValue{}).variance;
}

double FixedThresholdVariance(std::span<const double> values,
                              std::span<const PriorityDist> dists, double t) {
  ATS_CHECK(values.size() == dists.size());
  double v = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double pi = dists[i].Cdf(t);
    ATS_CHECK_MSG(pi > 0.0, "item with zero inclusion probability");
    v += values[i] * values[i] * (1.0 - pi) / pi;
  }
  return v;
}

double PairwiseHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&)>& h) {
  double total = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const double pi = HtInclusion(sample[i]);
    for (size_t j = 0; j < sample.size(); ++j) {
      if (i == j) continue;
      total += h(sample[i], sample[j]) / (pi * HtInclusion(sample[j]));
    }
  }
  return total;
}

double TripleHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&,
                               const SampleEntry&)>& h) {
  double total = 0.0;
  const size_t m = sample.size();
  for (size_t i = 0; i < m; ++i) {
    const double pi = HtInclusion(sample[i]);
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pij = pi * HtInclusion(sample[j]);
      for (size_t k = 0; k < m; ++k) {
        if (k == i || k == j) continue;
        total += h(sample[i], sample[j], sample[k]) /
                 (pij * HtInclusion(sample[k]));
      }
    }
  }
  return total;
}

double QuadrupleHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&,
                               const SampleEntry&, const SampleEntry&)>& h) {
  double total = 0.0;
  const size_t m = sample.size();
  for (size_t i = 0; i < m; ++i) {
    const double pi = HtInclusion(sample[i]);
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pij = pi * HtInclusion(sample[j]);
      for (size_t k = 0; k < m; ++k) {
        if (k == i || k == j) continue;
        const double pijk = pij * HtInclusion(sample[k]);
        for (size_t l = 0; l < m; ++l) {
          if (l == i || l == j || l == k) continue;
          total += h(sample[i], sample[j], sample[k], sample[l]) /
                   (pijk * HtInclusion(sample[l]));
        }
      }
    }
  }
  return total;
}

}  // namespace ats
