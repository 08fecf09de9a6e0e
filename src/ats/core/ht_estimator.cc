#include "ats/core/ht_estimator.h"

#include <cmath>

#include "ats/util/check.h"

namespace ats {

namespace {

double Inclusion(const SampleEntry& e) { return internal::HtInclusion(e); }

}  // namespace

double HtTotal(std::span<const SampleEntry> sample) {
  double total = 0.0;
  for (const SampleEntry& e : sample) total += e.value / Inclusion(e);
  return total;
}

double HtCount(std::span<const SampleEntry> sample) {
  double total = 0.0;
  for (const SampleEntry& e : sample) total += 1.0 / Inclusion(e);
  return total;
}

double HtVarianceEstimate(std::span<const SampleEntry> sample) {
  double v = 0.0;
  for (const SampleEntry& e : sample) {
    const double pi = Inclusion(e);
    v += e.value * e.value * (1.0 - pi) / (pi * pi);
  }
  return v;
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

double HtConfidenceHalfWidth95(std::span<const SampleEntry> sample) {
  return 1.96 * std::sqrt(HtVarianceEstimate(sample));
}

double PairwiseHtSum(
    std::span<const SampleEntry> sample,
    const std::function<double(const SampleEntry&, const SampleEntry&)>& h) {
  double total = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const double pi = Inclusion(sample[i]);
    for (size_t j = 0; j < sample.size(); ++j) {
      if (i == j) continue;
      total += h(sample[i], sample[j]) / (pi * Inclusion(sample[j]));
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
    const double pi = Inclusion(sample[i]);
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pij = pi * Inclusion(sample[j]);
      for (size_t k = 0; k < m; ++k) {
        if (k == i || k == j) continue;
        total += h(sample[i], sample[j], sample[k]) /
                 (pij * Inclusion(sample[k]));
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
    const double pi = Inclusion(sample[i]);
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pij = pi * Inclusion(sample[j]);
      for (size_t k = 0; k < m; ++k) {
        if (k == i || k == j) continue;
        const double pijk = pij * Inclusion(sample[k]);
        for (size_t l = 0; l < m; ++l) {
          if (l == i || l == j || l == k) continue;
          total += h(sample[i], sample[j], sample[k], sample[l]) /
                   (pijk * Inclusion(sample[l]));
        }
      }
    }
  }
  return total;
}

}  // namespace ats
