#include "ats/estimators/ustatistic.h"

#include <cmath>

#include "ats/core/ht_estimator.h"
#include "ats/util/check.h"

namespace ats {

namespace {

double FallingFactorial(int64_t n, int d) {
  double out = 1.0;
  for (int i = 0; i < d; ++i) out *= static_cast<double>(n - i);
  return out;
}

}  // namespace

double UStatistic1(std::span<const SampleEntry> sample,
                   int64_t population_size, const Kernel1& h) {
  ATS_CHECK(population_size >= 1);
  const double total =
      HtEstimate(sample, AllKeys{},
                 [&h](const SampleEntry& e) { return h(e.value); })
          .estimate;
  return total / static_cast<double>(population_size);
}

double UStatistic2(std::span<const SampleEntry> sample,
                   int64_t population_size, const Kernel2& h) {
  ATS_CHECK(population_size >= 2);
  const double sum = PairwiseHtSum(
      sample, [&h](const SampleEntry& a, const SampleEntry& b) {
        return h(a.value, b.value);
      });
  return sum / FallingFactorial(population_size, 2);
}

double UStatistic3(std::span<const SampleEntry> sample,
                   int64_t population_size, const Kernel3& h) {
  ATS_CHECK(population_size >= 3);
  const double sum = TripleHtSum(
      sample, [&h](const SampleEntry& a, const SampleEntry& b,
                   const SampleEntry& c) {
        return h(a.value, b.value, c.value);
      });
  return sum / FallingFactorial(population_size, 3);
}

double UStatistic4(std::span<const SampleEntry> sample,
                   int64_t population_size, const Kernel4& h) {
  ATS_CHECK(population_size >= 4);
  const double sum = QuadrupleHtSum(
      sample, [&h](const SampleEntry& a, const SampleEntry& b,
                   const SampleEntry& c, const SampleEntry& d) {
        return h(a.value, b.value, c.value, d.value);
      });
  return sum / FallingFactorial(population_size, 4);
}

double ExactUStatistic1(std::span<const double> values, const Kernel1& h) {
  double total = 0.0;
  for (double x : values) total += h(x);
  return total / static_cast<double>(values.size());
}

double ExactUStatistic2(std::span<const double> values, const Kernel2& h) {
  const size_t n = values.size();
  ATS_CHECK(n >= 2);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) total += h(values[i], values[j]);
    }
  }
  return total / FallingFactorial(static_cast<int64_t>(n), 2);
}

double ExactUStatistic3(std::span<const double> values, const Kernel3& h) {
  const size_t n = values.size();
  ATS_CHECK(n >= 3);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      for (size_t k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        total += h(values[i], values[j], values[k]);
      }
    }
  }
  return total / FallingFactorial(static_cast<int64_t>(n), 3);
}

double GiniMeanDifferenceKernel(double x, double y) {
  return std::abs(x - y);
}

double WilcoxonKernel(double x, double y) { return x + y > 0.0 ? 1.0 : 0.0; }

}  // namespace ats
