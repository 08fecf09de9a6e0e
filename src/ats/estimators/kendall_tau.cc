#include "ats/estimators/kendall_tau.h"

#include <algorithm>
#include <cmath>

#include "ats/core/ht_estimator.h"
#include "ats/util/check.h"

namespace ats {

namespace {

double Sign(double d) { return d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0); }

// Counts inversions in `perm` by merge sort; `buf` is scratch space.
int64_t CountInversions(std::vector<double>& a, std::vector<double>& buf,
                        size_t lo, size_t hi) {
  if (hi - lo < 2) return 0;
  const size_t mid = (lo + hi) / 2;
  int64_t inv = CountInversions(a, buf, lo, mid) +
                CountInversions(a, buf, mid, hi);
  size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (a[i] <= a[j]) {
      buf[k++] = a[i++];
    } else {
      inv += static_cast<int64_t>(mid - i);
      buf[k++] = a[j++];
    }
  }
  while (i < mid) buf[k++] = a[i++];
  while (j < hi) buf[k++] = a[j++];
  std::copy(buf.begin() + static_cast<std::ptrdiff_t>(lo),
            buf.begin() + static_cast<std::ptrdiff_t>(hi),
            a.begin() + static_cast<std::ptrdiff_t>(lo));
  return inv;
}

}  // namespace

double KendallTauExact(std::span<const double> x, std::span<const double> y) {
  ATS_CHECK(x.size() == y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;

  // Sort by x; count discordant pairs as inversions in the y sequence.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return y[a] < y[b];
  });

  // Tie counting (x-ties, y-ties, and joint) for the sign-product
  // normalization over ALL pairs C(n,2).
  int64_t x_tie_pairs = 0, joint_tie_pairs = 0;
  {
    size_t run = 1, joint_run = 1;
    for (size_t i = 1; i <= n; ++i) {
      if (i < n && x[order[i]] == x[order[i - 1]]) {
        ++run;
        if (y[order[i]] == y[order[i - 1]]) {
          ++joint_run;
        } else {
          joint_tie_pairs +=
              static_cast<int64_t>(joint_run * (joint_run - 1) / 2);
          joint_run = 1;
        }
      } else {
        x_tie_pairs += static_cast<int64_t>(run * (run - 1) / 2);
        joint_tie_pairs +=
            static_cast<int64_t>(joint_run * (joint_run - 1) / 2);
        run = 1;
        joint_run = 1;
      }
    }
  }
  int64_t y_tie_pairs = 0;
  {
    std::vector<double> ys(y.begin(), y.end());
    std::sort(ys.begin(), ys.end());
    size_t run = 1;
    for (size_t i = 1; i <= n; ++i) {
      if (i < n && ys[i] == ys[i - 1]) {
        ++run;
      } else {
        y_tie_pairs += static_cast<int64_t>(run * (run - 1) / 2);
        run = 1;
      }
    }
  }

  std::vector<double> ys(n), buf(n);
  for (size_t i = 0; i < n; ++i) ys[i] = y[order[i]];
  const int64_t discordant = CountInversions(ys, buf, 0, n);
  const int64_t total = static_cast<int64_t>(n) *
                        static_cast<int64_t>(n - 1) / 2;
  // Pairs tied in x or y contribute 0 to the sign product. Concordant =
  // total - discordant - (tied in x or y), with inclusion-exclusion.
  const int64_t tied = x_tie_pairs + y_tie_pairs - joint_tie_pairs;
  const int64_t concordant = total - discordant - tied;
  return static_cast<double>(concordant - discordant) /
         static_cast<double>(total);
}

double KendallTauFromSample(std::span<const PairedSampleEntry> sample,
                            int64_t population_size) {
  ATS_CHECK(population_size >= 2);
  double sum = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t j = i + 1; j < sample.size(); ++j) {
      const double c = Sign(sample[i].x - sample[j].x) *
                       Sign(sample[i].y - sample[j].y);
      sum += c / (sample[i].inclusion_probability *
                  sample[j].inclusion_probability);
    }
  }
  const double total_pairs = 0.5 * static_cast<double>(population_size) *
                             static_cast<double>(population_size - 1);
  return sum / total_pairs;
}

double KendallTauVarianceEstimate(std::span<const PairedSampleEntry> sample,
                                  int64_t population_size) {
  ATS_CHECK(population_size >= 2);
  const size_t m = sample.size();
  // Diagonal terms: C_ij^2 (1 - pi_ij) / pi_ij^2 over sampled pairs.
  double total = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      const double c = Sign(sample[i].x - sample[j].x) *
                       Sign(sample[i].y - sample[j].y);
      const double pij = sample[i].inclusion_probability *
                         sample[j].inclusion_probability;
      total += c * c * (1.0 - pij) / (pij * pij);
    }
  }
  // Cross terms: ordered pairs of pairs sharing exactly one index s
  // (disjoint quadruples vanish under substitutable thresholds):
  //   C_sj C_sl (1 - pi_s) / (pi_s^2 pi_j pi_l).
  for (size_t s = 0; s < m; ++s) {
    const double pis = sample[s].inclusion_probability;
    for (size_t j = 0; j < m; ++j) {
      if (j == s) continue;
      const double csj = Sign(sample[s].x - sample[j].x) *
                         Sign(sample[s].y - sample[j].y);
      if (csj == 0.0) continue;
      for (size_t l = 0; l < m; ++l) {
        if (l == s || l == j) continue;
        const double csl = Sign(sample[s].x - sample[l].x) *
                           Sign(sample[s].y - sample[l].y);
        total += csj * csl * (1.0 - pis) /
                 (pis * pis * sample[j].inclusion_probability *
                  sample[l].inclusion_probability);
      }
    }
  }
  const double num_pairs = 0.5 * static_cast<double>(population_size) *
                           static_cast<double>(population_size - 1);
  return total / (num_pairs * num_pairs);
}

std::vector<PairedSampleEntry> MakePairedSample(
    std::span<const SampleEntry> sample, std::span<const double> x,
    std::span<const double> y) {
  ATS_CHECK(x.size() == y.size());
  std::vector<PairedSampleEntry> out;
  out.reserve(sample.size());
  for (const SampleEntry& e : sample) {
    ATS_CHECK(e.key < x.size());
    PairedSampleEntry p;
    p.x = x[e.key];
    p.y = y[e.key];
    p.inclusion_probability = internal::HtInclusion(e);
    out.push_back(p);
  }
  return out;
}

}  // namespace ats
