#include "ats/workload/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "ats/util/check.h"

namespace ats {

std::shared_ptr<const ZipfTable> ZipfTable::Make(size_t n, double s) {
  return std::shared_ptr<const ZipfTable>(new ZipfTable(n, s));
}

ZipfTable::ZipfTable(size_t n, double s) {
  ATS_CHECK(n >= 1);
  ATS_CHECK(n <= std::numeric_limits<uint32_t>::max());
  ATS_CHECK(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;

  // One linear pass: the bucket edges j/m are exact doubles and
  // nondecreasing in j, so the first index past each edge only moves up.
  const size_t m = std::bit_ceil(n);
  buckets_ = static_cast<double>(m);
  const double width = 1.0 / buckets_;
  guide_.resize(m + 1);
  size_t i = 0;
  for (size_t j = 0; j <= m; ++j) {
    const double edge = static_cast<double>(j) * width;
    while (i < n && !(cdf_[i] > edge)) ++i;
    guide_[j] = static_cast<uint32_t>(i);
  }
}

uint64_t ZipfTable::Lookup(double u) const {
  ATS_DCHECK(u >= 0.0 && u < 1.0);
  const size_t j = static_cast<size_t>(u * buckets_);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  return static_cast<uint64_t>(std::upper_bound(first, last, u) -
                               cdf_.begin());
}

double ZipfTable::Probability(uint64_t i) const {
  ATS_CHECK(i < cdf_.size());
  if (i == 0) return cdf_[0];
  return cdf_[i] - cdf_[i - 1];
}

ZipfGenerator::ZipfGenerator(size_t n, double s, uint64_t seed)
    : ZipfGenerator(ZipfTable::Make(n, s), seed) {}

ZipfGenerator::ZipfGenerator(std::shared_ptr<const ZipfTable> table,
                             uint64_t seed)
    : rng_(seed), table_(std::move(table)) {
  ATS_CHECK(table_ != nullptr);
}

uint64_t ZipfGenerator::Next() { return table_->Lookup(rng_.NextDouble()); }

}  // namespace ats
