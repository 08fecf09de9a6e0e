// Zipf-distributed item generator: P(item = i) proportional to
// 1 / (i+1)^s over a universe of n items. Used by the frequent-items,
// grouped-distinct, and throughput workloads, and by the cluster's
// Zipf agents.
//
// A draw inverts the CDF: item = the first i with cdf[i] > u for a
// uniform u in [0, 1). A plain binary search over a large universe
// (2^20 doubles, 8 MB) costs ~20 cache-missing probes per draw, so the
// table adds a Chen-Asau guide ("indexed search"): with m the next power
// of two >= n, guide[j] is the first i with cdf[i] > j/m, for j in
// 0..m (guide[m] = n). A draw takes j = floor(u*m) -- exact, since m is
// a power of two -- and runs the same upper_bound over [guide[j],
// guide[j+1]) only. Because j/m <= u < (j+1)/m, every entry before
// guide[j] is <= u and the entry at guide[j+1] (if any) is > u, so the
// answer lies in [guide[j], guide[j+1]], and upper_bound returns
// guide[j+1] itself when nothing in the range exceeds u. The result is
// the item the full binary search returns, for every u, so draws are
// unchanged; a draw costs one guide read plus a search over ~1-2 entries.
//
// The CDF and guide live in one immutable ZipfTable. Generators with the
// same (n, s) can share one table through a shared_ptr<const ZipfTable>
// (ClusterSim builds one for all of its agents); each generator keeps
// its own RNG, so sharing changes no draw.
#ifndef ATS_WORKLOAD_ZIPF_H_
#define ATS_WORKLOAD_ZIPF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ats/core/random.h"

namespace ats {

class ZipfTable {
 public:
  // n >= 1 items (n < 2^32), exponent s >= 0 (s = 0 is uniform).
  static std::shared_ptr<const ZipfTable> Make(size_t n, double s);

  // The first item i with cdf(i) > u, for u in [0, 1): the inverse-CDF
  // draw for a uniform u. Item 0 is the most frequent.
  uint64_t Lookup(double u) const;

  // Exact probability of item i.
  double Probability(uint64_t i) const;

  size_t universe() const { return cdf_.size(); }

 private:
  ZipfTable(size_t n, double s);

  std::vector<double> cdf_;      // cumulative probabilities, back() == 1
  std::vector<uint32_t> guide_;  // m + 1 entries, see the file comment
  double buckets_ = 1.0;         // m, a power of two >= n
};

class ZipfGenerator {
 public:
  // n >= 1 items, exponent s >= 0 (s = 0 is uniform). Builds a private
  // table.
  ZipfGenerator(size_t n, double s, uint64_t seed);

  // Draws from a shared table; the same draws as a private table of the
  // same (n, s) with the same seed.
  ZipfGenerator(std::shared_ptr<const ZipfTable> table, uint64_t seed);

  // Draws the next item id in [0, n). Item 0 is the most frequent.
  uint64_t Next();

  // Exact probability of item i.
  double Probability(uint64_t i) const { return table_->Probability(i); }

  size_t universe() const { return table_->universe(); }

 private:
  Xoshiro256 rng_;
  std::shared_ptr<const ZipfTable> table_;
};

}  // namespace ats

#endif  // ATS_WORKLOAD_ZIPF_H_
