// Tests for the workload generators (ats/workload/).
#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"
#include "ats/util/stats.h"
#include "ats/workload/arrivals.h"
#include "ats/workload/pitman_yor.h"
#include "ats/workload/survey.h"
#include "ats/workload/synthetic.h"
#include "ats/workload/zipf.h"

namespace ats {
namespace {

TEST(PitmanYor, CountsSumToStreamLength) {
  PitmanYorStream stream(0.5, 1);
  for (int i = 0; i < 10000; ++i) stream.Next();
  int64_t total = 0;
  for (int64_t c : stream.counts()) total += c;
  EXPECT_EQ(total, 10000);
  EXPECT_EQ(stream.TotalCount(), 10000);
}

TEST(PitmanYor, LargerBetaYieldsMoreUniques) {
  auto uniques = [](double beta) {
    PitmanYorStream stream(beta, 7);
    for (int i = 0; i < 30000; ++i) stream.Next();
    return stream.NumUnique();
  };
  const size_t low = uniques(0.1);
  const size_t high = uniques(0.9);
  EXPECT_GT(high, 3 * low);
}

TEST(PitmanYor, TopItemsSortedByFrequency) {
  PitmanYorStream stream(0.4, 3);
  for (int i = 0; i < 20000; ++i) stream.Next();
  const auto top = stream.TopItems(10);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(stream.Count(top[i - 1]), stream.Count(top[i]));
  }
}

TEST(PitmanYor, BetaZeroIsChineseRestaurant) {
  // beta = 0: expected uniques ~ log(n); far fewer than beta = 0.8.
  PitmanYorStream stream(0.0, 5);
  for (int i = 0; i < 20000; ++i) stream.Next();
  EXPECT_LT(stream.NumUnique(), 100u);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfGenerator zipf(1000, 1.1, 1);
  double total = 0.0;
  for (uint64_t i = 0; i < 1000; ++i) total += zipf.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, EmpiricalMatchesTheoretical) {
  ZipfGenerator zipf(50, 1.0, 2);
  std::vector<int64_t> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next()];
  for (uint64_t i = 0; i < 5; ++i) {
    const double expected = zipf.Probability(i) * n;
    EXPECT_NEAR(double(counts[i]), expected, 5.0 * std::sqrt(expected))
        << "item " << i;
  }
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfGenerator zipf(10, 0.0, 3);
  std::vector<int64_t> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  EXPECT_LT(ChiSquareUniform(counts), ChiSquareCritical999(9));
}

// The inverse-CDF Zipf draw in its plain form: the CDF built exactly as
// the generator documents it, searched with one full binary search. The
// guide table must return the same item for every u.
std::vector<double> ReferenceZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

uint64_t ReferenceZipfDraw(const std::vector<double>& cdf, double u) {
  return static_cast<uint64_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin());
}

struct ZipfCase {
  size_t n;
  double s;
};

// n = 1, s = 0, universes that are not powers of two, and one that is.
constexpr ZipfCase kZipfCases[] = {{1, 1.1},      {1, 0.0},
                                   {10, 0.0},     {3, 2.0},
                                   {1000, 0.8},   {100000, 1.5},
                                   {1 << 20, 1.1}};

TEST(Zipf, DrawsMatchPlainBinarySearch) {
  constexpr int kDraws = 1'000'000;
  for (const ZipfCase& c : kZipfCases) {
    const std::vector<double> cdf = ReferenceZipfCdf(c.n, c.s);
    ZipfGenerator zipf(c.n, c.s, 17);
    Xoshiro256 rng(17);
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += zipf.Next() != ReferenceZipfDraw(cdf, rng.NextDouble());
    }
    EXPECT_EQ(mismatches, 0) << "n " << c.n << " s " << c.s;
  }
}

TEST(Zipf, BucketEdgesResolveLikePlainBinarySearch) {
  // u exactly on an edge j/m, just below it, and exactly on a CDF value:
  // the inputs where a guide off by one would pick a neighbouring item.
  for (const ZipfCase& c : kZipfCases) {
    const std::vector<double> cdf = ReferenceZipfCdf(c.n, c.s);
    const auto table = ZipfTable::Make(c.n, c.s);
    const size_t m = std::bit_ceil(c.n);
    int mismatches = 0;
    for (size_t j = 0; j < m; ++j) {
      const double edge = static_cast<double>(j) / static_cast<double>(m);
      mismatches += table->Lookup(edge) != ReferenceZipfDraw(cdf, edge);
      if (j > 0) {
        const double below = std::nextafter(edge, 0.0);
        mismatches += table->Lookup(below) != ReferenceZipfDraw(cdf, below);
      }
    }
    for (size_t i = 0; i + 1 < c.n; ++i) {
      mismatches += table->Lookup(cdf[i]) != ReferenceZipfDraw(cdf, cdf[i]);
    }
    const double top = std::nextafter(1.0, 0.0);
    mismatches += table->Lookup(top) != ReferenceZipfDraw(cdf, top);
    EXPECT_EQ(mismatches, 0) << "n " << c.n << " s " << c.s;
  }
}

TEST(Zipf, SharedTableDrawsLikePrivateTables) {
  const auto table = ZipfTable::Make(100000, 1.1);
  ZipfGenerator shared_a(table, 5), shared_b(table, 6);
  ZipfGenerator private_a(100000, 1.1, 5), private_b(100000, 1.1, 6);
  for (int i = 0; i < 200000; ++i) {
    ASSERT_EQ(shared_a.Next(), private_a.Next()) << "draw " << i;
    ASSERT_EQ(shared_b.Next(), private_b.Next()) << "draw " << i;
  }
}

TEST(Zipf, ProbabilityAndUniverseFollowTheCdf) {
  for (const ZipfCase& c : kZipfCases) {
    const std::vector<double> cdf = ReferenceZipfCdf(c.n, c.s);
    const ZipfGenerator zipf(c.n, c.s, 1);
    ASSERT_EQ(zipf.universe(), c.n);
    ASSERT_EQ(ZipfTable::Make(c.n, c.s)->universe(), c.n);
    int mismatches = 0;
    for (size_t i = 0; i < c.n; ++i) {
      const double expected = i == 0 ? cdf[0] : cdf[i] - cdf[i - 1];
      mismatches += std::bit_cast<uint64_t>(zipf.Probability(i)) !=
                    std::bit_cast<uint64_t>(expected);
    }
    EXPECT_EQ(mismatches, 0) << "n " << c.n << " s " << c.s;
  }
}

TEST(Arrivals, ConstantRateMatchesExpectation) {
  ArrivalProcess process(RateProfile::Constant(100.0), 100.0, 4);
  const auto arrivals = process.Until(50.0);
  EXPECT_NEAR(double(arrivals.size()), 5000.0, 5.0 * std::sqrt(5000.0));
  // Times strictly increasing, ids dense.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i].time, arrivals[i - 1].time);
    EXPECT_EQ(arrivals[i].id, arrivals[i - 1].id + 1);
  }
}

TEST(Arrivals, SpikeTriplesLocalRate) {
  ArrivalProcess process(RateProfile::WithSpike(100.0, 10.0, 20.0, 3.0),
                         300.0, 5);
  const auto arrivals = process.Until(30.0);
  int before = 0, during = 0;
  for (const auto& a : arrivals) {
    if (a.time < 10.0) ++before;
    if (a.time >= 10.0 && a.time < 20.0) ++during;
  }
  EXPECT_NEAR(double(during) / double(before), 3.0, 0.5);
}

TEST(Arrivals, InterArrivalTimesAreExponential) {
  ArrivalProcess process(RateProfile::Constant(1.0), 1.0, 6);
  std::vector<double> gaps;
  double prev = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto a = process.Next();
    gaps.push_back(a.time - prev);
    prev = a.time;
  }
  // CDF transform of Exp(1) gaps should be uniform.
  std::vector<double> us;
  us.reserve(gaps.size());
  for (double g : gaps) us.push_back(1.0 - std::exp(-g));
  EXPECT_GT(KsPValue(KsStatisticUniform(us), us.size()), 1e-4);
}

TEST(Survey, CalibratedToPaperStatistics) {
  SurveyGenerator gen(7);
  const auto responses = gen.Generate(20000);
  double mean = 0.0, mx = 0.0;
  for (const auto& r : responses) {
    mean += r.size;
    mx = std::max(mx, r.size);
    ASSERT_GT(r.size, 0.0);
  }
  mean /= double(responses.size());
  EXPECT_NEAR(mean, 1265.0, 1.0);   // the paper's mean length
  EXPECT_NEAR(mx, 5113.0, 1.0);     // the paper's max length
}

TEST(Survey, SizesAreDispersed) {
  SurveyGenerator gen(8);
  const auto responses = gen.Generate(5000);
  std::vector<double> sizes;
  for (const auto& r : responses) sizes.push_back(r.size);
  EXPECT_LT(Quantile(sizes, 0.25), 900.0);
  EXPECT_GT(Quantile(sizes, 0.95), 2000.0);
}

TEST(Synthetic, JaccardPairHasRequestedOverlap) {
  for (double j : {0.0, 0.1, 0.25, 0.4}) {
    const auto sets = MakeSetPairWithJaccard(10000, 20000, j, 9);
    EXPECT_EQ(sets.a.size(), 10000u);
    EXPECT_EQ(sets.b.size(), 20000u);
    const double realized =
        double(sets.intersection_size) / double(sets.union_size);
    EXPECT_NEAR(realized, j, 0.01) << "target " << j;
    // Verify the reported intersection is real.
    std::set<uint64_t> a(sets.a.begin(), sets.a.end());
    size_t inter = 0;
    for (uint64_t key : sets.b) inter += a.contains(key);
    EXPECT_EQ(inter, sets.intersection_size);
  }
}

TEST(Synthetic, CorrelatedGaussianHasTargetCorrelation) {
  const auto pts = MakeCorrelatedGaussian(50000, 0.7, 10);
  std::vector<double> x, y;
  for (const auto& p : pts) {
    x.push_back(p.x);
    y.push_back(p.y);
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.7, 0.02);
}

TEST(Synthetic, ObjectiveWeightMixControlsCorrelation) {
  auto corr = [](double mix) {
    const auto w = MakeObjectiveWeights(20000, 2, mix, 11);
    std::vector<double> a(w[0].size()), b(w[1].size());
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = std::log(w[0][i]);
      b[i] = std::log(w[1][i]);
    }
    return PearsonCorrelation(a, b);
  };
  EXPECT_NEAR(corr(0.0), 0.0, 0.05);
  EXPECT_GT(corr(0.9), 0.85);
  EXPECT_NEAR(corr(1.0), 1.0, 1e-9);
}

TEST(Synthetic, WeightedPopulationValueModes) {
  const auto tied = MakeWeightedPopulation(100, 1, true);
  for (const auto& it : tied) EXPECT_EQ(it.value, it.weight);
  const auto free = MakeWeightedPopulation(100, 1, false);
  int diff = 0;
  for (const auto& it : free) diff += it.value != it.weight;
  EXPECT_GT(diff, 90);
}

}  // namespace
}  // namespace ats
