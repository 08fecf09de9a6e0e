// Conformance-kit instantiation for the sampler-tier families:
// SlidingWindowSampler, TimeDecaySampler, MultiStratifiedSampler,
// VarianceSizedSampler, MultiObjectiveSampler, and BudgetSampler.
// Every Ingest is deterministic in `seed` and key-disjoint across
// seeds (MultiStratifiedSampler::Merge REQUIRES key-disjoint streams;
// the kit feeds seeds 1..16 through DisjointKey).
#include <cmath>
#include <cstdint>
#include <vector>

#include "ats/core/random.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_objective.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/variance_sized.h"
#include "tests/conformance/conformance_kit.h"

namespace ats::conformance {
namespace {

uint64_t DisjointKey(uint64_t seed, size_t i) {
  return seed * 1'000'000 + static_cast<uint64_t>(i);
}

struct SlidingWindowTraits {
  using Sketch = SlidingWindowSampler;
  static constexpr char kName[] = "sliding_window";
  static constexpr persist::SchemeKind kKind =
      persist::SchemeKind::kSlidingWindow;
  static Sketch Make() {
    return SlidingWindowSampler(/*k=*/12, /*window=*/1.0, /*seed=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      s.Arrive(/*time=*/0.01 * static_cast<double>(i), DisjointKey(seed, i));
    }
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.window() == 1.0;  // Make()'s window
  }
};

struct TimeDecayTraits {
  using Sketch = TimeDecaySampler;
  static constexpr char kName[] = "time_decay";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kTimeDecay;
  static Sketch Make() { return TimeDecaySampler(/*k=*/12, /*seed=*/0x5eed); }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const double weight = std::exp(0.5 * rng.NextGaussian());
      s.Add(DisjointKey(seed, i), weight, /*value=*/weight,
            /*time=*/0.01 * static_cast<double>(i));
    }
  }
};

struct MultiStratifiedTraits {
  using Sketch = MultiStratifiedSampler;
  static constexpr char kName[] = "multi_stratified";
  static constexpr persist::SchemeKind kKind =
      persist::SchemeKind::kMultiStratified;
  static Sketch Make() {
    return MultiStratifiedSampler(/*num_dimensions=*/2, /*k=*/5,
                                  /*seed=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = DisjointKey(seed, i);
      s.Add(key, {key % 3, key % 4}, /*value=*/1.0 + 0.5 * i);
    }
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.num_dimensions() == 2 && v.k() == 5;  // Make()'s shape
  }
};

struct VarianceSizedTraits {
  using Sketch = VarianceSizedSampler;
  static constexpr char kName[] = "variance_sized";
  static constexpr persist::SchemeKind kKind =
      persist::SchemeKind::kVarianceSized;
  static Sketch Make() {
    return VarianceSizedSampler(/*delta_squared=*/0.5, /*seed=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const double weight = std::exp(0.5 * rng.NextGaussian());
      s.Add(DisjointKey(seed, i), /*value=*/weight, weight);
    }
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.delta_squared() == 0.5;  // Make()'s target
  }
};

struct MultiObjectiveTraits {
  using Sketch = MultiObjectiveSampler;
  static constexpr char kName[] = "multi_objective";
  static constexpr persist::SchemeKind kKind =
      persist::SchemeKind::kMultiObjective;
  static Sketch Make() {
    return MultiObjectiveSampler(/*num_objectives=*/3, /*k=*/8,
                                 /*seed=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    std::vector<double> weights(3);
    for (size_t i = 0; i < n; ++i) {
      for (double& w : weights) w = std::exp(0.5 * rng.NextGaussian());
      s.Add(DisjointKey(seed, i), weights, /*value=*/1.0 + 0.25 * i);
    }
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.num_objectives() == 3;  // Make()'s objective count
  }
};

struct BudgetTraits {
  using Sketch = BudgetSampler;
  static constexpr char kName[] = "budget";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kBudget;
  static Sketch Make() {
    return BudgetSampler(/*budget=*/20.0, /*seed=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const double size = 0.5 + rng.NextDoubleOpenZero();
      const double weight = std::exp(0.5 * rng.NextGaussian());
      s.Add(DisjointKey(seed, i), size, /*value=*/size * weight, weight);
    }
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.budget() == 20.0;  // Make()'s budget
  }
};

using SamplerFamilies =
    ::testing::Types<SlidingWindowTraits, TimeDecayTraits,
                     MultiStratifiedTraits, VarianceSizedTraits,
                     MultiObjectiveTraits, BudgetTraits>;
INSTANTIATE_TYPED_TEST_SUITE_P(Samplers, SchemeConformance, SamplerFamilies);

}  // namespace
}  // namespace ats::conformance
