// Conformance-kit instantiation for the core and sketch-tier families:
// BottomK<uint64_t>, PrioritySampler, KmvSketch, ThetaSketch, and
// GroupDistinctSketch. Shape parameters are fixed and small so the
// O(length^2) hostile sweeps stay fast; every Ingest is deterministic
// in `seed` and key-disjoint across seeds (kit contract).
#include <cmath>
#include <cstdint>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/theta.h"
#include "tests/conformance/conformance_kit.h"

namespace ats::conformance {
namespace {

// Seed-disjoint key space: distinct seeds never produce the same key.
uint64_t DisjointKey(uint64_t seed, size_t i) {
  return seed * 1'000'000 + static_cast<uint64_t>(i);
}

struct BottomKU64Traits {
  using Sketch = BottomK<uint64_t>;
  static constexpr char kName[] = "bottom_k_u64";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kBottomK;
  static Sketch Make() { return Sketch(12); }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      s.Offer(rng.NextDoubleOpenZero(), DisjointKey(seed, i));
    }
  }
};

struct PrioritySamplerTraits {
  using Sketch = PrioritySampler;
  static constexpr char kName[] = "priority_sampler";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kPriority;
  static Sketch Make() {
    return PrioritySampler(12, /*seed=*/0x5eed, /*coordinated=*/false);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      s.Add(DisjointKey(seed, i), std::exp(0.5 * rng.NextGaussian()));
    }
  }
};

struct KmvTraits {
  using Sketch = KmvSketch;
  static constexpr char kName[] = "kmv";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kKmv;
  static Sketch Make() {
    return KmvSketch(12, /*initial_threshold=*/1.0, /*hash_salt=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    for (size_t i = 0; i < n; ++i) s.AddKey(DisjointKey(seed, i));
  }
  static bool MergeCompatible(const Sketch::FrameView& v) {
    return v.hash_salt() == 0x5eed;  // Make()'s salt
  }
};

struct ThetaTraits {
  using Sketch = ThetaSketch;
  static constexpr char kName[] = "theta";
  static constexpr persist::SchemeKind kKind = persist::SchemeKind::kTheta;
  static Sketch Make() { return ThetaSketch(12, /*hash_salt=*/0x5eed); }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    for (size_t i = 0; i < n; ++i) s.AddKey(DisjointKey(seed, i));
  }
};

struct GroupDistinctTraits {
  using Sketch = GroupDistinctSketch;
  static constexpr char kName[] = "group_distinct";
  static constexpr persist::SchemeKind kKind =
      persist::SchemeKind::kGroupDistinct;
  static Sketch Make() {
    return GroupDistinctSketch(/*m=*/8, /*k=*/8, /*hash_salt=*/0x5eed);
  }
  static void Ingest(Sketch& s, uint64_t seed, size_t n) {
    Xoshiro256 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      s.Add(/*group=*/rng.NextBelow(8), DisjointKey(seed, i));
    }
  }
};

using CoreFamilies =
    ::testing::Types<BottomKU64Traits, PrioritySamplerTraits, KmvTraits,
                     ThetaTraits, GroupDistinctTraits>;
INSTANTIATE_TYPED_TEST_SUITE_P(Core, SchemeConformance, CoreFamilies);

}  // namespace
}  // namespace ats::conformance
