// Differential tests for the SIMD kernel tier (src/ats/core/simd/).
//
// Every kernel is pinned to the scalar reference at every dispatch level
// the host CPU supports: bit-exact for the mask and hash kernels, and
// bit-exact for log_span (all levels evaluate the FastLog operation
// sequence with plain IEEE arithmetic in fixed order). FastLog itself is
// pinned to libm within 2 ulp across normals, denormals, and the
// boundary values the samplers can feed it.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"
#include "ats/core/simd/fast_log.h"
#include "ats/core/simd/kernels.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/sketch/kmv.h"

namespace ats {
namespace {

using simd::ActiveKernels;
using simd::ActiveSimdLevel;
using simd::DetectedSimdLevel;
using simd::ScopedSimdLevel;
using simd::SetSimdLevel;
using simd::SimdLevel;
using simd::SimdLevelName;

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse2)
    levels.push_back(SimdLevel::kSse2);
  if (DetectedSimdLevel() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

int64_t UlpDistance(double a, double b) {
  if (a == b) return 0;
  int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  // Map the sign-magnitude bit pattern onto a monotone integer line.
  if (ia < 0) ia = std::numeric_limits<int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int64_t>::min() - ib;
  const int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

TEST(SimdDispatch, DetectionAndNames) {
  const SimdLevel best = DetectedSimdLevel();
  EXPECT_GE(best, SimdLevel::kScalar);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  // The active level never exceeds detection.
  EXPECT_LE(ActiveSimdLevel(), best);
}

TEST(SimdDispatch, SetLevelClampsAboveDetected) {
  const SimdLevel best = DetectedSimdLevel();
  const SimdLevel before = ActiveSimdLevel();
  // Forcing a supported level is honored.
  EXPECT_TRUE(SetSimdLevel(SimdLevel::kScalar));
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Forcing above detection clamps to the detected best and reports it.
  const bool honored = SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_EQ(honored, best >= SimdLevel::kAvx2);
  EXPECT_EQ(ActiveSimdLevel(), best >= SimdLevel::kAvx2
                                   ? SimdLevel::kAvx2
                                   : best);
  SetSimdLevel(before);
}

TEST(SimdDispatch, ScopedOverrideRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

// --- prefilter_mask64 -------------------------------------------------

TEST(PrefilterMask, MatchesScalarAtEveryLevelUnaligned) {
  Xoshiro256 rng(0x5eedu);
  // Offset storage so the kernel sees deliberately unaligned pointers.
  std::vector<double> storage(64 + 9);
  for (size_t offset : {0u, 1u, 3u, 7u}) {
    double* p = storage.data() + offset;
    for (size_t i = 0; i < 64; ++i) p[i] = rng.NextDouble();
    // Seed hostile values: exact-equal-to-bound, NaN, +/-inf, denormal.
    p[0] = 0.5;
    p[7] = std::numeric_limits<double>::quiet_NaN();
    p[13] = std::numeric_limits<double>::infinity();
    p[21] = -std::numeric_limits<double>::infinity();
    p[33] = 4.9e-324;  // min denormal
    p[40] = 0.0;
    p[41] = -0.0;
    for (double bound : {0.5, 0.0, 1.0,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
      uint64_t expected = 0;
      for (size_t j = 0; j < 64; ++j) {
        expected |= static_cast<uint64_t>(p[j] < bound) << j;
      }
      for (SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel scoped(level);
        EXPECT_EQ(ActiveKernels().prefilter_mask64(p, bound), expected)
            << "level=" << SimdLevelName(level) << " offset=" << offset
            << " bound=" << bound;
      }
    }
  }
}

// --- hash_priority_mask64 ---------------------------------------------

TEST(HashPriorityMask, BitExactAtEveryLevelUnaligned) {
  Xoshiro256 rng(0xfeedu);
  std::vector<uint64_t> key_storage(64 + 9);
  for (size_t offset : {0u, 1u, 5u}) {
    uint64_t* keys = key_storage.data() + offset;
    for (size_t i = 0; i < 64; ++i) keys[i] = rng.Next();
    keys[0] = 0;
    keys[1] = ~0ull;
    for (uint64_t salt : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
      for (double bound : {0.0, 0.25, 1.0,
                           std::numeric_limits<double>::infinity()}) {
        double expected_p[64];
        uint64_t expected_mask = 0;
        for (size_t j = 0; j < 64; ++j) {
          expected_p[j] = HashToUnit(HashKey(keys[j], salt));
          expected_mask |=
              static_cast<uint64_t>(expected_p[j] < bound) << j;
        }
        for (SimdLevel level : AvailableLevels()) {
          ScopedSimdLevel scoped(level);
          alignas(64) double got_p[64];
          const uint64_t got_mask = ActiveKernels().hash_priority_mask64(
              keys, salt, bound, got_p);
          EXPECT_EQ(got_mask, expected_mask)
              << "level=" << SimdLevelName(level) << " salt=" << salt;
          for (size_t j = 0; j < 64; ++j) {
            // Bit-exact: compare representations, not values.
            EXPECT_EQ(std::bit_cast<uint64_t>(got_p[j]),
                      std::bit_cast<uint64_t>(expected_p[j]))
                << "level=" << SimdLevelName(level) << " j=" << j;
          }
        }
      }
    }
  }
}

// --- log_span / FastLog -----------------------------------------------

std::vector<double> LogTestInputs() {
  // Boundary and hostile values.
  std::vector<double> xs{1.0, 0x1.fffffffffffffp-1, 0x1.0000000000001p0,
                         2.0, 0.5, std::exp(1.0), 4.9e-324,
                         2.2250738585072014e-308,
                         2.2250738585072009e-308,  // max denormal
                         1e-300, 1e300, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity(),
                         0.70710678118, 1.4142135623730951, 3.0, 10.0,
                         1e-10, 1e10};
  // Random spread over the uniform-(0,1] range the samplers draw from,
  // plus wide exponents.
  Xoshiro256 rng(0xab5eedu);
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.NextDoubleOpenZero());
  for (int i = 0; i < 5000; ++i) {
    const int exp2 = static_cast<int>(rng.Next() % 2100) - 1074;
    xs.push_back(std::ldexp(1.0 + rng.NextDouble(), exp2));
  }
  return xs;
}

TEST(FastLog, Within2UlpOfLibm) {
  for (double x : LogTestInputs()) {
    const double got = simd::FastLog(x);
    const double want = std::log(x);
    if (std::isinf(want)) {
      EXPECT_EQ(got, want) << "x=" << x;
    } else {
      EXPECT_LE(UlpDistance(got, want), 2) << "x=" << x;
    }
  }
  EXPECT_EQ(simd::FastLog(1.0), 0.0);
  EXPECT_FALSE(std::signbit(simd::FastLog(1.0)));
}

TEST(LogSpan, BitExactAcrossLevelsAllTailLengths) {
  const std::vector<double> inputs = LogTestInputs();
  // Every tail length 0..63 plus offsets to force unaligned loads.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 31u, 63u, 64u,
                   100u, 257u}) {
    for (size_t offset : {0u, 1u, 3u}) {
      ASSERT_LE(offset + n, inputs.size());
      const double* x = inputs.data() + offset;
      std::vector<double> expected(n);
      for (size_t i = 0; i < n; ++i) expected[i] = simd::FastLog(x[i]);
      for (SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel scoped(level);
        std::vector<double> got(n, -1.0);
        ActiveKernels().log_span(x, got.data(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(expected[i]))
              << "level=" << SimdLevelName(level) << " n=" << n
              << " i=" << i << " x=" << x[i];
        }
      }
    }
  }
}

TEST(LogSpan, InPlaceAllowed) {
  const std::vector<double> inputs = LogTestInputs();
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    std::vector<double> buf(inputs.begin(), inputs.begin() + 200);
    std::vector<double> expected(200);
    for (size_t i = 0; i < 200; ++i)
      expected[i] = simd::FastLog(buf[i]);
    ActiveKernels().log_span(buf.data(), buf.data(), buf.size());
    EXPECT_EQ(buf, expected) << "level=" << SimdLevelName(level);
  }
}

// --- End-to-end: vectorized ingest parity across dispatch levels ------

// The full keyed-ingest pipeline (HashedBatchOffer) must produce an
// identical sampler state at every dispatch level, for every tail length
// 0..63 relative to the 64-wide block size.
TEST(DispatchParity, HashedIngestIdenticalAtEveryLevelAndTail) {
  std::vector<uint64_t> keys(3 * 64 + 63);
  Xoshiro256 rng(0x1234u);
  for (auto& k : keys) k = rng.Next();

  for (size_t tail = 0; tail < 64; tail += 7) {
    const size_t n = 2 * 64 + tail;
    std::string batched_reference;
    size_t accepted_reference = 0;
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimdLevel scoped(level);
      KmvSketch batched(48, 1.0, /*hash_salt=*/7);
      const size_t accepted =
          batched.AddKeys(std::span(keys.data(), n));
      const std::string state = batched.SerializeToString();
      if (level == SimdLevel::kScalar) {
        batched_reference = state;
        accepted_reference = accepted;
        // The batched pipeline must also equal the one-at-a-time path.
        KmvSketch serial(48, 1.0, /*hash_salt=*/7);
        for (size_t i = 0; i < n; ++i) serial.AddKey(keys[i]);
        EXPECT_EQ(state, serial.SerializeToString()) << "n=" << n;
      } else {
        EXPECT_EQ(state, batched_reference)
            << "level=" << SimdLevelName(level) << " n=" << n;
        EXPECT_EQ(accepted, accepted_reference)
            << "level=" << SimdLevelName(level) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace ats
