// SIMD kernel tier microbenchmarks (google-benchmark): each dispatched
// kernel against its forced-scalar twin, plus the end-to-end paths the
// kernels sit under.
//
//   ./build/bench/bench_simd
//   ./build/bench/bench_simd --json=BENCH_simd.json
//
// Headline comparisons:
//   * BM_PrefilterMask/{scalar,dispatched} -- the 64-wide block compare
//     scan (VisitBlockCandidates; the acceptance criterion is the
//     dispatched scan at >= 2x the scalar kernel).
//   * BM_HashPriorityMask/{scalar,dispatched} -- the fused
//     hash->priority->pre-filter block (SampleStore::HashedBatchOffer).
//   * BM_LogSpan/{libm,scalar,dispatched} -- the FastLog column kernel
//     vs a plain std::log loop and vs the forced-scalar FastLog loop.
//   * BM_FillExponentials vs BM_NextExponentialLoop -- the batched
//     log-free exponential draw against per-call draws.
//   * BM_HashedBatchOffer/{scalar,dispatched} -- a full KMV AddKeys
//     ingest sweep at both dispatch extremes.
//
// The JSON context records ats_simd_level / ats_simd_detected, so every
// number is attributable to the level that produced it.
#include <cmath>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/core/random.h"
#include "ats/core/simd/fast_log.h"
#include "ats/core/simd/kernels.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/sketch/kmv.h"

namespace ats {
namespace {

using simd::ActiveKernels;
using simd::ScopedSimdLevel;
using simd::SimdLevel;

constexpr size_t kBlocks = 1024;  // 64 Ki doubles per sweep

std::vector<double> MakePriorities() {
  Xoshiro256 rng(11);
  std::vector<double> p(kBlocks * 64);
  for (auto& v : p) v = rng.NextDouble();
  return p;
}

std::vector<uint64_t> MakeKeys() {
  Xoshiro256 rng(12);
  std::vector<uint64_t> keys(kBlocks * 64);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

void PrefilterSweep(benchmark::State& state, SimdLevel level) {
  ScopedSimdLevel scoped(level);
  const auto priorities = MakePriorities();
  const auto fn = ActiveKernels().prefilter_mask64;
  // bound = 0.02: candidate blocks are rare, like a saturated store.
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t b = 0; b < kBlocks; ++b) {
      acc ^= fn(priorities.data() + 64 * b, 0.02);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlocks * 64));
}

void BM_PrefilterMaskScalar(benchmark::State& state) {
  PrefilterSweep(state, SimdLevel::kScalar);
}
BENCHMARK(BM_PrefilterMaskScalar);

void BM_PrefilterMaskDispatched(benchmark::State& state) {
  PrefilterSweep(state, simd::DetectedSimdLevel());
}
BENCHMARK(BM_PrefilterMaskDispatched);

void HashPrioritySweep(benchmark::State& state, SimdLevel level) {
  ScopedSimdLevel scoped(level);
  const auto keys = MakeKeys();
  const auto fn = ActiveKernels().hash_priority_mask64;
  alignas(64) double priorities[64];
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t b = 0; b < kBlocks; ++b) {
      acc ^= fn(keys.data() + 64 * b, 7, 0.02, priorities);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(priorities[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlocks * 64));
}

void BM_HashPriorityMaskScalar(benchmark::State& state) {
  HashPrioritySweep(state, SimdLevel::kScalar);
}
BENCHMARK(BM_HashPriorityMaskScalar);

void BM_HashPriorityMaskDispatched(benchmark::State& state) {
  HashPrioritySweep(state, simd::DetectedSimdLevel());
}
BENCHMARK(BM_HashPriorityMaskDispatched);

std::vector<double> MakeLogInputs() {
  Xoshiro256 rng(13);
  std::vector<double> xs(kBlocks * 64);
  for (auto& v : xs) v = rng.NextDoubleOpenZero();
  return xs;
}

void BM_LogSpanLibm(benchmark::State& state) {
  const auto xs = MakeLogInputs();
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    for (size_t i = 0; i < xs.size(); ++i) out[i] = std::log(xs[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_LogSpanLibm);

void LogSpanSweep(benchmark::State& state, SimdLevel level) {
  ScopedSimdLevel scoped(level);
  const auto xs = MakeLogInputs();
  std::vector<double> out(xs.size());
  const auto fn = ActiveKernels().log_span;
  for (auto _ : state) {
    fn(xs.data(), out.data(), xs.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(xs.size()));
}

void BM_LogSpanScalar(benchmark::State& state) {
  LogSpanSweep(state, SimdLevel::kScalar);
}
BENCHMARK(BM_LogSpanScalar);

void BM_LogSpanDispatched(benchmark::State& state) {
  LogSpanSweep(state, simd::DetectedSimdLevel());
}
BENCHMARK(BM_LogSpanDispatched);

void BM_NextExponentialLoop(benchmark::State& state) {
  Xoshiro256 rng(14);
  std::vector<double> out(kBlocks * 64);
  for (auto _ : state) {
    for (auto& v : out) v = rng.NextExponential();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_NextExponentialLoop);

void BM_FillExponentials(benchmark::State& state) {
  Xoshiro256 rng(14);
  std::vector<double> out(kBlocks * 64);
  for (auto _ : state) {
    rng.FillExponentials(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_FillExponentials);

void HashedBatchOfferSweep(benchmark::State& state, SimdLevel level) {
  ScopedSimdLevel scoped(level);
  const auto keys = MakeKeys();
  for (auto _ : state) {
    KmvSketch sketch(1024, 1.0, 7);
    benchmark::DoNotOptimize(sketch.AddKeys(keys));
    benchmark::DoNotOptimize(sketch.Threshold());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}

void BM_HashedBatchOfferScalar(benchmark::State& state) {
  HashedBatchOfferSweep(state, SimdLevel::kScalar);
}
BENCHMARK(BM_HashedBatchOfferScalar);

void BM_HashedBatchOfferDispatched(benchmark::State& state) {
  HashedBatchOfferSweep(state, simd::DetectedSimdLevel());
}
BENCHMARK(BM_HashedBatchOfferDispatched);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_simd.json")
