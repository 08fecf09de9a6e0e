// Runtime-dispatched SIMD kernel tier for the sampling hot paths.
//
// Three kernels sit under every batched ingest loop in the library:
//
//   * prefilter_mask64 -- the 64-wide block pre-filter: one bit per item,
//     set iff priority < bound. This is the compare scan behind
//     SampleStore::OfferBatch, the MergeMany/MergeValidatedViews gather
//     passes, and every sampler's block-prefiltered AddBatch.
//   * hash_priority_mask64 -- the fused hash -> priority -> pre-filter
//     block: Mix64 key hashing, hash -> unit-interval conversion, and the
//     threshold compare in one pass (SampleStore::HashedBatchOffer; the
//     batched front-ends of KMV/Theta and every keyed store).
//   * log_span -- elementwise natural log via the FastLog reference
//     (fast_log.h): the log-free exponential-priority path used by
//     Xoshiro256::NextExponential/FillExponentials and the time-decay
//     sampler's log-key columns.
//
// Dispatch model: one implementation table per level --
//   kAvx2 > kSse2 > kScalar
// -- selected ONCE from CPUID (via compiler builtins) the first time a
// kernel is called, overridable for testing with the ATS_SIMD_LEVEL
// environment variable ("scalar" | "sse2" | "avx2") or programmatically
// with SetSimdLevel. Requesting a level above what the CPU supports
// falls back to the best available level (so a forced-AVX2 CI leg skips
// gracefully on a runner without AVX2). On non-x86 builds only kScalar
// exists.
//
// Exactness contract (differential-tested at every available level in
// tests/simd_kernels_test.cc):
//   * prefilter_mask64 / hash_priority_mask64: BIT-EXACT across levels.
//     Integer hashing is exact arithmetic; the hash -> double conversion
//     is exact (the 53-bit value converts without rounding); the compare
//     follows IEEE `<` semantics (NaN never a candidate).
//   * log_span: BIT-EXACT across levels -- every level evaluates the
//     FastLog operation sequence, which is plain IEEE +,-,*,/ in fixed
//     order (no FMA; the build sets -ffp-contract=off), so scalar and
//     SIMD lanes agree bit-for-bit. Against libm's correctly-rounded
//     log the shared result is within 2 ulp (see fast_log.h).
//
// Thread-safety: ActiveKernels()/ActiveSimdLevel() are safe to call
// concurrently (one atomic acquire load after first-use init).
// SetSimdLevel is a test/bench hook: do not flip levels while another
// thread is mid-ingest -- kernels themselves are pure functions, so the
// only hazard is a torn A/B perf comparison, not data corruption.
#ifndef ATS_CORE_SIMD_SIMD_DISPATCH_H_
#define ATS_CORE_SIMD_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace ats::simd {

enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Stable lowercase name ("scalar" | "sse2" | "avx2"): bench JSON context,
// env-var parsing, log lines.
const char* SimdLevelName(SimdLevel level);

// Best level this CPU supports (computed once).
SimdLevel DetectedSimdLevel();

// Level currently driving ActiveKernels(). First call resolves
// ATS_SIMD_LEVEL (unset/empty/unknown values mean "detected best").
SimdLevel ActiveSimdLevel();

// Re-points the kernel table. A request above DetectedSimdLevel() clamps
// to the detected best and returns false (the forced-AVX2 CI leg uses
// this to skip gracefully); otherwise returns true.
bool SetSimdLevel(SimdLevel level);

// One resolved kernel set. All pointers are always non-null.
struct KernelTable {
  // Bit j of the result is set iff priorities[j] < bound, j in [0, 64).
  // `priorities` need not be aligned.
  uint64_t (*prefilter_mask64)(const double* priorities, double bound);
  // For j in [0, 64): priorities_out[j] = HashToUnit(HashKey(keys[j],
  // salt)); bit j of the result is set iff priorities_out[j] < bound.
  // Bit-exact vs the scalar HashKey/HashToUnit composition.
  uint64_t (*hash_priority_mask64)(const uint64_t* keys, uint64_t salt,
                                   double bound, double* priorities_out);
  // out[i] = FastLog(x[i]) for i in [0, n). In-place (out == x) allowed.
  void (*log_span)(const double* x, double* out, size_t n);
};

// The active table (atomic acquire load; init on first use).
const KernelTable& ActiveKernels();

// RAII level override for tests and A/B benches: clamps like
// SetSimdLevel, restores the previous level on destruction.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : previous_(ActiveSimdLevel()) {
    SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { SetSimdLevel(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

}  // namespace ats::simd

#endif  // ATS_CORE_SIMD_SIMD_DISPATCH_H_
