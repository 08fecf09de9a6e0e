// Internal: per-level kernel tables wired together by simd_dispatch.cc.
// Each kernels_*.cc translation unit owns one table; the AVX2 unit is
// compiled with -mavx2 regardless of the global architecture flags, so
// its table must only be DEREFERENCED after runtime detection says the
// CPU can execute it (simd_dispatch.cc guarantees that).
#ifndef ATS_CORE_SIMD_KERNELS_H_
#define ATS_CORE_SIMD_KERNELS_H_

#include "ats/core/simd/simd_dispatch.h"

// The SSE2/AVX2 units are x86-64 only; on other architectures only the
// scalar table exists and dispatch never looks past it.
#if defined(__x86_64__) || defined(_M_X64)
#define ATS_SIMD_X86 1
#else
#define ATS_SIMD_X86 0
#endif

namespace ats::simd::internal {

const KernelTable& ScalarKernels();
// The scalar hash_priority_mask64, which the SSE2 table shares.
uint64_t ScalarHashPriorityMask64(const uint64_t* keys, uint64_t salt,
                                  double bound, double* priorities_out);
#if ATS_SIMD_X86
const KernelTable& Sse2Kernels();
const KernelTable& Avx2Kernels();
#endif

}  // namespace ats::simd::internal

#endif  // ATS_CORE_SIMD_KERNELS_H_
