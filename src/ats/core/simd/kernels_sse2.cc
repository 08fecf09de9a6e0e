// SSE2 kernel table: 2-lane implementations of the prefilter and log
// kernels, restricted to the x86-64 baseline ISA (blends emulated with
// and/andnot/or, no SSE4.1). Operation order matches fast_log.h exactly,
// so results are bit-identical to both the scalar and the AVX2 levels.
// The hash kernel is the scalar one: SSE2 has no 64-bit multiply, and
// emulating Mix64's two per lane is no faster than the scalar loop.
#include "ats/core/simd/kernels.h"

#if ATS_SIMD_X86

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "ats/core/simd/fast_log.h"

namespace ats::simd::internal {
namespace {

inline __m128d Blend(__m128d a, __m128d b, __m128d mask) {
  return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
}

uint64_t Sse2PrefilterMask64(const double* priorities, double bound) {
  const __m128d b = _mm_set1_pd(bound);
  uint64_t mask = 0;
  for (size_t v = 0; v < 32; ++v) {
    const __m128d p = _mm_loadu_pd(priorities + 2 * v);
    const int bits = _mm_movemask_pd(_mm_cmplt_pd(p, b));
    mask |= static_cast<uint64_t>(bits) << (2 * v);
  }
  return mask;
}

inline __m128d FastLogX2(__m128d x) {
  const __m128d orig = x;
  const __m128d denorm = _mm_cmplt_pd(x, _mm_set1_pd(kMinNormal));
  x = Blend(x, _mm_mul_pd(x, _mm_set1_pd(kTwo54)), denorm);
  const __m128i k_adjust =
      _mm_and_si128(_mm_castpd_si128(denorm), _mm_set1_epi64x(-54));
  __m128i ix = _mm_castpd_si128(x);
  const __m128i hx = _mm_srli_epi64(ix, 32);
  __m128i k = _mm_add_epi64(
      _mm_sub_epi64(_mm_srli_epi64(hx, 20), _mm_set1_epi64x(1023)),
      k_adjust);
  const __m128i mant_hi = _mm_and_si128(hx, _mm_set1_epi64x(0xfffff));
  const __m128i i = _mm_and_si128(
      _mm_add_epi64(mant_hi, _mm_set1_epi64x(0x95f64)),
      _mm_set1_epi64x(0x100000));
  const __m128i new_hi = _mm_or_si128(
      mant_hi, _mm_xor_si128(i, _mm_set1_epi64x(0x3ff00000)));
  ix = _mm_or_si128(_mm_slli_epi64(new_hi, 32),
                    _mm_and_si128(ix, _mm_set1_epi64x(0xffffffffLL)));
  x = _mm_castsi128_pd(ix);
  k = _mm_add_epi64(k, _mm_srli_epi64(i, 20));

  const __m128d one = _mm_set1_pd(1.0);
  const __m128d f = _mm_sub_pd(x, one);
  const __m128d s = _mm_div_pd(f, _mm_add_pd(_mm_set1_pd(2.0), f));
  const __m128d z = _mm_mul_pd(s, s);
  const __m128d w = _mm_mul_pd(z, z);
  const __m128d t1 = _mm_mul_pd(
      w, _mm_add_pd(
             _mm_set1_pd(kLg2),
             _mm_mul_pd(w, _mm_add_pd(_mm_set1_pd(kLg4),
                                      _mm_mul_pd(
                                          w, _mm_set1_pd(kLg6))))));
  const __m128d t2 = _mm_mul_pd(
      z, _mm_add_pd(
             _mm_set1_pd(kLg1),
             _mm_mul_pd(
                 w, _mm_add_pd(
                        _mm_set1_pd(kLg3),
                        _mm_mul_pd(
                            w, _mm_add_pd(
                                   _mm_set1_pd(kLg5),
                                   _mm_mul_pd(
                                       w, _mm_set1_pd(kLg7))))))));
  const __m128d r = _mm_add_pd(t2, t1);
  const __m128d hfsq = _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(0.5), f), f);
  const __m128d dk = _mm_sub_pd(
      _mm_castsi128_pd(
          _mm_or_si128(_mm_add_epi64(k, _mm_set1_epi64x(1075)),
                       _mm_set1_epi64x(0x4330000000000000LL))),
      _mm_set1_pd(0x1.0p52 + 1075.0));
  const __m128d result = _mm_sub_pd(
      _mm_mul_pd(dk, _mm_set1_pd(kLn2Hi)),
      _mm_sub_pd(
          _mm_sub_pd(hfsq,
                     _mm_add_pd(_mm_mul_pd(s, _mm_add_pd(hfsq, r)),
                                _mm_mul_pd(dk, _mm_set1_pd(kLn2Lo)))),
          f));
  const __m128d inf_mask =
      _mm_cmpeq_pd(orig, _mm_set1_pd(__builtin_inf()));
  return Blend(result, orig, inf_mask);
}

void Sse2LogSpan(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, FastLogX2(_mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = FastLog(x[i]);
}

}  // namespace

const KernelTable& Sse2Kernels() {
  static constexpr KernelTable kTable{
      Sse2PrefilterMask64,
      ScalarHashPriorityMask64,
      Sse2LogSpan,
  };
  return kTable;
}

}  // namespace ats::simd::internal

#endif  // ATS_SIMD_X86
