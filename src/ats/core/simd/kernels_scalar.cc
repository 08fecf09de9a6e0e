// Scalar reference kernels: the semantics every SIMD level is pinned to.
// This translation unit is compiled WITHOUT auto-vectorization (see the
// per-file flags in CMakeLists.txt) so the forced-scalar dispatch level
// measures a genuine scalar loop, not whatever the optimizer invents --
// that is the baseline the bench tier's speedup claims are made against.
#include "ats/core/simd/kernels.h"

#include <cstddef>
#include <cstdint>

#include "ats/core/random.h"
#include "ats/core/simd/fast_log.h"

namespace ats::simd::internal {
namespace {

uint64_t ScalarPrefilterMask64(const double* priorities, double bound) {
  uint64_t mask = 0;
  for (size_t j = 0; j < 64; ++j) {
    mask |= static_cast<uint64_t>(priorities[j] < bound) << j;
  }
  return mask;
}

void ScalarLogSpan(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = FastLog(x[i]);
}

}  // namespace

uint64_t ScalarHashPriorityMask64(const uint64_t* keys, uint64_t salt,
                                  double bound, double* priorities_out) {
  uint64_t mask = 0;
  for (size_t j = 0; j < 64; ++j) {
    const double p = HashToUnit(HashKey(keys[j], salt));
    priorities_out[j] = p;
    mask |= static_cast<uint64_t>(p < bound) << j;
  }
  return mask;
}

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable{
      ScalarPrefilterMask64,
      ScalarHashPriorityMask64,
      ScalarLogSpan,
  };
  return kTable;
}

}  // namespace ats::simd::internal
