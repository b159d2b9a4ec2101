// The AVX2 build of the vector kernel bodies (linalg/kernel_bodies.inc),
// tpcp::kernels_avx2::kTable.
//
// The unit is compiled with the build's own flags (no -mavx2) and opens
// an AVX2 target region in the source, so every x86-64 build carries it
// and kernels.cc runs it when the CPU reports AVX2. Every header is
// included before the region opens: an inline function or template
// instantiated inside it could be the copy the linker keeps for baseline
// callers. The target is "avx2", not "fma", and the build keeps
// -ffp-contract=off, so MulAdd rounds twice here as everywhere.

#include "linalg/simd.h"

#if defined(TPCP_KERNELS_AVX2)

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx2")

namespace tpcp {
namespace kernels_avx2 {
namespace simd {

constexpr int kWidth = 4;
constexpr const char* kTargetName = "avx2";

struct VecD {
  __m256d v;
};

inline VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void Store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
}
inline unsigned NonZeroMask(VecD a) {
  // Not-equal, unordered: NaN lanes are set, +0.0 and -0.0 are not.
  return static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_cmp_pd(a.v, _mm256_setzero_pd(), _CMP_NEQ_UQ)));
}

}  // namespace simd

#include "linalg/kernel_bodies.inc"

}  // namespace kernels_avx2
}  // namespace tpcp

#pragma GCC pop_options

#endif  // TPCP_KERNELS_AVX2
