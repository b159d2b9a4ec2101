#include "linalg/kernels.h"

#include "linalg/simd.h"

namespace tpcp {
namespace {

// ---- Scalar reference bodies -------------------------------------------
//
// These are the exact pre-SIMD loops; the vector bodies
// (linalg/kernel_bodies.inc) must replay the same per-element operation
// sequence (same multiplies, same adds, in the same order, same
// zero-skips) to stay bit-identical.

void MicroKernelNNScalar(const double* a, int64_t lda, const double* b,
                         int64_t ldb, double* c, int64_t ldc, int64_t mb,
                         int64_t nb, int64_t kb) {
  for (int64_t i = 0; i < mb; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (int64_t p = 0; p < kb; ++p) {
      const double aip = a_row[p];
      if (aip == 0.0) continue;
      const double* b_row = b + p * ldb;
      for (int64_t j = 0; j < nb; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
}

void MicroKernelTNScalar(const double* a, int64_t lda, const double* b,
                         int64_t ldb, double* c, int64_t ldc, int64_t mb,
                         int64_t nb, int64_t kb, double alpha) {
  for (int64_t p = 0; p < kb; ++p) {
    const double* a_row = a + p * lda;
    const double* b_row = b + p * ldb;
    for (int64_t i = 0; i < mb; ++i) {
      const double aip = alpha * a_row[i];
      if (aip == 0.0) continue;
      double* c_row = c + i * ldc;
      for (int64_t j = 0; j < nb; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
}

void HadamardScalar(double* a, const double* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] *= b[i];
}

void MttkrpRow3Scalar(double* dst, double v, const double* r1,
                      const double* r2, int64_t f) {
  for (int64_t c = 0; c < f; ++c) dst[c] += v * r1[c] * r2[c];
}

void MttkrpFiber3Scalar(double* dst, int64_t dst_step, const double* x,
                        int64_t len, const double* r1, const double* r2,
                        int64_t r2_step, int64_t f) {
  for (int64_t j = 0; j < len; ++j) {
    if (x[j] == 0.0) continue;
    MttkrpRow3Scalar(dst + j * dst_step, x[j], r1, r2 + j * r2_step, f);
  }
}

void MttkrpSeedScalar(double* prod, double v, const double* row,
                      int64_t f) {
  for (int64_t c = 0; c < f; ++c) prod[c] = v * row[c];
}

void MttkrpAccumScalar(double* dst, const double* src, int64_t f) {
  for (int64_t c = 0; c < f; ++c) dst[c] += src[c];
}

}  // namespace

const KernelTable kScalarKernels = {
    "scalar",           MicroKernelNNScalar, MicroKernelTNScalar,
    HadamardScalar,     MttkrpRow3Scalar,    MttkrpFiber3Scalar,
    MttkrpSeedScalar,   MttkrpAccumScalar};

#if defined(TPCP_SIMD_NEON)
namespace kernels_neon {
#include "linalg/kernel_bodies.inc"
}  // namespace kernels_neon
#endif

const KernelTable* ChooseSimdKernels() {
#if defined(TPCP_KERNELS_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &kernels_avx2::kTable;
#elif defined(TPCP_SIMD_NEON)
  return &kernels_neon::kTable;
#endif
  return &kScalarKernels;
}

const char* KernelVariantName(KernelVariant variant) {
  return variant == KernelVariant::kScalar ? "scalar" : "simd";
}

}  // namespace tpcp
