#include "linalg/kernels.h"

#include <algorithm>

#include "linalg/simd.h"

namespace tpcp {
namespace {

// ---- Scalar reference bodies -------------------------------------------
//
// These are the exact pre-SIMD loops; the vector forms below must replay
// the same per-element operation sequence (same multiplies, same adds, in
// the same order, same zero-skips) to stay bit-identical.

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

// ---- Vector bodies ------------------------------------------------------
//
// Register blocking: C strips of kRowStrip rows x two vectors of columns
// stay in registers across the whole k extent, so each C element is
// loaded/stored once per tile instead of once per k step. The k loop is
// innermost and ascends, which for every C element replays the scalar
// loops' per-element accumulation order exactly; the per-(row, k)
// zero-skip is a scalar branch on the broadcast value, preserving
// skip-means-no-update semantics (-0.0 / inf / NaN edge cases included).

constexpr int64_t kRowStrip = 4;

// Shared i/j blocking for both Gemm microkernels: `AVal(r, p)` abstracts
// the operand layout (NN reads A row-major per C row; TN reads A
// column-strided with the alpha scale folded in).
template <typename AVal>
void BlockedKernel(const double* b, int64_t ldb, double* c, int64_t ldc,
                   int64_t mb, int64_t nb, int64_t kb, const AVal& aval) {
  constexpr int64_t kW = simd::kWidth;
  int64_t j = 0;
  for (; j + 2 * kW <= nb; j += 2 * kW) {
    for (int64_t i0 = 0; i0 < mb; i0 += kRowStrip) {
      const int64_t rows = std::min(kRowStrip, mb - i0);
      simd::VecD acc0[kRowStrip];
      simd::VecD acc1[kRowStrip];
      for (int64_t r = 0; r < rows; ++r) {
        acc0[r] = simd::Load(c + (i0 + r) * ldc + j);
        acc1[r] = simd::Load(c + (i0 + r) * ldc + j + kW);
      }
      for (int64_t p = 0; p < kb; ++p) {
        const simd::VecD b0 = simd::Load(b + p * ldb + j);
        const simd::VecD b1 = simd::Load(b + p * ldb + j + kW);
        for (int64_t r = 0; r < rows; ++r) {
          const double aip = aval(i0 + r, p);
          if (aip == 0.0) continue;
          const simd::VecD av = simd::Broadcast(aip);
          acc0[r] = simd::MulAdd(av, b0, acc0[r]);
          acc1[r] = simd::MulAdd(av, b1, acc1[r]);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        simd::Store(c + (i0 + r) * ldc + j, acc0[r]);
        simd::Store(c + (i0 + r) * ldc + j + kW, acc1[r]);
      }
    }
  }
  for (; j + kW <= nb; j += kW) {
    for (int64_t i0 = 0; i0 < mb; i0 += kRowStrip) {
      const int64_t rows = std::min(kRowStrip, mb - i0);
      simd::VecD acc0[kRowStrip];
      for (int64_t r = 0; r < rows; ++r) {
        acc0[r] = simd::Load(c + (i0 + r) * ldc + j);
      }
      for (int64_t p = 0; p < kb; ++p) {
        const simd::VecD b0 = simd::Load(b + p * ldb + j);
        for (int64_t r = 0; r < rows; ++r) {
          const double aip = aval(i0 + r, p);
          if (aip == 0.0) continue;
          acc0[r] = simd::MulAdd(simd::Broadcast(aip), b0, acc0[r]);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        simd::Store(c + (i0 + r) * ldc + j, acc0[r]);
      }
    }
  }
  if (j < nb) {
    // Remainder columns: the scalar reference restricted to [j, nb).
    for (int64_t i = 0; i < mb; ++i) {
      double* c_row = c + i * ldc;
      for (int64_t p = 0; p < kb; ++p) {
        const double aip = aval(i, p);
        if (aip == 0.0) continue;
        const double* b_row = b + p * ldb;
        for (int64_t jj = j; jj < nb; ++jj) {
          c_row[jj] += aip * b_row[jj];
        }
      }
    }
  }
}

void MicroKernelNNVec(const double* a, int64_t lda, const double* b,
                      int64_t ldb, double* c, int64_t ldc, int64_t mb,
                      int64_t nb, int64_t kb) {
  BlockedKernel(
      b, ldb, c, ldc, mb, nb, kb,
      [a, lda](int64_t i, int64_t p) { return a[i * lda + p]; });
}

void MicroKernelTNVec(const double* a, int64_t lda, const double* b,
                      int64_t ldb, double* c, int64_t ldc, int64_t mb,
                      int64_t nb, int64_t kb, double alpha) {
  BlockedKernel(
      b, ldb, c, ldc, mb, nb, kb,
      [a, lda, alpha](int64_t i, int64_t p) { return alpha * a[p * lda + i]; });
}

}  // namespace

bool SimdCompiled() { return simd::kEnabled; }

const char* SimdTargetName() { return simd::kTargetName; }

const char* KernelVariantName(KernelVariant variant) {
  return variant == KernelVariant::kScalar ? "scalar" : "simd";
}

void MicroKernelNN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, KernelVariant variant) {
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    MicroKernelNNVec(a, lda, b, ldb, c, ldc, mb, nb, kb);
  } else {
    MicroKernelNNScalar(a, lda, b, ldb, c, ldc, mb, nb, kb);
  }
}

void MicroKernelTN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, double alpha,
                   KernelVariant variant) {
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    MicroKernelTNVec(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
  } else {
    MicroKernelTNScalar(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
  }
}

void HadamardKernel(double* a, const double* b, int64_t n,
                    KernelVariant variant) {
  int64_t i = 0;
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    constexpr int64_t kW = simd::kWidth;
    // This loop is pure streaming bandwidth; a single vector per
    // iteration leaves load ports idle behind the store, so issue four
    // independent lane groups per trip (element-wise multiply — the
    // unroll order cannot change any result bit).
    for (; i + 4 * kW <= n; i += 4 * kW) {
      const simd::VecD r0 = simd::Mul(simd::Load(a + i), simd::Load(b + i));
      const simd::VecD r1 =
          simd::Mul(simd::Load(a + i + kW), simd::Load(b + i + kW));
      const simd::VecD r2 =
          simd::Mul(simd::Load(a + i + 2 * kW), simd::Load(b + i + 2 * kW));
      const simd::VecD r3 =
          simd::Mul(simd::Load(a + i + 3 * kW), simd::Load(b + i + 3 * kW));
      simd::Store(a + i, r0);
      simd::Store(a + i + kW, r1);
      simd::Store(a + i + 2 * kW, r2);
      simd::Store(a + i + 3 * kW, r3);
    }
    for (; i + kW <= n; i += kW) {
      simd::Store(a + i, simd::Mul(simd::Load(a + i), simd::Load(b + i)));
    }
  }
  for (; i < n; ++i) a[i] *= b[i];
}

void MttkrpRow3(double* dst, double v, const double* r1, const double* r2,
                int64_t f, KernelVariant variant) {
  int64_t c = 0;
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    constexpr int64_t kW = simd::kWidth;
    const simd::VecD vv = simd::Broadcast(v);
    for (; c + kW <= f; c += kW) {
      // (v * r1[c]) * r2[c], then add — the scalar expression's order.
      const simd::VecD t =
          simd::Mul(simd::Mul(vv, simd::Load(r1 + c)), simd::Load(r2 + c));
      simd::Store(dst + c, simd::Add(simd::Load(dst + c), t));
    }
  }
  for (; c < f; ++c) dst[c] += v * r1[c] * r2[c];
}

void MttkrpSeed(double* prod, double v, const double* row, int64_t f,
                KernelVariant variant) {
  int64_t c = 0;
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    constexpr int64_t kW = simd::kWidth;
    const simd::VecD vv = simd::Broadcast(v);
    for (; c + kW <= f; c += kW) {
      simd::Store(prod + c, simd::Mul(vv, simd::Load(row + c)));
    }
  }
  for (; c < f; ++c) prod[c] = v * row[c];
}

void MttkrpAccum(double* dst, const double* src, int64_t f,
                 KernelVariant variant) {
  int64_t c = 0;
  if (simd::kEnabled && variant == KernelVariant::kSimd) {
    constexpr int64_t kW = simd::kWidth;
    for (; c + kW <= f; c += kW) {
      simd::Store(dst + c, simd::Add(simd::Load(dst + c), simd::Load(src + c)));
    }
  }
  for (; c < f; ++c) dst[c] += src[c];
}

}  // namespace tpcp
