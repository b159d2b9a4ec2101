// Variant-selectable inner-loop kernels — the raw hot loops under Gemm,
// Gram, Hadamard, and MTTKRP, each available in an explicit scalar form
// and an explicitly vectorized form (linalg/simd.h).
//
// Every call site that matters for wall-clock dispatches KernelVariant::
// kSimd; kScalar is the reference implementation the bit-identity tests
// and the micro-kernel bench compare against. In a build without a vector
// backend (or with TPCP_FORCE_SCALAR), kSimd degrades to the scalar body,
// so the choice is compile-time-safe everywhere.
//
// Every update multiplies and adds separately (two roundings, see
// simd.h's MulAdd), so the scalar and vector forms produce the same bits
// on every backend.

#ifndef TPCP_LINALG_KERNELS_H_
#define TPCP_LINALG_KERNELS_H_

#include <cstdint>

namespace tpcp {

enum class KernelVariant { kScalar, kSimd };

/// True when the build carries an explicit vector backend (false under
/// TPCP_FORCE_SCALAR or on targets without AVX2/NEON).
bool SimdCompiled();

/// Name of the compiled vector backend: "avx2", "neon", or "scalar".
const char* SimdTargetName();

const char* KernelVariantName(KernelVariant variant);

/// C[mb x nb] += A[mb x kb] * B[kb x nb], row-major with leading
/// dimensions lda/ldb/ldc — the Gemm NN microkernel. Skips (i, p) pairs
/// with a(i, p) == 0 exactly like the scalar loop (a skipped update is no
/// update, which matters for -0.0 and non-finite C/B values).
void MicroKernelNN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, KernelVariant variant);

/// C[mb x nb] += alpha * A^T * B with A (kb x mb) and B (kb x nb)
/// row-major — the Gemm TN microkernel (Gram / MatTMul shape). Skips
/// (p, i) pairs where alpha * a(p, i) == 0.
void MicroKernelTN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, double alpha,
                   KernelVariant variant);

/// a[i] *= b[i] for i in [0, n) — the Hadamard inner loop.
void HadamardKernel(double* a, const double* b, int64_t n,
                    KernelVariant variant);

/// dst[c] += v * r1[c] * r2[c] for c in [0, f) — the fused 3-mode sparse
/// MTTKRP row update. Evaluation order matches the scalar expression:
/// (v * r1[c]) * r2[c], then add.
void MttkrpRow3(double* dst, double v, const double* r1, const double* r2,
                int64_t f, KernelVariant variant);

/// prod[c] = v * row[c] — the fused product-buffer seed of the generic
/// MTTKRP paths.
void MttkrpSeed(double* prod, double v, const double* row, int64_t f,
                KernelVariant variant);

/// dst[c] += src[c] — the product-buffer accumulate of the generic MTTKRP
/// paths.
void MttkrpAccum(double* dst, const double* src, int64_t f,
                 KernelVariant variant);

}  // namespace tpcp

#endif  // TPCP_LINALG_KERNELS_H_
