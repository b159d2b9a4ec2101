// Dense BLAS-like kernels over Matrix.
//
// No external BLAS is assumed; Gemm is a cache-blocked, register-tiled
// triple loop good enough for the F-rank (tens to low hundreds of columns)
// workloads of CP-ALS.

#ifndef TPCP_LINALG_BLAS_H_
#define TPCP_LINALG_BLAS_H_

#include "linalg/kernels.h"
#include "linalg/matrix.h"

namespace tpcp {

/// Whether to (implicitly) transpose an operand of Gemm.
enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// op(X) is X or X^T per the corresponding Trans flag. C must already have
/// the result shape; shape mismatches CHECK-fail.
void Gemm(Trans trans_a, const Matrix& a, Trans trans_b, const Matrix& b,
          double alpha, double beta, Matrix* c);

/// Gemm with an explicit microkernel variant — the hook the bit-identity
/// tests and the micro-kernel bench use to compare scalar against SIMD on
/// the full tiled path. Gemm itself always dispatches kSimd.
void GemmVariant(Trans trans_a, const Matrix& a, Trans trans_b,
                 const Matrix& b, double alpha, double beta, Matrix* c,
                 KernelVariant variant);

/// Returns op(A) * op(B) as a fresh matrix (alpha=1, beta=0).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Returns A^T * B (the workhorse of Gram and cross-product computations).
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// Returns A * B^T.
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// Returns the F x F Gram matrix A^T A.
Matrix Gram(const Matrix& a);

}  // namespace tpcp

#endif  // TPCP_LINALG_BLAS_H_
