#include "linalg/blas.h"

#include <algorithm>

#include "linalg/kernels.h"

namespace tpcp {
namespace {

// Cache-blocking tile sizes (bytes: 64x64 doubles = 32 KiB per operand tile,
// comfortably inside L2 alongside the C tile). The inner tiles run through
// the variant-selectable microkernels in linalg/kernels.h — register-blocked
// SIMD on the default dispatch, the original scalar loops as the reference.
constexpr int64_t kTileM = 64;
constexpr int64_t kTileN = 64;
constexpr int64_t kTileK = 64;

}  // namespace

void GemmVariant(Trans trans_a, const Matrix& a, Trans trans_b,
                 const Matrix& b, double alpha, double beta, Matrix* c,
                 KernelVariant variant) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t k = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int64_t kb2 = trans_b == Trans::kNo ? b.rows() : b.cols();
  const int64_t n = trans_b == Trans::kNo ? b.cols() : b.rows();
  TPCP_CHECK_EQ(k, kb2);
  TPCP_CHECK_EQ(c->rows(), m);
  TPCP_CHECK_EQ(c->cols(), n);

  if (beta != 1.0) {
    if (beta == 0.0) {
      c->Fill(0.0);
    } else {
      c->Scale(beta);
    }
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  if (trans_a == Trans::kYes && trans_b == Trans::kNo) {
    // A^T * B without materializing A^T: MicroKernelTN streams rows of A
    // and B directly. This is the hot shape of Gram and MatTMul (Eq.-3
    // metadata refresh: tall-skinny A and B, tiny C), where the
    // transposed copy used to cost a full extra pass over A per call.
    // k-tiles advance in the outer loop, so for every C element the
    // accumulation order matches the copying path bit for bit.
    const int64_t lda = a.cols();
    const int64_t ldb = b.cols();
    const int64_t ldc = c->cols();
    for (int64_t p0 = 0; p0 < k; p0 += kTileK) {
      const int64_t kb = std::min(kTileK, k - p0);
      for (int64_t i0 = 0; i0 < m; i0 += kTileM) {
        const int64_t mb = std::min(kTileM, m - i0);
        for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
          const int64_t nb = std::min(kTileN, n - j0);
          MicroKernelTN(a.data() + p0 * lda + i0, lda,
                        b.data() + p0 * ldb + j0, ldb,
                        c->data() + i0 * ldc + j0, ldc, mb, nb, kb, alpha,
                        variant);
        }
      }
    }
    return;
  }

  // Materialize transposed operands once: simpler and faster than strided
  // access for the remaining transposed shapes (A^T B^T, A B^T), which
  // are rare in CP-ALS.
  Matrix at, bt;
  const Matrix* ap = &a;
  const Matrix* bp = &b;
  if (trans_a == Trans::kYes) {
    at = a.Transposed();
    ap = &at;
  }
  if (trans_b == Trans::kYes) {
    bt = b.Transposed();
    bp = &bt;
  }

  // Scale A once if alpha != 1 (cheaper than scaling inside the kernel).
  Matrix a_scaled;
  if (alpha != 1.0) {
    a_scaled = *ap;
    a_scaled.Scale(alpha);
    ap = &a_scaled;
  }

  const int64_t lda = ap->cols();
  const int64_t ldb = bp->cols();
  const int64_t ldc = c->cols();
  for (int64_t i0 = 0; i0 < m; i0 += kTileM) {
    const int64_t mb = std::min(kTileM, m - i0);
    for (int64_t p0 = 0; p0 < k; p0 += kTileK) {
      const int64_t kb = std::min(kTileK, k - p0);
      for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const int64_t nb = std::min(kTileN, n - j0);
        MicroKernelNN(ap->data() + i0 * lda + p0, lda,
                      bp->data() + p0 * ldb + j0, ldb,
                      c->data() + i0 * ldc + j0, ldc, mb, nb, kb, variant);
      }
    }
  }
}

void Gemm(Trans trans_a, const Matrix& a, Trans trans_b, const Matrix& b,
          double alpha, double beta, Matrix* c) {
  GemmVariant(trans_a, a, trans_b, b, alpha, beta, c, KernelVariant::kSimd);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  Gemm(Trans::kNo, a, Trans::kNo, b, 1.0, 0.0, &c);
  return c;
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  Gemm(Trans::kYes, a, Trans::kNo, b, 1.0, 0.0, &c);
  return c;
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  Gemm(Trans::kNo, a, Trans::kYes, b, 1.0, 0.0, &c);
  return c;
}

Matrix Gram(const Matrix& a) { return MatTMul(a, a); }

}  // namespace tpcp
