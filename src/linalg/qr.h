// Householder QR.

#ifndef TPCP_LINALG_QR_H_
#define TPCP_LINALG_QR_H_

#include "linalg/matrix.h"

namespace tpcp {

/// Result of a thin QR factorization A (m x n, m >= n) = Q (m x n) R (n x n).
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Thin Householder QR. CHECK-fails if a.rows() < a.cols().
QrResult QrFactor(const Matrix& a);

}  // namespace tpcp

#endif  // TPCP_LINALG_QR_H_
