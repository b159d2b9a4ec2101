// Element-wise matrix operations used by the block-ALS update rules:
// Hadamard products (the paper's ⊛).

#ifndef TPCP_LINALG_ELEMENTWISE_H_
#define TPCP_LINALG_ELEMENTWISE_H_

#include "linalg/matrix.h"

namespace tpcp {

/// out = a ⊛ b (shapes must match).
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// a ⊛= b in place.
void HadamardInPlace(Matrix* a, const Matrix& b);

}  // namespace tpcp

#endif  // TPCP_LINALG_ELEMENTWISE_H_
