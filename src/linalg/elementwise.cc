#include "linalg/elementwise.h"

#include "linalg/kernels.h"

namespace tpcp {

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  HadamardInPlace(&out, b);
  return out;
}

void HadamardInPlace(Matrix* a, const Matrix& b) {
  TPCP_CHECK_EQ(a->rows(), b.rows());
  TPCP_CHECK_EQ(a->cols(), b.cols());
  // Independent element-wise multiplies: the vector form is trivially
  // bit-identical to the scalar loop.
  HadamardKernel(a->data(), b.data(), a->size(), KernelVariant::kSimd);
}

}  // namespace tpcp
