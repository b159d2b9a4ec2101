#include "linalg/qr.h"

#include <cmath>
#include <vector>

namespace tpcp {

QrResult QrFactor(const Matrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  TPCP_CHECK_GE(m, n);

  Matrix r = a;                       // m x n working copy
  std::vector<Matrix> reflectors;     // Householder vectors, length m-k each
  reflectors.reserve(static_cast<size_t>(n));

  for (int64_t k = 0; k < n; ++k) {
    // Build the reflector for column k.
    double norm = 0.0;
    for (int64_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    Matrix v(m - k, 1);
    if (norm == 0.0) {
      v(0, 0) = 1.0;  // Degenerate column: identity reflector.
      reflectors.push_back(std::move(v));
      continue;
    }
    const double alpha = r(k, k) >= 0.0 ? -norm : norm;
    for (int64_t i = k; i < m; ++i) v(i - k, 0) = r(i, k);
    v(0, 0) -= alpha;
    double vnorm = 0.0;
    for (int64_t i = 0; i < m - k; ++i) vnorm += v(i, 0) * v(i, 0);
    vnorm = std::sqrt(vnorm);
    if (vnorm > 0.0) {
      for (int64_t i = 0; i < m - k; ++i) v(i, 0) /= vnorm;
    } else {
      v(0, 0) = 1.0;
    }
    // Apply (I - 2 v v^T) to the trailing submatrix of R.
    for (int64_t c = k; c < n; ++c) {
      double dot = 0.0;
      for (int64_t i = k; i < m; ++i) dot += v(i - k, 0) * r(i, c);
      for (int64_t i = k; i < m; ++i) r(i, c) -= 2.0 * dot * v(i - k, 0);
    }
    reflectors.push_back(std::move(v));
  }

  // Accumulate thin Q by applying reflectors to the first n identity columns
  // in reverse order.
  Matrix q(m, n);
  for (int64_t c = 0; c < n; ++c) q(c, c) = 1.0;
  for (int64_t k = n - 1; k >= 0; --k) {
    const Matrix& v = reflectors[static_cast<size_t>(k)];
    for (int64_t c = 0; c < n; ++c) {
      double dot = 0.0;
      for (int64_t i = k; i < m; ++i) dot += v(i - k, 0) * q(i, c);
      for (int64_t i = k; i < m; ++i) q(i, c) -= 2.0 * dot * v(i - k, 0);
    }
  }

  QrResult out;
  out.q = std::move(q);
  out.r = Matrix(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
  }
  return out;
}

}  // namespace tpcp
