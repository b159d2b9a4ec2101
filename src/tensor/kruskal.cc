#include "tensor/kruskal.h"

#include <cmath>

#include "linalg/blas.h"
#include "linalg/elementwise.h"

namespace tpcp {

KruskalTensor::KruskalTensor(std::vector<Matrix> factors)
    : factors_(std::move(factors)) {
  TPCP_CHECK(!factors_.empty());
  lambda_.assign(static_cast<size_t>(rank()), 1.0);
  for (const Matrix& f : factors_) TPCP_CHECK_EQ(f.cols(), rank());
}

KruskalTensor::KruskalTensor(std::vector<Matrix> factors,
                             std::vector<double> lambda)
    : factors_(std::move(factors)), lambda_(std::move(lambda)) {
  TPCP_CHECK(!factors_.empty());
  TPCP_CHECK_EQ(static_cast<int64_t>(lambda_.size()), rank());
  for (const Matrix& f : factors_) TPCP_CHECK_EQ(f.cols(), rank());
}

Shape KruskalTensor::GetShape() const {
  std::vector<int64_t> dims;
  dims.reserve(factors_.size());
  for (const Matrix& f : factors_) dims.push_back(f.rows());
  return Shape(dims);
}

void KruskalTensor::Normalize() {
  const int64_t f = rank();
  for (Matrix& factor : factors_) {
    for (int64_t c = 0; c < f; ++c) {
      double norm = 0.0;
      for (int64_t r = 0; r < factor.rows(); ++r) {
        norm += factor(r, c) * factor(r, c);
      }
      norm = std::sqrt(norm);
      if (norm == 0.0) continue;
      lambda_[static_cast<size_t>(c)] *= norm;
      for (int64_t r = 0; r < factor.rows(); ++r) factor(r, c) /= norm;
    }
  }
}

DenseTensor KruskalTensor::Full() const {
  const Shape shape = GetShape();
  DenseTensor out(shape);
  const int n = num_modes();
  const int64_t f = rank();
  Index index(static_cast<size_t>(n), 0);
  const int64_t total = shape.NumElements();
  for (int64_t linear = 0; linear < total; ++linear) {
    double acc = 0.0;
    for (int64_t c = 0; c < f; ++c) {
      double prod = lambda_[static_cast<size_t>(c)];
      for (int k = 0; k < n; ++k) {
        prod *= factors_[static_cast<size_t>(k)](index[static_cast<size_t>(k)],
                                                 c);
      }
      acc += prod;
    }
    out.at_linear(linear) = acc;
    for (int k = n - 1; k >= 0; --k) {
      if (++index[static_cast<size_t>(k)] < shape.dim(k)) break;
      index[static_cast<size_t>(k)] = 0;
    }
  }
  return out;
}

double KruskalTensor::Norm() const {
  const int64_t f = rank();
  Matrix acc(f, f, 1.0);
  for (const Matrix& factor : factors_) {
    HadamardInPlace(&acc, Gram(factor));
  }
  double norm_sq = 0.0;
  for (int64_t i = 0; i < f; ++i) {
    for (int64_t j = 0; j < f; ++j) {
      norm_sq +=
          lambda_[static_cast<size_t>(i)] * lambda_[static_cast<size_t>(j)] *
          acc(i, j);
    }
  }
  // Guard tiny negative values from cancellation.
  return std::sqrt(norm_sq > 0.0 ? norm_sq : 0.0);
}

}  // namespace tpcp
