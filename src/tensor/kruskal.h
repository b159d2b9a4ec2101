// Kruskal (CP-form) tensor: weights lambda plus one factor matrix per mode.
//
// X̃ = sum_f lambda_f · a_f^(1) ∘ a_f^(2) ∘ ... ∘ a_f^(N).

#ifndef TPCP_TENSOR_KRUSKAL_H_
#define TPCP_TENSOR_KRUSKAL_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"

namespace tpcp {

/// A rank-F CP decomposition result.
class KruskalTensor {
 public:
  KruskalTensor() = default;

  /// Takes ownership of factors; lambda defaults to all-ones of rank F.
  explicit KruskalTensor(std::vector<Matrix> factors);
  KruskalTensor(std::vector<Matrix> factors, std::vector<double> lambda);

  int num_modes() const { return static_cast<int>(factors_.size()); }
  int64_t rank() const {
    return factors_.empty() ? 0 : factors_[0].cols();
  }
  const std::vector<Matrix>& factors() const { return factors_; }
  std::vector<Matrix>& factors() { return factors_; }
  const Matrix& factor(int mode) const {
    return factors_[static_cast<size_t>(mode)];
  }
  Matrix& factor(int mode) { return factors_[static_cast<size_t>(mode)]; }
  const std::vector<double>& lambda() const { return lambda_; }
  std::vector<double>& lambda() { return lambda_; }

  /// Shape of the tensor this decomposition reconstructs.
  Shape GetShape() const;

  /// Normalizes every factor column to unit 2-norm, folding scales into
  /// lambda (the standard CP normalization).
  void Normalize();

  /// Materializes the full dense tensor (use only for small shapes).
  DenseTensor Full() const;

  /// ||X̃||_F without materializing: sqrt(1^T (⊛_k A(k)^T A(k) ⊛ λλ^T) 1).
  double Norm() const;

 private:
  std::vector<Matrix> factors_;
  std::vector<double> lambda_;
};

}  // namespace tpcp

#endif  // TPCP_TENSOR_KRUSKAL_H_
