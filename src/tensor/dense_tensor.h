// Dense N-mode tensor, row-major (last mode fastest).

#ifndef TPCP_TENSOR_DENSE_TENSOR_H_
#define TPCP_TENSOR_DENSE_TENSOR_H_

#include <vector>

#include "tensor/shape.h"

namespace tpcp {

/// Dense N-mode tensor of doubles, zero-initialized on construction.
class DenseTensor {
 public:
  DenseTensor() = default;
  explicit DenseTensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.NumElements())) {}

  const Shape& shape() const { return shape_; }
  int num_modes() const { return shape_.num_modes(); }
  int64_t dim(int mode) const { return shape_.dim(mode); }
  int64_t NumElements() const { return shape_.NumElements(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& at(const Index& index) {
    return data_[static_cast<size_t>(shape_.LinearIndex(index))];
  }
  double at(const Index& index) const {
    return data_[static_cast<size_t>(shape_.LinearIndex(index))];
  }

  double& at_linear(int64_t i) {
    TPCP_DCHECK(i >= 0 && i < NumElements());
    return data_[static_cast<size_t>(i)];
  }
  double at_linear(int64_t i) const {
    TPCP_DCHECK(i >= 0 && i < NumElements());
    return data_[static_cast<size_t>(i)];
  }

  double FrobeniusNorm() const;
  double SquaredNorm() const;

  /// this -= other (shapes must match).
  void Sub(const DenseTensor& other);

  /// Extracts the sub-tensor covering [offsets, offsets + sizes) per mode.
  DenseTensor Slice(const Index& offsets,
                    const std::vector<int64_t>& sizes) const;

  /// Writes `block` into this tensor at the given per-mode offsets.
  void SetSlice(const Index& offsets, const DenseTensor& block);

 private:
  Shape shape_;
  std::vector<double> data_;
};

}  // namespace tpcp

#endif  // TPCP_TENSOR_DENSE_TENSOR_H_
