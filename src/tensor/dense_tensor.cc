#include "tensor/dense_tensor.h"

#include <cmath>

namespace tpcp {
namespace {

// Iterates the cartesian product of sizes, invoking fn(index) for each
// position. index is reused across calls.
template <typename Fn>
void ForEachIndex(const std::vector<int64_t>& sizes, Fn&& fn) {
  const int n = static_cast<int>(sizes.size());
  Index index(static_cast<size_t>(n), 0);
  for (;;) {
    fn(index);
    int mode = n - 1;
    while (mode >= 0) {
      if (++index[static_cast<size_t>(mode)] <
          sizes[static_cast<size_t>(mode)]) {
        break;
      }
      index[static_cast<size_t>(mode)] = 0;
      --mode;
    }
    if (mode < 0) return;
  }
}

}  // namespace

double DenseTensor::SquaredNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double DenseTensor::FrobeniusNorm() const { return std::sqrt(SquaredNorm()); }

void DenseTensor::Sub(const DenseTensor& other) {
  TPCP_CHECK(shape_ == other.shape_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

DenseTensor DenseTensor::Slice(const Index& offsets,
                               const std::vector<int64_t>& sizes) const {
  TPCP_CHECK_EQ(static_cast<int>(offsets.size()), num_modes());
  TPCP_CHECK_EQ(static_cast<int>(sizes.size()), num_modes());
  for (int m = 0; m < num_modes(); ++m) {
    TPCP_CHECK(offsets[static_cast<size_t>(m)] >= 0 &&
               offsets[static_cast<size_t>(m)] + sizes[static_cast<size_t>(m)] <=
                   dim(m));
  }
  DenseTensor out{Shape(sizes)};
  Index src(offsets.size());
  ForEachIndex(sizes, [&](const Index& local) {
    for (size_t m = 0; m < local.size(); ++m) src[m] = offsets[m] + local[m];
    out.at(local) = at(src);
  });
  return out;
}

void DenseTensor::SetSlice(const Index& offsets, const DenseTensor& block) {
  TPCP_CHECK_EQ(block.num_modes(), num_modes());
  Index dst(offsets.size());
  ForEachIndex(block.shape().dims(), [&](const Index& local) {
    for (size_t m = 0; m < local.size(); ++m) dst[m] = offsets[m] + local[m];
    at(dst) = block.at(local);
  });
}

}  // namespace tpcp
