// Synthetic tensor generators for experiments.

#ifndef TPCP_DATA_SYNTHETIC_H_
#define TPCP_DATA_SYNTHETIC_H_

#include "grid/block_tensor_store.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace tpcp {

/// Parameters of a low-rank-plus-noise dense tensor.
struct LowRankSpec {
  Shape shape;
  int64_t rank = 10;
  /// Std-dev of additive Gaussian noise relative to the signal RMS.
  double noise_level = 0.01;
  /// Fraction of cells kept non-zero (the paper's "density"); cells are
  /// zeroed pseudo-randomly to hit the target. 1.0 = fully dense.
  double density = 1.0;
  uint64_t seed = 42;
};

/// Materializes the tensor in memory (small shapes only).
DenseTensor MakeLowRankTensor(const LowRankSpec& spec);

/// Streams the tensor directly into a BlockTensorStore without ever holding
/// more than one block in memory — the path for big inputs.
Status GenerateLowRankIntoStore(const LowRankSpec& spec,
                                BlockTensorStore* store);

/// Sparse tensor with power-law (Zipf-like) marginals per mode — the
/// skewed, block-density-variable pattern of social/trust datasets.
SparseTensor MakePowerLawSparseTensor(const Shape& shape, int64_t nnz,
                                      double skew, uint64_t seed);

}  // namespace tpcp

#endif  // TPCP_DATA_SYNTHETIC_H_
