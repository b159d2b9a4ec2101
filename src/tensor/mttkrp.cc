#include "tensor/mttkrp.h"

namespace tpcp {
namespace {

void CheckFactorShapes(const Shape& shape, const std::vector<Matrix>& factors,
                       int mode) {
  TPCP_CHECK_EQ(static_cast<int>(factors.size()), shape.num_modes());
  TPCP_CHECK(mode >= 0 && mode < shape.num_modes());
  const int64_t f = factors[0].cols();
  for (int k = 0; k < shape.num_modes(); ++k) {
    TPCP_CHECK_EQ(factors[static_cast<size_t>(k)].rows(), shape.dim(k));
    TPCP_CHECK_EQ(factors[static_cast<size_t>(k)].cols(), f);
  }
}

// The per-non-zero body of the N-mode paths, sparse and dense (the 3-mode
// paths call MttkrpRow3 or MttkrpFiber3 instead): seed the product buffer
// fused with the first skipped-mode factor (prod = v * row_first —
// identical rounding to seed-then-multiply, one pass cheaper), multiply
// the remaining skipped modes in ascending-k order, accumulate into the
// output row. All three inner loops run through the variant-selectable
// kernels (linalg/kernels.h).
inline void AccumulateEntry(const Index& index, double v,
                            const std::vector<Matrix>& factors, int mode,
                            int first, int n, int64_t f, double* prod,
                            Matrix* out, KernelVariant variant) {
  if (first < 0) {
    for (int64_t c = 0; c < f; ++c) prod[c] = v;
  } else {
    const double* first_row =
        factors[static_cast<size_t>(first)].row(
            index[static_cast<size_t>(first)]);
    MttkrpSeed(prod, v, first_row, f, variant);
  }
  for (int k = first + 1; k < n; ++k) {
    if (k == mode) continue;
    const double* row =
        factors[static_cast<size_t>(k)].row(index[static_cast<size_t>(k)]);
    HadamardKernel(prod, row, f, variant);
  }
  MttkrpAccum(out->row(index[static_cast<size_t>(mode)]), prod, f, variant);
}

}  // namespace

Matrix MttkrpVariant(const DenseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  Matrix out(shape.dim(mode), f);

  if (n == 3) {
    // One fiber-kernel call per last-mode fiber (i0, i1, :), fibers in
    // row-major order, so cells run in the odometer's order. Each cell is
    // MttkrpRow3's expression with the sparse 3-mode paths' k1/k2 choice,
    // whose multiply order matches the generic loop below bit for bit.
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    const Matrix& f1 = factors[static_cast<size_t>(k1)];
    const Matrix& f2 = factors[static_cast<size_t>(k2)];
    const int64_t len = shape.dim(2);
    const double* fiber = tensor.data();
    for (int64_t i0 = 0; i0 < shape.dim(0); ++i0) {
      for (int64_t i1 = 0; i1 < shape.dim(1); ++i1, fiber += len) {
        const int64_t fixed[2] = {i0, i1};
        const double* r1 = f1.row(fixed[k1]);
        if (mode == 2) {
          // Output rows walk the fiber; the mode-1 row is fixed.
          MttkrpFiber3(out.data(), f, fiber, len, r1, f2.row(i1), 0, f,
                       variant);
        } else {
          // One output row; the mode-2 rows walk the fiber.
          MttkrpFiber3(out.row(fixed[mode]), 0, fiber, len, r1, f2.data(), f,
                       f, variant);
        }
      }
    }
    return out;
  }

  // Odometer over all cells (row-major: last mode fastest), with a running
  // product buffer per cell. O(cells * N * F).
  Index index(static_cast<size_t>(n), 0);
  std::vector<double> prod(static_cast<size_t>(f));
  // With a single mode there is no skipped-mode factor to fuse with; the
  // product degenerates to the value itself.
  const int first = n == 1 ? -1 : (mode == 0 ? 1 : 0);
  const int64_t total = tensor.NumElements();
  for (int64_t linear = 0; linear < total; ++linear) {
    const double v = tensor.at_linear(linear);
    if (v != 0.0) {
      AccumulateEntry(index, v, factors, mode, first, n, f, prod.data(),
                      &out, variant);
    }
    // Advance odometer.
    for (int k = n - 1; k >= 0; --k) {
      if (++index[static_cast<size_t>(k)] < shape.dim(k)) break;
      index[static_cast<size_t>(k)] = 0;
    }
  }
  return out;
}

Matrix MttkrpVariant(const SparseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  Matrix out(shape.dim(mode), f);

  if (n == 3) {
    // Specialized 3-mode inner loop — the common dataset shape. The two
    // skipped-mode factors are known up front, so each non-zero is a
    // single fused pass with no product buffer at all. The multiply order
    // (v, then the lower-indexed skipped mode, then the higher) matches
    // the generic loop's ascending-k order, keeping results bit-identical.
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    const Matrix& f1 = factors[static_cast<size_t>(k1)];
    const Matrix& f2 = factors[static_cast<size_t>(k2)];
    for (const SparseEntry& e : tensor.entries()) {
      MttkrpRow3(out.row(e.index[static_cast<size_t>(mode)]), e.value,
                 f1.row(e.index[static_cast<size_t>(k1)]),
                 f2.row(e.index[static_cast<size_t>(k2)]), f, variant);
    }
    return out;
  }

  // Generic N-mode fallback.
  std::vector<double> prod(static_cast<size_t>(f));
  const int first = n == 1 ? -1 : (mode == 0 ? 1 : 0);
  for (const SparseEntry& e : tensor.entries()) {
    AccumulateEntry(e.index, e.value, factors, mode, first, n, f,
                    prod.data(), &out, variant);
  }
  return out;
}

Matrix MttkrpVariant(const CsfTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  Matrix out(shape.dim(mode), f);

  if (n == 3) {
    // Fiber-streaming 3-mode path: same per-entry expression as the COO
    // specialization, entries visited in lexicographic order.
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    const Matrix& f1 = factors[static_cast<size_t>(k1)];
    const Matrix& f2 = factors[static_cast<size_t>(k2)];
    tensor.ForEachEntry([&](const Index& index, double v) {
      MttkrpRow3(out.row(index[static_cast<size_t>(mode)]), v,
                 f1.row(index[static_cast<size_t>(k1)]),
                 f2.row(index[static_cast<size_t>(k2)]), f, variant);
    });
    return out;
  }

  std::vector<double> prod(static_cast<size_t>(f));
  const int first = n == 1 ? -1 : (mode == 0 ? 1 : 0);
  tensor.ForEachEntry([&](const Index& index, double v) {
    AccumulateEntry(index, v, factors, mode, first, n, f, prod.data(), &out,
                    variant);
  });
  return out;
}

Matrix Mttkrp(const DenseTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

Matrix Mttkrp(const SparseTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

Matrix Mttkrp(const CsfTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

}  // namespace tpcp
