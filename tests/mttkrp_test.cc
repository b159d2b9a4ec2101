#include "tensor/mttkrp.h"

#include <gtest/gtest.h>

#include <cstring>

#include "linalg/blas.h"
#include "tensor/khatri_rao.h"
#include "tensor/unfold.h"
#include "util/random.h"

namespace tpcp {
namespace {

DenseTensor RandomTensor(const Shape& shape, uint64_t seed,
                         double zero_fraction = 0.0) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) =
        rng.NextDouble() < zero_fraction ? 0.0 : rng.NextGaussian();
  }
  return t;
}

std::vector<Matrix> RandomFactorsFor(const Shape& shape, int64_t rank,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < shape.num_modes(); ++m) {
    Matrix f(shape.dim(m), rank);
    for (int64_t i = 0; i < f.size(); ++i) f.data()[i] = rng.NextGaussian();
    factors.push_back(std::move(f));
  }
  return factors;
}

// Reference: M = X_(n) * KhatriRaoSkip(factors, n), fully materialized.
Matrix ReferenceMttkrp(const DenseTensor& t, const std::vector<Matrix>& f,
                       int mode) {
  return MatMul(Unfold(t, mode), KhatriRaoSkip(f, mode));
}

TEST(MttkrpTest, MatchesUnfoldKhatriRaoReference) {
  const Shape shape({4, 5, 3});
  const DenseTensor t = RandomTensor(shape, 1);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 4, 2);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, FourModeReference) {
  const Shape shape({3, 2, 4, 2});
  const DenseTensor t = RandomTensor(shape, 3);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 3, 4);
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, SparseAgreesWithDense) {
  const Shape shape({6, 5, 4});
  const DenseTensor dense = RandomTensor(shape, 5, /*zero_fraction=*/0.8);
  const SparseTensor sparse = SparseTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 5, 6);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(sparse, f, mode),
                                    Mttkrp(dense, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, SparseFourModeTakesGenericPath) {
  // 3 modes run the specialized fused inner loop; anything else must hit
  // the generic N-mode fallback and agree with the dense kernel.
  const Shape shape({4, 3, 3, 2});
  const DenseTensor dense = RandomTensor(shape, 9, /*zero_fraction=*/0.7);
  const SparseTensor sparse = SparseTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 9, 5);
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(sparse, f, mode),
                                    Mttkrp(dense, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, CsfAgreesWithCooBitwiseThreeMode) {
  // CSF streams the same non-zeros in the same lexicographic order as the
  // sorted COO path, so the fused 3-mode kernel must match bit-for-bit,
  // not just within tolerance.
  const Shape shape({6, 5, 4});
  const DenseTensor dense = RandomTensor(shape, 15, /*zero_fraction=*/0.8);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromSparse(coo);
  EXPECT_EQ(csf.nnz(), coo.nnz());
  const std::vector<Matrix> f = RandomFactorsFor(shape, 5, 16);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix from_coo = Mttkrp(coo, f, mode);
    const Matrix from_csf = Mttkrp(csf, f, mode);
    ASSERT_EQ(from_coo.rows(), from_csf.rows());
    for (int64_t i = 0; i < from_coo.size(); ++i) {
      ASSERT_EQ(from_coo.data()[i], from_csf.data()[i])
          << "mode=" << mode << " i=" << i;
    }
  }
}

TEST(MttkrpTest, CsfFourModeTakesGenericPath) {
  // Four modes exit the fused kernel into the generic fiber walk; it must
  // still agree with dense (within tolerance) and with COO (bitwise).
  const Shape shape({4, 3, 3, 2});
  const DenseTensor dense = RandomTensor(shape, 17, /*zero_fraction=*/0.7);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 6, 18);
  for (int mode = 0; mode < 4; ++mode) {
    const Matrix from_csf = Mttkrp(csf, f, mode);
    EXPECT_TRUE(
        Matrix::AlmostEqual(from_csf, Mttkrp(dense, f, mode), 1e-10))
        << "mode=" << mode;
    const Matrix from_coo = Mttkrp(coo, f, mode);
    for (int64_t i = 0; i < from_coo.size(); ++i) {
      ASSERT_EQ(from_coo.data()[i], from_csf.data()[i])
          << "mode=" << mode << " i=" << i;
    }
  }
}

TEST(MttkrpTest, CsfRoundTripPreservesEntries) {
  const Shape shape({5, 1, 6, 2, 3});
  const DenseTensor dense = RandomTensor(shape, 19, /*zero_fraction=*/0.85);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  const DenseTensor back = csf.ToDense();
  ASSERT_EQ(back.NumElements(), dense.NumElements());
  for (int64_t i = 0; i < dense.NumElements(); ++i) {
    ASSERT_EQ(back.at_linear(i), dense.at_linear(i)) << "i=" << i;
  }
}

TEST(MttkrpTest, ZeroTensorGivesZero) {
  const Shape shape({3, 3, 3});
  DenseTensor t(shape);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 2, 7);
  const Matrix m = Mttkrp(t, f, 1);
  EXPECT_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(MttkrpTest, RankOneFactorsKnownResult) {
  // With all-ones factors, M(i, 0) = sum of the mode-i slice of X.
  const Shape shape({2, 3, 2});
  const DenseTensor t = RandomTensor(shape, 8);
  std::vector<Matrix> ones;
  for (int m = 0; m < 3; ++m) ones.emplace_back(shape.dim(m), 1, 1.0);
  const Matrix m0 = Mttkrp(t, ones, 0);
  for (int64_t i = 0; i < 2; ++i) {
    double expected = 0.0;
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 2; ++k) expected += t.at({i, j, k});
    }
    EXPECT_NEAR(m0(i, 0), expected, 1e-12);
  }
}

// The dense 3-mode arithmetic before the fiber kernel: every non-zero cell
// in odometer order (last mode fastest), one scalar MttkrpRow3 per cell
// with the lower-indexed skipped mode multiplied first.
Matrix PerCellRow3Mttkrp(const DenseTensor& t, const std::vector<Matrix>& f,
                         int mode) {
  const Shape& shape = t.shape();
  const int k1 = mode == 0 ? 1 : 0;
  const int k2 = mode == 2 ? 1 : 2;
  Matrix out(shape.dim(mode), f[0].cols());
  for (int64_t i0 = 0; i0 < shape.dim(0); ++i0) {
    for (int64_t i1 = 0; i1 < shape.dim(1); ++i1) {
      for (int64_t i2 = 0; i2 < shape.dim(2); ++i2) {
        const double v = t.at({i0, i1, i2});
        if (v == 0.0) continue;
        const int64_t index[3] = {i0, i1, i2};
        MttkrpRow3(out.row(index[mode]), v,
                   f[static_cast<size_t>(k1)].row(index[k1]),
                   f[static_cast<size_t>(k2)].row(index[k2]), f[0].cols(),
                   KernelVariant::kScalar);
      }
    }
  }
  return out;
}

bool BitsEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(MttkrpTest, DenseThreeModeMatchesPerCellRow3Bitwise) {
  for (const std::vector<int64_t>& dims :
       {std::vector<int64_t>{6, 5, 7}, std::vector<int64_t>{3, 4, 1},
        std::vector<int64_t>{2, 1, 9}}) {
    const Shape shape(dims);
    const DenseTensor t = RandomTensor(shape, 21, /*zero_fraction=*/0.4);
    for (const int64_t rank : {1, 4, 5, 16, 17}) {
      const std::vector<Matrix> f = RandomFactorsFor(shape, rank, 22);
      for (int mode = 0; mode < 3; ++mode) {
        const Matrix want = PerCellRow3Mttkrp(t, f, mode);
        for (const KernelVariant variant :
             {KernelVariant::kScalar, KernelVariant::kSimd}) {
          EXPECT_TRUE(BitsEqual(MttkrpVariant(t, f, mode, variant), want))
              << shape.ToString() << " rank=" << rank << " mode=" << mode
              << " " << KernelVariantName(variant);
        }
      }
    }
  }
}

struct MttkrpCase {
  std::vector<int64_t> dims;
  int64_t rank;
};

class MttkrpSweep : public ::testing::TestWithParam<MttkrpCase> {};

TEST_P(MttkrpSweep, DenseMatchesReferenceEveryMode) {
  const MttkrpCase& c = GetParam();
  const Shape shape(c.dims);
  const DenseTensor t = RandomTensor(shape, 11);
  const std::vector<Matrix> f = RandomFactorsFor(shape, c.rank, 12);
  for (int mode = 0; mode < shape.num_modes(); ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-9))
        << shape.ToString() << " mode=" << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MttkrpSweep,
    ::testing::Values(MttkrpCase{{2, 2}, 1}, MttkrpCase{{5, 4}, 3},
                      MttkrpCase{{2, 3, 4}, 2}, MttkrpCase{{7, 3, 2}, 6},
                      MttkrpCase{{2, 2, 2, 2}, 3},
                      MttkrpCase{{1, 6, 2}, 2}));

}  // namespace
}  // namespace tpcp
