#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "tensor/ttm.h"
#include "tensor/unfold.h"
#include "util/random.h"

namespace tpcp {
namespace {

DenseTensor RandomTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) = rng.NextGaussian();
  }
  return t;
}

TEST(TtmTest, MatchesUnfoldDefinition) {
  const DenseTensor x = RandomTensor(Shape({4, 5, 3}), 1);
  Rng rng(2);
  for (int mode = 0; mode < 3; ++mode) {
    Matrix m(6, x.dim(mode));
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
    const DenseTensor y = Ttm(x, m, mode);
    EXPECT_EQ(y.dim(mode), 6);
    // Y_(n) == M X_(n).
    const Matrix expected = MatMul(m, Unfold(x, mode));
    EXPECT_TRUE(Matrix::AlmostEqual(Unfold(y, mode), expected, 1e-10))
        << "mode " << mode;
  }
}

TEST(TtmTest, IdentityIsNoop) {
  const DenseTensor x = RandomTensor(Shape({3, 4, 2}), 3);
  Matrix eye(4, 4);
  eye.SetIdentity();
  const DenseTensor y = Ttm(x, eye, 1);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_NEAR(y.at_linear(i), x.at_linear(i), 1e-12);
  }
}

TEST(TtmTest, TtmAllWithRowVectorsContracts) {
  // Contracting every mode with an all-ones row vector sums the tensor.
  const DenseTensor x = RandomTensor(Shape({3, 3, 3}), 4);
  std::vector<Matrix> ones;
  for (int m = 0; m < 3; ++m) ones.emplace_back(1, 3, 1.0);
  const DenseTensor y = TtmAll(x, ones);
  EXPECT_EQ(y.NumElements(), 1);
  double expected = 0.0;
  for (int64_t i = 0; i < x.NumElements(); ++i) expected += x.at_linear(i);
  EXPECT_NEAR(y.at_linear(0), expected, 1e-9);
}

TEST(TtmTest, SuccessiveModesCommute) {
  const DenseTensor x = RandomTensor(Shape({4, 3, 5}), 5);
  Rng rng(6);
  Matrix a(2, 4), b(2, 3);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.NextGaussian();
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = rng.NextGaussian();
  const DenseTensor ab = Ttm(Ttm(x, a, 0), b, 1);
  const DenseTensor ba = Ttm(Ttm(x, b, 1), a, 0);
  for (int64_t i = 0; i < ab.NumElements(); ++i) {
    EXPECT_NEAR(ab.at_linear(i), ba.at_linear(i), 1e-10);
  }
}

}  // namespace
}  // namespace tpcp
