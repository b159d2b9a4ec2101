#include "linalg/blas.h"

#include <gtest/gtest.h>

#include <tuple>

#include "util/random.h"

namespace tpcp {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

// Unblocked reference GEMM.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(BlasTest, SmallKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(BlasTest, TransposedVariantsMatchExplicitTranspose) {
  const Matrix a = RandomMatrix(7, 5, 1);
  const Matrix b = RandomMatrix(7, 3, 2);
  // A^T * B.
  EXPECT_TRUE(
      Matrix::AlmostEqual(MatTMul(a, b), NaiveMatMul(a.Transposed(), b),
                          1e-12));
  const Matrix c = RandomMatrix(4, 5, 3);
  const Matrix d = RandomMatrix(9, 5, 4);
  // C * D^T.
  EXPECT_TRUE(
      Matrix::AlmostEqual(MatMulT(c, d), NaiveMatMul(c, d.Transposed()),
                          1e-12));
}

TEST(BlasTest, AlphaBetaSemantics) {
  const Matrix a = RandomMatrix(4, 4, 5);
  const Matrix b = RandomMatrix(4, 4, 6);
  Matrix c = RandomMatrix(4, 4, 7);
  Matrix expected = c;
  expected.Scale(0.5);
  Matrix prod = NaiveMatMul(a, b);
  prod.Scale(2.0);
  expected.Add(prod);

  Gemm(Trans::kNo, a, Trans::kNo, b, 2.0, 0.5, &c);
  EXPECT_TRUE(Matrix::AlmostEqual(c, expected, 1e-12));
}

TEST(BlasTest, BetaOnePreservesAccumulator) {
  const Matrix a = RandomMatrix(3, 3, 8);
  const Matrix b = RandomMatrix(3, 3, 9);
  Matrix c(3, 3, 1.0);
  Gemm(Trans::kNo, a, Trans::kNo, b, 1.0, 1.0, &c);
  Matrix expected = NaiveMatMul(a, b);
  expected.Add(Matrix(3, 3, 1.0));
  EXPECT_TRUE(Matrix::AlmostEqual(c, expected, 1e-12));
}

TEST(BlasTest, AlphaZeroShortCircuits) {
  const Matrix a = RandomMatrix(3, 3, 10);
  const Matrix b = RandomMatrix(3, 3, 11);
  Matrix c(3, 3, 4.0);
  Gemm(Trans::kNo, a, Trans::kNo, b, 0.0, 1.0, &c);
  EXPECT_TRUE(Matrix::AlmostEqual(c, Matrix(3, 3, 4.0), 0.0));
}

TEST(BlasTest, GramIsSymmetricPsd) {
  const Matrix a = RandomMatrix(20, 6, 12);
  const Matrix g = Gram(a);
  EXPECT_EQ(g.rows(), 6);
  EXPECT_EQ(g.cols(), 6);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_GE(g(i, i), 0.0);
    for (int64_t j = 0; j < 6; ++j) EXPECT_NEAR(g(i, j), g(j, i), 1e-12);
  }
}

class GemmSizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizeSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = RandomMatrix(m, k, 100 + m);
  const Matrix b = RandomMatrix(k, n, 200 + n);
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(a, b), NaiveMatMul(a, b), 1e-10))
      << "m=" << m << " k=" << k << " n=" << n;
}

// Sizes straddling the 64-wide blocking tiles (1, partial tile, exact tile,
// tile+1, multiple tiles).
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(17, 9, 5), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 64, 63),
                      std::make_tuple(130, 70, 129),
                      std::make_tuple(1, 200, 1),
                      std::make_tuple(100, 1, 100)));

}  // namespace
}  // namespace tpcp
