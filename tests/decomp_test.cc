#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/elementwise.h"
#include "linalg/pinv.h"
#include "linalg/qr.h"
#include "linalg/svd_jacobi.h"
#include "util/random.h"

namespace tpcp {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

Matrix RandomSpd(int64_t n, uint64_t seed) {
  const Matrix a = RandomMatrix(n + 4, n, seed);
  Matrix g = Gram(a);
  for (int64_t i = 0; i < n; ++i) g(i, i) += 0.5;  // well-conditioned
  return g;
}

TEST(CholeskyTest, FactorReconstructs) {
  const Matrix s = RandomSpd(6, 1);
  Matrix l = s;
  ASSERT_TRUE(CholeskyFactor(&l).ok());
  // L L^T == S.
  EXPECT_TRUE(Matrix::AlmostEqual(MatMulT(l, l), s, 1e-10));
  // Upper triangle zeroed.
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = i + 1; j < 6; ++j) EXPECT_EQ(l(i, j), 0.0);
  }
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix m(2, 3);
  EXPECT_EQ(CholeskyFactor(&m).code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix m{{1, 0}, {0, -1}};
  EXPECT_EQ(CholeskyFactor(&m).code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, SolveMultipleRhs) {
  const Matrix s = RandomSpd(5, 2);
  const Matrix x_true = RandomMatrix(5, 3, 3);
  const Matrix b = MatMul(s, x_true);
  Matrix l = s;
  ASSERT_TRUE(CholeskyFactor(&l).ok());
  Matrix x = b;
  CholeskySolveInPlace(l, &x);
  EXPECT_TRUE(Matrix::AlmostEqual(x, x_true, 1e-9));
}

TEST(SolveGramSystemTest, ExactForSpd) {
  const Matrix s = RandomSpd(4, 4);
  const Matrix x_true = RandomMatrix(6, 4, 5);
  const Matrix t = MatMul(x_true, s);  // T = X S
  Matrix x;
  const double lambda = SolveGramSystem(t, s, &x);
  EXPECT_EQ(lambda, 0.0);
  EXPECT_TRUE(Matrix::AlmostEqual(x, x_true, 1e-8));
}

TEST(SolveGramSystemTest, PinvFallbackOnSingularSystems) {
  // Rank-1 Gram matrix: plain Cholesky must fail; the pseudo-inverse
  // fallback returns the bounded minimum-norm solution.
  Matrix ones(3, 3, 1.0);
  const Matrix t = RandomMatrix(2, 3, 6);
  Matrix x;
  const double flag = SolveGramSystem(t, ones, &x);
  EXPECT_EQ(flag, -1.0);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(x.data()[i]));
  }
  // X S must equal the projection of T onto range(S): residual orthogonal
  // to range(S); spot-check the solution is exactly T S^+ by re-deriving.
  const Matrix expected = MatMul(t, PseudoInverse(ones));
  EXPECT_TRUE(Matrix::AlmostEqual(x, expected, 1e-10));
}

TEST(SolveGramSystemTest, AllZeroGramYieldsZeros) {
  // S = 0: S^+ = 0, so the update returns the zero matrix — the paper's
  // convention for empty blocks (footnote 3).
  Matrix zeros(3, 3);
  const Matrix t = RandomMatrix(2, 3, 7);
  Matrix x;
  SolveGramSystem(t, zeros, &x);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x.data()[i], 0.0);
  }
}

TEST(QrTest, ThinFactorizationProperties) {
  const Matrix a = RandomMatrix(10, 4, 8);
  const QrResult qr = QrFactor(a);
  // Q has orthonormal columns.
  Matrix qtq = Gram(qr.q);
  Matrix eye(4, 4);
  eye.SetIdentity();
  EXPECT_TRUE(Matrix::AlmostEqual(qtq, eye, 1e-10));
  // R upper triangular.
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < i; ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
  // Q R == A.
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(qr.q, qr.r), a, 1e-10));
}

TEST(QrTest, HandlesRankDeficientColumns) {
  Matrix a(5, 3);
  for (int64_t i = 0; i < 5; ++i) a(i, 0) = 1.0;  // columns 1,2 all-zero
  const QrResult qr = QrFactor(a);
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(qr.q, qr.r), a, 1e-10));
}

TEST(QrTest, RandomOrthonormalIsOrthonormal) {
  const Matrix q = RandomOrthonormal(12, 5, 99);
  Matrix eye(5, 5);
  eye.SetIdentity();
  EXPECT_TRUE(Matrix::AlmostEqual(Gram(q), eye, 1e-10));
}

TEST(SvdTest, ReconstructsInput) {
  const Matrix a = RandomMatrix(8, 5, 10);
  const SvdResult svd = SvdJacobi(a);
  // U diag(s) V^T == A.
  Matrix us = svd.u;
  for (int64_t j = 0; j < us.cols(); ++j) {
    for (int64_t i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.singular_values[static_cast<size_t>(j)];
    }
  }
  EXPECT_TRUE(Matrix::AlmostEqual(MatMulT(us, svd.v), a, 1e-9));
}

TEST(SvdTest, SingularValuesSortedNonNegative) {
  const Matrix a = RandomMatrix(9, 6, 11);
  const SvdResult svd = SvdJacobi(a);
  for (size_t i = 0; i + 1 < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i], svd.singular_values[i + 1]);
  }
  EXPECT_GE(svd.singular_values.back(), 0.0);
}

TEST(SvdTest, WideInputHandledByTransposition) {
  const Matrix a = RandomMatrix(3, 7, 12);
  const SvdResult svd = SvdJacobi(a);
  EXPECT_EQ(svd.u.rows(), 3);
  EXPECT_EQ(svd.v.rows(), 7);
  Matrix us = svd.u;
  for (int64_t j = 0; j < us.cols(); ++j) {
    for (int64_t i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.singular_values[static_cast<size_t>(j)];
    }
  }
  EXPECT_TRUE(Matrix::AlmostEqual(MatMulT(us, svd.v), a, 1e-9));
}

TEST(SvdTest, KnownDiagonalCase) {
  Matrix a{{3, 0}, {0, 4}};
  const SvdResult svd = SvdJacobi(a);
  EXPECT_NEAR(svd.singular_values[0], 4.0, 1e-12);
  EXPECT_NEAR(svd.singular_values[1], 3.0, 1e-12);
}

TEST(SvdTest, LeadingVectorsSpanDominantSubspace) {
  // Rank-2 matrix: leading 2 left singular vectors must reconstruct it.
  const Matrix u = RandomOrthonormal(10, 2, 13);
  Matrix s{{5, 0}, {0, 2}};
  const Matrix v = RandomOrthonormal(6, 2, 14);
  const Matrix a = MatMulT(MatMul(u, s), v);
  const Matrix lead = LeadingLeftSingularVectors(a, 2);
  // Projection of A onto span(lead) equals A.
  const Matrix proj = MatMul(lead, MatTMul(lead, a));
  EXPECT_TRUE(Matrix::AlmostEqual(proj, a, 1e-8));
}

TEST(PinvTest, MoorePenroseConditions) {
  const Matrix a = RandomMatrix(6, 4, 15);
  const Matrix p = PseudoInverse(a);
  EXPECT_EQ(p.rows(), 4);
  EXPECT_EQ(p.cols(), 6);
  // A P A == A and P A P == P.
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(MatMul(a, p), a), a, 1e-9));
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(MatMul(p, a), p), p, 1e-9));
}

TEST(PinvTest, RankDeficient) {
  // Rank-1 matrix.
  Matrix a(4, 3);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) a(i, j) = (i + 1.0) * (j + 1.0);
  }
  const Matrix p = PseudoInverse(a);
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(MatMul(a, p), a), a, 1e-9));
}

TEST(PinvTest, InvertsNonSingularSquare) {
  const Matrix s = RandomSpd(4, 16);
  const Matrix p = PseudoInverse(s);
  Matrix eye(4, 4);
  eye.SetIdentity();
  EXPECT_TRUE(Matrix::AlmostEqual(MatMul(s, p), eye, 1e-8));
}

TEST(ElementwiseTest, HadamardAndAll) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {2, 2}};
  EXPECT_EQ(Hadamard(a, b)(1, 1), 8.0);
}

class SolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolveSweep, GramSolveRoundTrips) {
  const int n = GetParam();
  const Matrix s = RandomSpd(n, 20 + n);
  const Matrix x_true = RandomMatrix(n + 3, n, 40 + n);
  const Matrix t = MatMul(x_true, s);
  Matrix x;
  SolveGramSystem(t, s, &x);
  EXPECT_TRUE(Matrix::AlmostEqual(x, x_true, 1e-7)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Ranks, SolveSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tpcp
