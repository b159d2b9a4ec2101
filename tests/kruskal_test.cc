#include "tensor/kruskal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/norms.h"
#include "util/random.h"

namespace tpcp {
namespace {

KruskalTensor RandomKruskal(const Shape& shape, int64_t rank, uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < shape.num_modes(); ++m) {
    Matrix f(shape.dim(m), rank);
    for (int64_t i = 0; i < f.size(); ++i) f.data()[i] = rng.NextGaussian();
    factors.push_back(std::move(f));
  }
  return KruskalTensor(std::move(factors));
}

TEST(KruskalTest, RankAndShape) {
  const KruskalTensor k = RandomKruskal(Shape({3, 4, 5}), 2, 1);
  EXPECT_EQ(k.num_modes(), 3);
  EXPECT_EQ(k.rank(), 2);
  EXPECT_EQ(k.GetShape(), Shape({3, 4, 5}));
  EXPECT_EQ(k.lambda().size(), 2u);
}

TEST(KruskalTest, FullRankOneOuterProduct) {
  // Rank-1: X(i,j) = a_i * b_j.
  Matrix a{{1}, {2}, {3}};
  Matrix b{{4}, {5}};
  KruskalTensor k({a, b});
  const DenseTensor full = k.Full();
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(full.at({i, j}), a(i, 0) * b(j, 0));
    }
  }
}

TEST(KruskalTest, LambdaScalesFull) {
  Matrix a{{1}, {1}};
  Matrix b{{1}, {1}};
  KruskalTensor k({a, b}, {3.0});
  EXPECT_DOUBLE_EQ(k.Full().at({0, 0}), 3.0);
}

TEST(KruskalTest, NormMatchesFullNorm) {
  const KruskalTensor k = RandomKruskal(Shape({4, 3, 2}), 3, 2);
  EXPECT_NEAR(k.Norm(), k.Full().FrobeniusNorm(), 1e-9);
}

TEST(KruskalTest, NormalizePreservesFullAndUnitColumns) {
  KruskalTensor k = RandomKruskal(Shape({3, 3, 3}), 2, 3);
  const DenseTensor before = k.Full();
  k.Normalize();
  const DenseTensor after = k.Full();
  for (int64_t i = 0; i < before.NumElements(); ++i) {
    EXPECT_NEAR(after.at_linear(i), before.at_linear(i), 1e-10);
  }
  for (int m = 0; m < 3; ++m) {
    for (int64_t c = 0; c < 2; ++c) {
      double norm = 0.0;
      for (int64_t r = 0; r < 3; ++r) {
        norm += k.factor(m)(r, c) * k.factor(m)(r, c);
      }
      EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-10);
    }
  }
}

TEST(NormsTest, InnerProductMatchesExplicit) {
  const Shape shape({3, 4, 2});
  const KruskalTensor k = RandomKruskal(shape, 3, 5);
  Rng rng(6);
  DenseTensor x(shape);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    x.at_linear(i) = rng.NextGaussian();
  }
  const DenseTensor full = k.Full();
  double expected = 0.0;
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    expected += x.at_linear(i) * full.at_linear(i);
  }
  EXPECT_NEAR(InnerProduct(x, k), expected, 1e-9);
}

TEST(NormsTest, ResidualMatchesExplicit) {
  const Shape shape({3, 3, 3});
  const KruskalTensor k = RandomKruskal(shape, 2, 7);
  Rng rng(8);
  DenseTensor x(shape);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    x.at_linear(i) = rng.NextGaussian();
  }
  DenseTensor diff = k.Full();
  diff.Sub(x);
  EXPECT_NEAR(ResidualNorm(x, k), diff.FrobeniusNorm(), 1e-9);
}

TEST(NormsTest, PerfectFitIsOne) {
  const KruskalTensor k = RandomKruskal(Shape({4, 3, 2}), 2, 9);
  const DenseTensor x = k.Full();
  EXPECT_NEAR(Fit(x, k), 1.0, 1e-7);
}

TEST(NormsTest, SparseFitAgreesWithDense) {
  const Shape shape({5, 4, 3});
  const KruskalTensor k = RandomKruskal(shape, 2, 10);
  Rng rng(11);
  DenseTensor x(shape);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    x.at_linear(i) = rng.NextDouble() < 0.7 ? 0.0 : rng.NextGaussian();
  }
  const SparseTensor sx = SparseTensor::FromDense(x);
  EXPECT_NEAR(Fit(x, k), Fit(sx, k), 1e-9);
  EXPECT_NEAR(InnerProduct(x, k), InnerProduct(sx, k), 1e-9);
}

TEST(NormsTest, ZeroTensorFitConvention) {
  const KruskalTensor k = RandomKruskal(Shape({2, 2}), 1, 12);
  DenseTensor x{Shape({2, 2})};
  EXPECT_EQ(Fit(x, k), 1.0);  // ||X|| = 0 convention
}

}  // namespace
}  // namespace tpcp
