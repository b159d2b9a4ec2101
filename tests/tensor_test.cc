#include <gtest/gtest.h>

#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
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

TEST(DenseTensorTest, ZeroInitialized) {
  DenseTensor t{Shape({2, 3})};
  EXPECT_EQ(t.NumElements(), 6);
  EXPECT_EQ(SparseTensor::FromDense(t).nnz(), 0);
  EXPECT_EQ(t.FrobeniusNorm(), 0.0);
}

TEST(DenseTensorTest, MultiIndexAccess) {
  DenseTensor t{Shape({2, 3, 4})};
  t.at({1, 2, 3}) = 42.0;
  EXPECT_EQ(t.at({1, 2, 3}), 42.0);
  EXPECT_EQ(t.at_linear(t.shape().LinearIndex({1, 2, 3})), 42.0);
  EXPECT_EQ(SparseTensor::FromDense(t).nnz(), 1);
}

TEST(DenseTensorTest, Norms) {
  DenseTensor t{Shape({1, 2})};
  t.at({0, 0}) = 3.0;
  t.at({0, 1}) = 4.0;
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(t.FrobeniusNorm(), 5.0);
}

TEST(DenseTensorTest, Sub) {
  DenseTensor a{Shape({2, 2})};
  DenseTensor b{Shape({2, 2})};
  a.at({0, 0}) = 5.0;
  b.at({0, 0}) = 2.0;
  a.Sub(b);
  EXPECT_EQ(a.at({0, 0}), 3.0);
}

TEST(DenseTensorTest, SliceExtractsSubTensor) {
  const DenseTensor t = RandomTensor(Shape({4, 5, 6}), 1);
  const DenseTensor s = t.Slice({1, 2, 3}, {2, 2, 2});
  EXPECT_EQ(s.shape(), Shape({2, 2, 2}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      for (int64_t k = 0; k < 2; ++k) {
        EXPECT_EQ(s.at({i, j, k}), t.at({1 + i, 2 + j, 3 + k}));
      }
    }
  }
}

TEST(DenseTensorTest, SliceSetSliceRoundTrip) {
  const DenseTensor t = RandomTensor(Shape({4, 4}), 2);
  DenseTensor rebuilt{Shape({4, 4})};
  for (int64_t i = 0; i < 4; i += 2) {
    for (int64_t j = 0; j < 4; j += 2) {
      rebuilt.SetSlice({i, j}, t.Slice({i, j}, {2, 2}));
    }
  }
  for (int64_t l = 0; l < t.NumElements(); ++l) {
    EXPECT_EQ(rebuilt.at_linear(l), t.at_linear(l));
  }
}

TEST(SparseTensorTest, AddAndStats) {
  SparseTensor t{Shape({10, 10})};
  t.Add({1, 2}, 3.0);
  t.Add({4, 5}, -4.0);
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_DOUBLE_EQ(t.density(), 0.02);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(t.FrobeniusNorm(), 5.0);
}

TEST(SparseTensorTest, ToDenseRoundTrip) {
  SparseTensor t{Shape({3, 3})};
  t.Add({0, 1}, 2.0);
  t.Add({2, 2}, 7.0);
  const DenseTensor d = t.ToDense();
  EXPECT_EQ(d.at({0, 1}), 2.0);
  EXPECT_EQ(d.at({2, 2}), 7.0);
  EXPECT_EQ(SparseTensor::FromDense(d).nnz(), 2);

  const SparseTensor back = SparseTensor::FromDense(d);
  EXPECT_EQ(back.nnz(), 2);
  EXPECT_DOUBLE_EQ(back.SquaredNorm(), t.SquaredNorm());
}

TEST(SparseTensorTest, DuplicateCoordinatesAccumulateInDense) {
  SparseTensor t{Shape({2, 2})};
  t.Add({0, 0}, 1.0);
  t.Add({0, 0}, 2.0);
  EXPECT_EQ(t.ToDense().at({0, 0}), 3.0);
}

TEST(SparseTensorTest, FromDenseSkipsZeros) {
  DenseTensor d{Shape({2, 2})};
  d.at({1, 1}) = 5.0;
  EXPECT_EQ(SparseTensor::FromDense(d).nnz(), 1);
}

}  // namespace
}  // namespace tpcp
