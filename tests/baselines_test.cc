#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "baselines/haten2_sim.h"
#include "baselines/naive_oocp.h"
#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

DenseTensor ExactLowRank(const Shape& shape, int64_t rank, uint64_t seed) {
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = rank;
  spec.seed = seed;
  return MakeLowRankTensor(spec);
}

TEST(NaiveOocpTest, ConvergesOnLowRankTensor) {
  auto env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(Shape({12, 12, 12}), 2);
  BlockTensorStore input(env.get(), "t", grid);
  const DenseTensor tensor = ExactLowRank(grid.tensor_shape(), 2, 1);
  ASSERT_TRUE(input.ImportTensor(tensor).ok());

  NaiveOocpOptions options;
  options.rank = 2;
  options.max_iterations = 80;
  options.fit_tolerance = 1e-8;
  auto result = NaiveOutOfCoreCp(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->fit, 0.99);
  EXPECT_GT(result->iterations, 0);
  EXPECT_GT(result->bytes_streamed, 0u);
  EXPECT_GT(Fit(tensor, result->decomposition), 0.99);
}

TEST(NaiveOocpTest, StreamsTensorRepeatedly) {
  auto env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(Shape({8, 8, 8}), 2);
  BlockTensorStore input(env.get(), "t", grid);
  ASSERT_TRUE(input.ImportTensor(ExactLowRank(grid.tensor_shape(), 2, 2)).ok());
  NaiveOocpOptions options;
  options.rank = 2;
  options.max_iterations = 3;
  options.fit_tolerance = -1.0;  // force all iterations
  auto result = NaiveOutOfCoreCp(input, options);
  ASSERT_TRUE(result.ok());
  const uint64_t tensor_bytes = CostModel::TensorBytes(grid.tensor_shape());
  // 1 norm pass + per iteration (3 MTTKRP passes + 1 fit pass).
  EXPECT_EQ(result->bytes_streamed, tensor_bytes * (1 + 3 * 4));
}

TEST(NaiveOocpTest, TimeBudgetStopsRun) {
  auto env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(Shape({12, 12, 12}), 2);
  BlockTensorStore input(env.get(), "t", grid);
  ASSERT_TRUE(input.ImportTensor(ExactLowRank(grid.tensor_shape(), 3, 3)).ok());
  NaiveOocpOptions options;
  options.rank = 3;
  options.max_iterations = 1000000;
  options.fit_tolerance = -1.0;
  options.max_seconds = 0.05;
  auto result = NaiveOutOfCoreCp(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  EXPECT_LT(result->iterations, 1000000);
}

TEST(Haten2SimTest, DecomposesSparseTensor) {
  auto env = NewMemEnv();
  const SparseTensor x =
      MakeUniformSparseTensor(Shape({20, 20, 20}), 400, 5);
  Haten2Options options;
  options.rank = 3;
  options.iterations = 10;
  const Haten2Result result = RunHaten2Sim(x, env.get(), options);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.iterations_completed, 10);
  EXPECT_GT(result.shuffle_bytes, 0u);
  // (N-1)=2 chained binding jobs per mode update, 3 modes, 10 iterations.
  EXPECT_EQ(result.mapreduce_jobs, 60u);
  EXPECT_GT(result.fit, 0.0);
}

TEST(Haten2SimTest, ShuffleVolumeScalesWithNnzTimesRank) {
  auto env = NewMemEnv();
  const Shape shape({16, 16, 16});
  Haten2Options options;
  options.iterations = 1;

  options.rank = 2;
  const SparseTensor small = MakeUniformSparseTensor(shape, 100, 6);
  const uint64_t bytes_small =
      RunHaten2Sim(small, env.get(), options).shuffle_bytes;

  const SparseTensor big = MakeUniformSparseTensor(shape, 400, 7);
  const uint64_t bytes_big =
      RunHaten2Sim(big, env.get(), options).shuffle_bytes;

  // 4x the non-zeros -> about 4x the shuffle volume.
  EXPECT_GT(bytes_big, 3 * bytes_small);
  EXPECT_LT(bytes_big, 5 * bytes_small);
}

TEST(Haten2SimTest, HeapCapMakesDenseInputFail) {
  // The Table I "FAILS" mechanism: a dense tensor's nnz-proportional
  // reducer state exceeds the per-reducer heap cap.
  auto env = NewMemEnv();
  const DenseTensor dense = ExactLowRank(Shape({12, 12, 12}), 2, 8);
  const SparseTensor as_sparse = SparseTensor::FromDense(dense);
  Haten2Options options;
  options.rank = 4;
  options.iterations = 1;
  options.num_reducers = 2;
  options.heap_cap_bytes = 16384;
  const Haten2Result result = RunHaten2Sim(as_sparse, env.get(), options);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("ResourceExhausted"), std::string::npos);
  EXPECT_EQ(result.iterations_completed, 0);
}

TEST(Haten2SimTest, SameCapSucceedsOnSparseInput) {
  // The same heap cap that kills the dense input is fine for a genuinely
  // sparse tensor of the same shape — HaTen2's design point.
  auto env = NewMemEnv();
  const SparseTensor sparse =
      MakeUniformSparseTensor(Shape({12, 12, 12}), 40, 9);
  Haten2Options options;
  options.rank = 4;
  options.iterations = 1;
  options.num_reducers = 2;
  options.heap_cap_bytes = 16384;
  const Haten2Result result = RunHaten2Sim(sparse, env.get(), options);
  EXPECT_FALSE(result.failed) << result.failure;
}

TEST(Haten2SimTest, FitComparableToInMemoryAls) {
  auto env = NewMemEnv();
  const DenseTensor dense = ExactLowRank(Shape({10, 10, 10}), 2, 10);
  const SparseTensor x = SparseTensor::FromDense(dense);
  Haten2Options options;
  options.rank = 2;
  options.iterations = 30;
  options.seed = 11;
  const Haten2Result result = RunHaten2Sim(x, env.get(), options);
  ASSERT_FALSE(result.failed);
  // The MapReduce formulation is plain ALS: it must reach a good fit on an
  // exactly low-rank input.
  EXPECT_GT(result.fit, 0.95);
}

}  // namespace
}  // namespace tpcp
