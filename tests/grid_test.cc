#include <gtest/gtest.h>

#include "buffer/data_unit.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "storage/env.h"
#include "util/random.h"

namespace tpcp {
namespace {

TEST(GridPartitionTest, UniformEvenSplit) {
  GridPartition g = GridPartition::Uniform(Shape({8, 8, 8}), 2);
  EXPECT_EQ(g.NumBlocks(), 8);
  EXPECT_EQ(g.SumParts(), 6);
  EXPECT_EQ(g.parts(0), 2);
  EXPECT_EQ(g.PartitionOffset(0, 0), 0);
  EXPECT_EQ(g.PartitionOffset(0, 1), 4);
  EXPECT_EQ(g.PartitionSize(0, 0), 4);
  EXPECT_EQ(g.PartitionSize(0, 1), 4);
  EXPECT_EQ(g.ToString(), "2x2x2 over 8x8x8");
}

TEST(GridPartitionTest, UnevenSplitFrontLoadsExtras) {
  // 10 elements into 4 partitions: 3,3,2,2.
  GridPartition g(Shape({10}), {4});
  EXPECT_EQ(g.PartitionSize(0, 0), 3);
  EXPECT_EQ(g.PartitionSize(0, 1), 3);
  EXPECT_EQ(g.PartitionSize(0, 2), 2);
  EXPECT_EQ(g.PartitionSize(0, 3), 2);
  EXPECT_EQ(g.PartitionOffset(0, 4), 10);
  // Partitions tile the mode exactly.
  int64_t total = 0;
  for (int64_t k = 0; k < 4; ++k) total += g.PartitionSize(0, k);
  EXPECT_EQ(total, 10);
}

TEST(GridPartitionTest, FlattenRoundTrip) {
  GridPartition g(Shape({12, 9, 6}), {4, 3, 2});
  EXPECT_EQ(g.NumBlocks(), 24);
  for (int64_t flat = 0; flat < g.NumBlocks(); ++flat) {
    EXPECT_EQ(g.FlattenBlock(g.UnflattenBlock(flat)), flat);
  }
}

TEST(GridPartitionTest, AllBlocksEnumeratesRowMajor) {
  GridPartition g(Shape({4, 4}), {2, 2});
  const auto blocks = g.AllBlocks();
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0], (BlockIndex{0, 0}));
  EXPECT_EQ(blocks[1], (BlockIndex{0, 1}));
  EXPECT_EQ(blocks[2], (BlockIndex{1, 0}));
  EXPECT_EQ(blocks[3], (BlockIndex{1, 1}));
}

TEST(GridPartitionTest, BlockGeometry) {
  GridPartition g(Shape({10, 6}), {4, 2});
  const BlockIndex block{1, 1};
  EXPECT_EQ(g.BlockOffsets(block), (Index{3, 3}));
  EXPECT_EQ(g.BlockSizes(block), (std::vector<int64_t>{3, 3}));
}

TEST(GridPartitionTest, BlocksTileTensorExactly) {
  GridPartition g(Shape({7, 5, 9}), {3, 2, 4});
  int64_t cells = 0;
  for (const BlockIndex& b : g.AllBlocks()) {
    int64_t prod = 1;
    for (int64_t s : g.BlockSizes(b)) prod *= s;
    cells += prod;
  }
  EXPECT_EQ(cells, g.tensor_shape().NumElements());
}

DenseTensor RandomTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) = rng.NextGaussian();
  }
  return t;
}

TEST(GridPartitionTest, CreateValidatesArguments) {
  // The validated factories return InvalidArgument where the legacy
  // constructor CHECK-fails.
  EXPECT_EQ(GridPartition::CreateUniform(Shape({8, 8, 8}), 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridPartition::CreateUniform(Shape({8, 8, 8}), -2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridPartition::CreateUniform(Shape({4, 4, 4}), 5)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // parts > dim
  EXPECT_EQ(GridPartition::CreateUniform(Shape(), 2).status().code(),
            StatusCode::kInvalidArgument);  // empty shape
  EXPECT_EQ(GridPartition::Create(Shape({8, 8}), {2, 2, 2}).status().code(),
            StatusCode::kInvalidArgument);  // length mismatch

  auto good = GridPartition::CreateUniform(Shape({8, 8, 8}), 2);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(*good == GridPartition::Uniform(Shape({8, 8, 8}), 2));
}

TEST(BlockTensorStoreTest, ImportedBlocksReadBack) {
  auto env = NewMemEnv();
  GridPartition g(Shape({6, 9, 4}), {2, 3, 2});
  BlockTensorStore store(env.get(), "tensor", g);
  const DenseTensor t = RandomTensor(g.tensor_shape(), 1);
  ASSERT_TRUE(store.ImportTensor(t).ok());
  for (const BlockIndex& block : g.AllBlocks()) {
    const DenseTensor expected =
        t.Slice(g.BlockOffsets(block), g.BlockSizes(block));
    auto back = store.ReadBlock(block);
    ASSERT_TRUE(back.ok());
    for (int64_t i = 0; i < expected.NumElements(); ++i) {
      EXPECT_EQ(back->at_linear(i), expected.at_linear(i));
    }
  }
}

TEST(BlockTensorStoreTest, BlockShapeValidation) {
  auto env = NewMemEnv();
  GridPartition g(Shape({4, 4}), {2, 2});
  BlockTensorStore store(env.get(), "t", g);
  DenseTensor wrong{Shape({3, 2})};
  EXPECT_EQ(store.WriteBlock({0, 0}, wrong).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockTensorStoreTest, WriteBlockCreatesItsNamedFile) {
  auto env = NewMemEnv();
  GridPartition g(Shape({4, 4}), {2, 2});
  BlockTensorStore store(env.get(), "t", g);
  EXPECT_EQ(store.BlockFileName({1, 0}), "t/block_1_0");
  EXPECT_FALSE(env->FileExists("t/block_1_0"));
  ASSERT_TRUE(store.WriteBlock({1, 0}, DenseTensor{Shape({2, 2})}).ok());
  EXPECT_TRUE(env->FileExists("t/block_1_0"));
}

TEST(BlockTensorStoreTest, GenerateMatchesImport) {
  auto env1 = NewMemEnv();
  auto env2 = NewMemEnv();
  GridPartition g(Shape({5, 6, 3}), {2, 2, 3});
  const DenseTensor t = RandomTensor(g.tensor_shape(), 2);

  BlockTensorStore imported(env1.get(), "t", g);
  ASSERT_TRUE(imported.ImportTensor(t).ok());

  BlockTensorStore generated(env2.get(), "t", g);
  ASSERT_TRUE(
      generated.Generate([&t](const Index& idx) { return t.at(idx); }).ok());

  for (const BlockIndex& b : g.AllBlocks()) {
    auto lhs = imported.ReadBlock(b);
    auto rhs = generated.ReadBlock(b);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rhs.ok());
    for (int64_t i = 0; i < lhs->NumElements(); ++i) {
      EXPECT_EQ(lhs->at_linear(i), rhs->at_linear(i));
    }
  }
}

TEST(BlockTensorStoreTest, ReadMissingBlockFails) {
  auto env = NewMemEnv();
  GridPartition g(Shape({4, 4}), {2, 2});
  BlockTensorStore store(env.get(), "t", g);
  EXPECT_TRUE(store.ReadBlock({0, 1}).status().IsNotFound());
}

TEST(BlockTensorStoreTest, TotalBytesSumsBlocks) {
  auto env = NewMemEnv();
  GridPartition g(Shape({4, 4}), {2, 2});
  BlockTensorStore store(env.get(), "t", g);
  ASSERT_TRUE(store.ImportTensor(RandomTensor(g.tensor_shape(), 3)).ok());
  auto total = store.TotalBytes();
  ASSERT_TRUE(total.ok());
  // 16 cells * 8 bytes payload plus per-block envelope overhead.
  EXPECT_GT(total.value(), 16u * 8u);
  EXPECT_LT(total.value(), 16u * 8u + 4u * 64u);
}

TEST(CostModelFormulaTest, MatchesPaperAccounting) {
  // Section IV-A: mem_total = Σ_i K_i ((I_i/K_i)F + Π_{j≠i}K_j (I_i/K_i)F).
  GridPartition g = GridPartition::Uniform(Shape({100, 100, 100}), 4);
  UnitCatalog catalog(g, 10);
  uint64_t expected = 0;
  for (int mode = 0; mode < 3; ++mode) {
    const uint64_t a_part = (100 / 4) * 10 * 8;
    const uint64_t u_slab = 16 * a_part;  // Π_{j≠i} K_j = 16
    expected += 4 * (a_part + u_slab);
  }
  EXPECT_EQ(catalog.TotalBytes(), expected);
}

}  // namespace
}  // namespace tpcp
