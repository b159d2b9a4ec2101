#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/synthetic.h"
#include "storage/env.h"

namespace tpcp {
namespace {

TEST(SyntheticTest, LowRankTensorIsDeterministic) {
  LowRankSpec spec;
  spec.shape = Shape({6, 5, 4});
  spec.rank = 2;
  spec.seed = 1;
  const DenseTensor a = MakeLowRankTensor(spec);
  const DenseTensor b = MakeLowRankTensor(spec);
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_EQ(a.at_linear(i), b.at_linear(i));
  }
}

TEST(SyntheticTest, NoiselessTensorIsExactlyLowRank) {
  // A noiseless rank-2 tensor must be recoverable at rank 2 — verified in
  // cp_als_test; here just check it is non-trivial and fully dense.
  LowRankSpec spec;
  spec.shape = Shape({8, 8, 8});
  spec.rank = 2;
  spec.noise_level = 0.0;
  const DenseTensor t = MakeLowRankTensor(spec);
  EXPECT_EQ(SparseTensor::FromDense(t).nnz(), t.NumElements());
  EXPECT_GT(t.FrobeniusNorm(), 0.0);
}

TEST(SyntheticTest, DensityControlsNonZeroFraction) {
  LowRankSpec spec;
  spec.shape = Shape({20, 20, 20});
  spec.rank = 2;
  spec.density = 0.2;
  spec.seed = 3;
  const DenseTensor t = MakeLowRankTensor(spec);
  const int64_t nnz = SparseTensor::FromDense(t).nnz();
  const double observed =
      static_cast<double>(nnz) / static_cast<double>(t.NumElements());
  EXPECT_NEAR(observed, 0.2, 0.02);
}

TEST(SyntheticTest, NoiseLevelZeroMeansNoNoise) {
  LowRankSpec clean;
  clean.shape = Shape({6, 6, 6});
  clean.rank = 2;
  clean.noise_level = 0.0;
  LowRankSpec noisy = clean;
  noisy.noise_level = 0.5;
  const DenseTensor a = MakeLowRankTensor(clean);
  const DenseTensor b = MakeLowRankTensor(noisy);
  double diff = 0.0;
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    diff += std::abs(a.at_linear(i) - b.at_linear(i));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(SyntheticTest, StreamedGenerationMatchesInMemory) {
  LowRankSpec spec;
  spec.shape = Shape({10, 8, 6});
  spec.rank = 3;
  spec.noise_level = 0.02;
  spec.density = 0.7;
  spec.seed = 4;
  const DenseTensor reference = MakeLowRankTensor(spec);

  auto env = NewMemEnv();
  GridPartition grid(spec.shape, {2, 2, 3});
  BlockTensorStore store(env.get(), "t", grid);
  ASSERT_TRUE(GenerateLowRankIntoStore(spec, &store).ok());
  for (const BlockIndex& block : grid.AllBlocks()) {
    const DenseTensor expected =
        reference.Slice(grid.BlockOffsets(block), grid.BlockSizes(block));
    auto streamed = store.ReadBlock(block);
    ASSERT_TRUE(streamed.ok());
    for (int64_t i = 0; i < expected.NumElements(); ++i) {
      EXPECT_EQ(streamed->at_linear(i), expected.at_linear(i)) << "cell " << i;
    }
  }
}

TEST(SyntheticTest, StreamedGenerationValidatesShape) {
  LowRankSpec spec;
  spec.shape = Shape({10, 8, 6});
  auto env = NewMemEnv();
  GridPartition grid(Shape({9, 8, 6}), {3, 2, 2});
  BlockTensorStore store(env.get(), "t", grid);
  EXPECT_EQ(GenerateLowRankIntoStore(spec, &store).code(),
            StatusCode::kInvalidArgument);
}

TEST(SyntheticTest, PowerLawIsSkewed) {
  const Shape shape({100, 100, 10});
  const SparseTensor t = MakePowerLawSparseTensor(shape, 2000, 2.5, 6);
  EXPECT_GT(t.nnz(), 1500);  // collision losses bounded
  // Mass concentrates in the low-index half along mode 0.
  int64_t low = 0;
  for (const SparseEntry& e : t.entries()) {
    if (e.index[0] < 50) ++low;
  }
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(t.nnz()), 0.65);
}

TEST(DatasetsTest, ShapesAndDensitiesMatchPaper) {
  EXPECT_EQ(PaperDatasetShape(PaperDataset::kEpinions),
            Shape({170, 1000, 18}));
  EXPECT_EQ(PaperDatasetShape(PaperDataset::kCiao), Shape({167, 967, 18}));
  EXPECT_EQ(PaperDatasetShape(PaperDataset::kEnron), Shape({5632, 184, 184}));
  EXPECT_EQ(PaperDatasetShape(PaperDataset::kFace), Shape({480, 640, 100}));
  EXPECT_DOUBLE_EQ(PaperDatasetDensity(PaperDataset::kFace), 1.0);
  EXPECT_EQ(AllPaperDatasets().size(), 4u);
  EXPECT_STREQ(PaperDatasetName(PaperDataset::kEnron), "Enron");
}

TEST(DatasetsTest, SparseStandInsMatchReportedDensity) {
  for (PaperDataset d : {PaperDataset::kEpinions, PaperDataset::kCiao}) {
    const SparseTensor t = MakeSparsePaperDataset(d, 7);
    const double target = PaperDatasetDensity(d);
    EXPECT_NEAR(t.density(), target, target * 0.25) << PaperDatasetName(d);
  }
}

TEST(DatasetsTest, FaceIsFullyDense) {
  // Use the scaled-down path: generate at 1/8 scale to keep the test fast.
  LowRankSpec spec;
  spec.shape = ScaledShape(PaperDatasetShape(PaperDataset::kFace), 0.125);
  spec.rank = 5;
  spec.noise_level = 0.05;
  const DenseTensor t = MakeLowRankTensor(spec);
  EXPECT_EQ(SparseTensor::FromDense(t).nnz(), t.NumElements());
}

TEST(DatasetsTest, ScaledShapePreservesRatiosAndFloors) {
  const Shape s = ScaledShape(Shape({170, 1000, 18}), 0.1);
  EXPECT_EQ(s.dim(0), 17);
  EXPECT_EQ(s.dim(1), 100);
  EXPECT_EQ(s.dim(2), 8);  // floored at 8
  const Shape full = ScaledShape(Shape({170, 1000, 18}), 1.0);
  EXPECT_EQ(full, Shape({170, 1000, 18}));
}

TEST(DatasetsTest, BlockDensityVariesMoreOnSparseData) {
  // The effect Fig. 13 attributes accuracy variability to: block densities
  // vary strongly on the skewed sparse data, and not at all on Face.
  const SparseTensor epinions =
      MakeSparsePaperDataset(PaperDataset::kEpinions, 8);
  GridPartition grid = GridPartition::Uniform(epinions.shape(), 2);
  std::vector<int64_t> counts(static_cast<size_t>(grid.NumBlocks()), 0);
  for (const SparseEntry& e : epinions.entries()) {
    BlockIndex block(3);
    for (int m = 0; m < 3; ++m) {
      int64_t part = 0;
      while (grid.PartitionOffset(m, part + 1) <= e.index[m]) ++part;
      block[static_cast<size_t>(m)] = part;
    }
    ++counts[static_cast<size_t>(grid.FlattenBlock(block))];
  }
  const auto [min_it, max_it] =
      std::minmax_element(counts.begin(), counts.end());
  // Strong skew: the densest block holds many times the sparsest.
  EXPECT_GT(*max_it, 4 * std::max<int64_t>(*min_it, 1));
}

}  // namespace
}  // namespace tpcp
