#include "core/two_phase_cp.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/cost_model.h"
#include "core/swap_simulator.h"
#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<BlockTensorStore> input;
  std::unique_ptr<BlockFactorStore> factors;
  DenseTensor tensor;
};

Fixture MakeFixture(const Shape& shape, int64_t parts, int64_t rank,
                    double noise = 0.0, uint64_t seed = 1) {
  Fixture f;
  f.env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(shape, parts);
  f.input = std::make_unique<BlockTensorStore>(f.env.get(), "tensor", grid);
  f.factors =
      std::make_unique<BlockFactorStore>(f.env.get(), "factors", grid, rank);
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = rank;
  spec.noise_level = noise;
  spec.seed = seed;
  f.tensor = MakeLowRankTensor(spec);
  TPCP_CHECK(f.input->ImportTensor(f.tensor).ok());
  return f;
}

TwoPhaseCpOptions BaseOptions(int64_t rank) {
  TwoPhaseCpOptions options;
  options.rank = rank;
  options.phase1_max_iterations = 60;
  options.max_virtual_iterations = 60;
  options.fit_tolerance = 1e-5;
  options.buffer_fraction = 0.5;
  return options;
}

TEST(TwoPhaseCpTest, DecomposesExactLowRankTensor) {
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 3);
  TwoPhaseCp engine(f.input.get(), f.factors.get(), BaseOptions(3));
  auto k = engine.Run();
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_GT(Fit(f.tensor, *k), 0.95);
  const TwoPhaseCpResult& r = engine.result();
  EXPECT_EQ(r.blocks_decomposed, 8);
  EXPECT_GT(r.phase1_mean_block_fit, 0.95);
  EXPECT_GT(r.virtual_iterations, 0);
  EXPECT_GT(r.surrogate_fit, 0.9);
}

TEST(TwoPhaseCpTest, Phase2RequiresPhase1) {
  Fixture f = MakeFixture(Shape({8, 8, 8}), 2, 2);
  TwoPhaseCp engine(f.input.get(), f.factors.get(), BaseOptions(2));
  EXPECT_DEATH(engine.RunPhase2(), "RunPhase1");
}

TEST(TwoPhaseCpTest, SurrogateFitTraceNonDecreasing) {
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, /*noise=*/0.05);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.fit_tolerance = -1.0;  // never converge early
  options.max_virtual_iterations = 15;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.Run().ok());
  const auto& trace = engine.result().fit_trace;
  ASSERT_GT(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1] - 1e-6) << "virtual iteration " << i;
  }
}

TEST(TwoPhaseCpTest, PhasesCanBeRunSeparately) {
  Fixture f = MakeFixture(Shape({8, 8, 8}), 2, 2);
  TwoPhaseCp engine(f.input.get(), f.factors.get(), BaseOptions(2));
  ASSERT_TRUE(engine.RunPhase1().ok());
  EXPECT_GT(engine.result().phase1_seconds, 0.0);
  // All block factors persisted.
  for (const BlockIndex& b : f.input->grid().AllBlocks()) {
    for (int m = 0; m < 3; ++m) {
      EXPECT_TRUE(f.factors->ReadBlockFactor(b, m).ok());
    }
  }
  ASSERT_TRUE(engine.RunPhase2().ok());
  EXPECT_GT(engine.result().virtual_iterations, 0);
}

TEST(TwoPhaseCpTest, ParallelPhase1MatchesSerial) {
  Fixture serial = MakeFixture(Shape({10, 10, 10}), 2, 2);
  Fixture parallel = MakeFixture(Shape({10, 10, 10}), 2, 2);
  TwoPhaseCp engine_s(serial.input.get(), serial.factors.get(),
                      BaseOptions(2));
  TwoPhaseCp engine_p(parallel.input.get(), parallel.factors.get(),
                      BaseOptions(2));
  ASSERT_TRUE(engine_s.RunPhase1().ok());
  ThreadPool pool(4);
  ASSERT_TRUE(engine_p.RunPhase1(&pool).ok());
  // Same per-block seeds -> byte-identical factors regardless of threading.
  for (const BlockIndex& b : serial.input->grid().AllBlocks()) {
    for (int m = 0; m < 3; ++m) {
      auto lhs = serial.factors->ReadBlockFactor(b, m);
      auto rhs = parallel.factors->ReadBlockFactor(b, m);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_TRUE(*lhs == *rhs);
    }
  }
}

TEST(TwoPhaseCpTest, BufferStatsPopulated) {
  Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.buffer_fraction = 1.0 / 3.0;
  options.max_virtual_iterations = 10;
  options.fit_tolerance = -1.0;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.Run().ok());
  const BufferStats& stats = engine.result().buffer_stats;
  EXPECT_GT(stats.accesses, 0u);
  EXPECT_GT(stats.swap_ins, 0u);
  EXPECT_GT(engine.result().swaps_per_virtual_iteration, 0.0);
}

TEST(TwoPhaseCpTest, VictimHintsMeasuredSwapsMatchSimulator) {
  // With policy_victim_hints on, the engine's LRU takes the plan's
  // eviction advice; the swap simulator models the identical advised
  // policy, so a cold-start replay over the same number of virtual
  // iterations predicts the measured swap count exactly.
  Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.schedule = ScheduleType::kFiberOrder;
  // Pin the source order: this test replays the *native* FO cycle through
  // the simulator, so the engine must not adopt the block-centric
  // reordering default.
  options.plan_reorder_auto = false;
  options.policy = PolicyType::kLru;
  options.policy_victim_hints = true;
  options.buffer_fraction = 1.0 / 3.0;
  options.max_virtual_iterations = 6;
  options.fit_tolerance = -1.0;  // fixed work
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.Run().ok());
  const uint64_t measured = engine.result().buffer_stats.swap_ins;

  const GridPartition& grid = f.input->grid();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(options.schedule, grid);
  UnitCatalog catalog(grid, options.rank);
  const SwapSimResult simulated = SimulateSwapsForSchedule(
      schedule, options.rank,  options.policy,
      options.ResolveBufferBytes(catalog.TotalBytes()),
      /*warmup_cycles=*/0, options.max_virtual_iterations,
      /*victim_hints=*/true);
  EXPECT_EQ(measured, simulated.measured_swaps);
  // And both equal what the blocking Access-per-step data path measured.
  EXPECT_EQ(measured, 32u);

  // Parity must also hold with hints off — same engine, same simulator,
  // both running the plain recency policy.
  Fixture g = MakeFixture(Shape({16, 16, 16}), 4, 2);
  TwoPhaseCpOptions plain = options;
  plain.policy_victim_hints = false;
  TwoPhaseCp unhinted(g.input.get(), g.factors.get(), plain);
  ASSERT_TRUE(unhinted.Run().ok());
  const SwapSimResult plain_sim = SimulateSwapsForSchedule(
      schedule, options.rank, options.policy,
      options.ResolveBufferBytes(catalog.TotalBytes()),
      /*warmup_cycles=*/0, options.max_virtual_iterations,
      /*victim_hints=*/false);
  EXPECT_EQ(unhinted.result().buffer_stats.swap_ins,
            plain_sim.measured_swaps);
  EXPECT_EQ(unhinted.result().buffer_stats.swap_ins, 32u);

  // Hints shape I/O only: the factors are bit-identical either way.
  for (int m = 0; m < 3; ++m) {
    for (const BlockIndex& b : grid.AllBlocks()) {
      auto lhs = f.factors->ReadBlockFactor(b, m);
      auto rhs = g.factors->ReadBlockFactor(b, m);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_TRUE(*lhs == *rhs);
    }
  }
}

TEST(TwoPhaseCpTest, DirtySubFactorsArePersisted) {
  Fixture f = MakeFixture(Shape({8, 8, 8}), 2, 2);
  TwoPhaseCp engine(f.input.get(), f.factors.get(), BaseOptions(2));
  auto k = engine.Run();
  ASSERT_TRUE(k.ok());
  // Assembled factors from the store must match the returned decomposition
  // modulo the final normalization.
  for (int m = 0; m < 3; ++m) {
    auto assembled = f.factors->AssembleFullFactor(m);
    ASSERT_TRUE(assembled.ok());
    EXPECT_EQ(assembled->rows(), 8);
    EXPECT_EQ(assembled->cols(), 2);
  }
}

TEST(TwoPhaseCpTest, ConvergesEarlierThanIterationCap) {
  Fixture f = MakeFixture(Shape({10, 10, 10}), 2, 2);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.fit_tolerance = 1e-3;
  options.max_virtual_iterations = 100;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_TRUE(engine.result().converged);
  EXPECT_LT(engine.result().virtual_iterations, 100);
}

using ScheduleAndPolicy = std::tuple<ScheduleType, PolicyType>;

class TwoPhaseSweep : public ::testing::TestWithParam<ScheduleAndPolicy> {};

// Every (schedule, policy) combination must produce a numerically
// equivalent decomposition: scheduling changes I/O order, not math.
TEST_P(TwoPhaseSweep, AllConfigurationsReachGoodFit) {
  const auto [schedule, policy] = GetParam();
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, 0.0, /*seed=*/3);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.schedule = schedule;
  options.policy = policy;
  options.buffer_fraction = 1.0 / 3.0;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  auto k = engine.Run();
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  // Mode-centric converges to a slightly worse point than block-centric
  // on this input (the effect Figure 13 reports), so the bar is shared.
  EXPECT_GT(Fit(f.tensor, *k), 0.8)
      << ScheduleTypeName(schedule) << "+" << PolicyTypeName(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, TwoPhaseSweep,
    ::testing::Combine(::testing::Values(ScheduleType::kModeCentric,
                                         ScheduleType::kFiberOrder,
                                         ScheduleType::kZOrder,
                                         ScheduleType::kHilbertOrder),
                       ::testing::Values(PolicyType::kLru, PolicyType::kMru,
                                         PolicyType::kForward)));

TEST(TwoPhaseCpTest, UnevenPartitionsWork) {
  Fixture f;
  f.env = NewMemEnv();
  GridPartition grid(Shape({10, 9, 7}), {3, 2, 2});
  f.input = std::make_unique<BlockTensorStore>(f.env.get(), "tensor", grid);
  f.factors =
      std::make_unique<BlockFactorStore>(f.env.get(), "factors", grid, 2);
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 2;
  spec.seed = 5;
  f.tensor = MakeLowRankTensor(spec);
  ASSERT_TRUE(f.input->ImportTensor(f.tensor).ok());
  TwoPhaseCp engine(f.input.get(), f.factors.get(), BaseOptions(2));
  auto k = engine.Run();
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_GT(Fit(f.tensor, *k), 0.9);
}

TEST(CostModelTest, ExchangeEstimateScalesWithSwaps) {
  GridPartition grid = GridPartition::Uniform(Shape({100, 100, 100}), 4);
  CostModel model(grid, 10);
  EXPECT_EQ(model.NaiveSwapsPerIteration(), 12);
  EXPECT_EQ(model.ExchangeBytesPerIteration(12.0),
            model.TotalRefinementBytes());
  EXPECT_GT(model.TotalRefinementBytes(), model.PerModePartitionBytes());
  EXPECT_EQ(CostModel::TensorBytes(Shape({10, 10})), 800u);
  EXPECT_NE(model.ToString().find("mem_total"), std::string::npos);
}

}  // namespace
}  // namespace tpcp
