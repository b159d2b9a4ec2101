// Tests for the Phase-2 execution planner: the conflict-aware reordering
// pass (permutation + per-unit-order preservation + widened waves), the
// swap-parity certification gate, plan determinism/fingerprints, and
// wave boundary semantics (incl. the cycle-boundary cursor contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/swap_simulator.h"
#include "schedule/conflict.h"
#include "schedule/planner.h"

namespace tpcp {
namespace {

GridPartition TestGrid(int64_t parts = 4) {
  return GridPartition::Uniform(Shape({24, 24, 24}), parts);
}

uint64_t CapacityFor(const GridPartition& grid, int64_t rank,
                     double fraction) {
  UnitCatalog catalog(grid, rank);
  return std::max(
      static_cast<uint64_t>(fraction *
                            static_cast<double>(catalog.TotalBytes())),
      catalog.MaxUnitBytes());
}

PlannerOptions ReorderOptions(const GridPartition& grid, double fraction,
                              PolicyType policy = PolicyType::kForward) {
  PlannerOptions options;
  options.rank = 4;
  options.policy = policy;
  options.buffer_bytes = CapacityFor(grid, options.rank, fraction);
  options.reorder = true;
  return options;
}

// ---- Reordering pass -------------------------------------------------------

TEST(ReorderCycleTest, IsAPermutationPreservingPerUnitOrder) {
  const GridPartition grid = TestGrid();
  for (ScheduleType type : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                            ScheduleType::kHilbertOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    const std::vector<UpdateStep> reordered =
        ReorderCycleForWidth(schedule.cycle(), /*window=*/12);
    ASSERT_EQ(reordered.size(), schedule.cycle().size());

    // Same multiset of (mode, part) steps per cycle...
    std::map<ModePartition, int64_t> before;
    std::map<ModePartition, int64_t> after;
    for (const UpdateStep& s : schedule.cycle()) ++before[s.unit()];
    for (const UpdateStep& s : reordered) ++after[s.unit()];
    EXPECT_EQ(before, after) << ScheduleTypeName(type);

    // ...and per-unit accesses in their original relative order (the pass
    // only permutes across modes), checked via each unit's block sequence.
    std::map<ModePartition, std::vector<BlockIndex>> blocks_before;
    std::map<ModePartition, std::vector<BlockIndex>> blocks_after;
    for (const UpdateStep& s : schedule.cycle()) {
      blocks_before[s.unit()].push_back(s.block);
    }
    for (const UpdateStep& s : reordered) {
      blocks_after[s.unit()].push_back(s.block);
    }
    EXPECT_EQ(blocks_before, blocks_after) << ScheduleTypeName(type);
  }
}

TEST(ReorderCycleTest, ModeCentricIsAlreadyMaximalSoReorderIsIdentity) {
  const GridPartition grid = TestGrid();
  const UpdateSchedule mc =
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid);
  const std::vector<UpdateStep> reordered =
      ReorderCycleForWidth(mc.cycle(), mc.virtual_iteration_length());
  for (size_t i = 0; i < reordered.size(); ++i) {
    EXPECT_TRUE(reordered[i].unit() == mc.cycle()[i].unit()) << i;
  }
}

TEST(ReorderCycleTest, WidensBlockCentricBatches) {
  const GridPartition grid = TestGrid();
  for (ScheduleType type : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                            ScheduleType::kHilbertOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    ASSERT_EQ(ConflictAnalysis(schedule).max_batch_size(), 1);
    const UpdateSchedule reordered = UpdateSchedule::Reordered(
        schedule, ReorderCycleForWidth(schedule.cycle(), 12));
    EXPECT_GT(ConflictAnalysis(reordered).max_batch_size(), 1)
        << ScheduleTypeName(type);
  }
}

// ---- Certification gate ----------------------------------------------------

TEST(PlannerTest, AdoptedReordersNeverExceedSourceSwaps) {
  for (ScheduleType type : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                            ScheduleType::kHilbertOrder}) {
    for (double fraction : {0.35, 0.5, 0.7}) {
      for (PolicyType policy : {PolicyType::kForward, PolicyType::kLru}) {
        const GridPartition grid = TestGrid();
        const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
        const PlannerOptions options =
            ReorderOptions(grid, fraction, policy);
        const ExecutionPlan plan = Planner::Build(schedule, options);
        const PlanStats& stats = plan.stats();
        ASSERT_TRUE(stats.certified);
        // The executed order never swaps more than the source order —
        // verified independently of the planner's own bookkeeping, over a
        // longer cycle-aligned window than it certified with.
        const double source = SimulateSteadyStateSwapsPerVi(
            schedule, options.rank, policy, options.buffer_bytes, 2, 4);
        const double executed = SimulateSteadyStateSwapsPerVi(
            plan.schedule(), options.rank, policy, options.buffer_bytes, 2,
            4);
        EXPECT_LE(executed, source + 1e-9)
            << ScheduleTypeName(type) << " fraction " << fraction;
        EXPECT_DOUBLE_EQ(stats.effective_swaps(),
                         stats.reorder_applied ? stats.swaps_after
                                               : stats.swaps_before);
        if (stats.reorder_applied) {
          EXPECT_GT(plan.max_wave_width(), 1) << ScheduleTypeName(type);
          EXPECT_GT(stats.reorder_window, 0);
        }
      }
    }
  }
}

TEST(PlannerTest, BlockCentricSchedulesGainWidthAtModerateBuffers) {
  // The acceptance-criterion configuration: at a 0.5 buffer the ladder
  // finds certified, >1-width reorders for the swap-optimal block-centric
  // schedules (FO needs the larger 8-part grid's slack).
  struct Case {
    ScheduleType type;
    int64_t parts;
    double fraction;
  };
  for (const Case& c : {Case{ScheduleType::kZOrder, 4, 0.5},
                        Case{ScheduleType::kHilbertOrder, 4, 0.5},
                        Case{ScheduleType::kFiberOrder, 8, 0.7}}) {
    const GridPartition grid = TestGrid(c.parts);
    const UpdateSchedule schedule = UpdateSchedule::Create(c.type, grid);
    const ExecutionPlan plan =
        Planner::Build(schedule, ReorderOptions(grid, c.fraction));
    EXPECT_TRUE(plan.stats().reorder_applied) << ScheduleTypeName(c.type);
    EXPECT_GT(plan.max_wave_width(), 1) << ScheduleTypeName(c.type);
    EXPECT_LE(plan.stats().swaps_after, plan.stats().swaps_before + 1e-9);
  }
}

TEST(PlannerTest, UncertifiedReorderIsAdoptedAsRequested) {
  const GridPartition grid = TestGrid();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kFiberOrder, grid);
  PlannerOptions options = ReorderOptions(grid, 0.35);
  options.certify = false;
  const ExecutionPlan plan = Planner::Build(schedule, options);
  EXPECT_TRUE(plan.stats().reorder_applied);
  EXPECT_FALSE(plan.stats().certified);
  EXPECT_GT(plan.max_wave_width(), 1);
}

// ---- Determinism and fingerprints ------------------------------------------

TEST(PlannerTest, EqualInputsYieldEqualFingerprints) {
  const GridPartition grid = TestGrid();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kZOrder, grid);
  const PlannerOptions options = ReorderOptions(grid, 0.5);
  const ExecutionPlan a = Planner::Build(schedule, options);
  const ExecutionPlan b = Planner::Build(schedule, options);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_EQ(a.cycle_length(), b.cycle_length());
  for (int64_t p = 0; p < a.cycle_length(); ++p) {
    ASSERT_TRUE(a.UnitAt(p) == b.UnitAt(p)) << p;
  }
}

TEST(PlannerTest, FingerprintSeparatesPlanVariants) {
  const GridPartition grid = TestGrid();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kZOrder, grid);
  PlannerOptions identity;
  identity.rank = 4;
  const uint64_t base = Planner::Build(schedule, identity).fingerprint();

  // A (certified, adopted) reorder changes the step order → fingerprint.
  const ExecutionPlan reordered =
      Planner::Build(schedule, ReorderOptions(grid, 0.5));
  ASSERT_TRUE(reordered.stats().reorder_applied);
  EXPECT_NE(reordered.fingerprint(), base);

  // Execution-only knobs do not: prefetch depth shapes directives, not
  // math.
  PlannerOptions deeper = identity;
  deeper.prefetch_depth = 3;
  EXPECT_EQ(Planner::Build(schedule, deeper).fingerprint(), base);
}

TEST(PlannerTest, IdentityPlanMatchesConflictAnalysis) {
  // With every knob off, the plan is the source order and its waves are
  // exactly the conflict batches.
  const GridPartition grid = TestGrid();
  for (ScheduleType type :
       {ScheduleType::kModeCentric, ScheduleType::kZOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    PlannerOptions options;
    options.rank = 4;
    const ExecutionPlan plan = Planner::Build(schedule, options);
    const ConflictAnalysis conflicts(schedule);
    ASSERT_EQ(plan.waves().size(), conflicts.batches().size());
    for (size_t i = 0; i < plan.waves().size(); ++i) {
      EXPECT_EQ(plan.waves()[i].begin, conflicts.batches()[i].begin);
      EXPECT_EQ(plan.waves()[i].end, conflicts.batches()[i].end);
    }
    for (int64_t p = 0; p < plan.cycle_length(); ++p) {
      EXPECT_TRUE(plan.UnitAt(p) == schedule.UnitAt(p));
      EXPECT_EQ(plan.WaveEndAfter(p), conflicts.BatchEndAfter(p));
    }
  }
}

// ---- Wave boundaries --------------------------------------------------------

TEST(PlannerTest, WaveEndAfterCycleBoundaryContract) {
  const GridPartition grid = TestGrid();
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid);
  PlannerOptions options;
  options.rank = 4;
  const ExecutionPlan plan = Planner::Build(schedule, options);
  const int64_t len = plan.cycle_length();  // 12: waves [0,4)[4,8)[8,12)
  const int64_t first_end = plan.waves().front().end;
  // A cursor at exactly k·cycle_length belongs to cycle k's first wave:
  // strictly greater result, never an empty wave.
  for (int64_t k : {0, 1, 2, 7}) {
    EXPECT_EQ(plan.WaveEndAfter(k * len), k * len + first_end) << k;
    EXPECT_GT(plan.WaveEndAfter(k * len), k * len) << k;
  }
  EXPECT_EQ(plan.WaveEndAfter(len - 1), len);  // last position of a cycle
  EXPECT_EQ(plan.WaveEndAfter(3 * len + 5), 3 * len + 8);
}

TEST(PlannerTest, EvictHintsMatchLookahead) {
  const GridPartition grid = TestGrid();
  PlannerOptions options;
  options.rank = 4;
  const ExecutionPlan plan = Planner::Build(
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid), options);
  const int64_t vi_len = plan.virtual_iteration_length();
  for (const PlanWave& wave : plan.waves()) {
    for (int64_t p = wave.begin; p < wave.end; ++p) {
      const ModePartition unit = plan.UnitAt(p);
      const bool dead =
          plan.lookahead()->NextUse(unit, wave.end - 1) - wave.end >= vi_len;
      const bool hinted =
          std::count(wave.evict_hints.begin(), wave.evict_hints.end(),
                     unit) > 0;
      EXPECT_EQ(hinted, dead) << "wave [" << wave.begin << "," << wave.end
                              << ") unit mode " << unit.mode << " part "
                              << unit.part;
    }
  }
}

// ---- ConflictAnalysis cycle-boundary regression ----------------------------

TEST(ConflictAnalysisTest, BatchEndAfterAtExactCycleMultiples) {
  // Regression for the documented cycle-boundary contract: a cursor at
  // k·cycle_length is the first step of cycle k and must map to that
  // cycle's *first* batch (strictly greater result), not to the batch
  // that ended there.
  const GridPartition grid = TestGrid();
  for (ScheduleType type :
       {ScheduleType::kModeCentric, ScheduleType::kZOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    const ConflictAnalysis analysis(schedule);
    const int64_t len = schedule.cycle_length();
    const int64_t first_end = analysis.batches().front().end;
    for (int64_t k : {0, 1, 2, 5, 11}) {
      const int64_t pos = k * len;
      EXPECT_EQ(analysis.BatchEndAfter(pos), pos + first_end)
          << ScheduleTypeName(type) << " k=" << k;
      EXPECT_GT(analysis.BatchEndAfter(pos), pos);
    }
    // And the position just before a boundary still ends its own cycle.
    EXPECT_EQ(analysis.BatchEndAfter(len - 1), len);
    EXPECT_EQ(analysis.BatchEndAfter(4 * len - 1), 4 * len);
  }
}

}  // namespace
}  // namespace tpcp
