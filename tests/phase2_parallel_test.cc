// Tests for the parallel Phase-2 compute engine: conflict-free batch
// segmentation, and bit-identical factors/fit traces for every
// compute_threads value on both data paths — including across a
// cancel-then-resume. This suite runs under the TSan CI job, which is
// where concurrent ApplyUpdate on disjoint units earns its keep.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/cancellation.h"
#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "grid/manifest.h"
#include "schedule/conflict.h"
#include "schedule/planner.h"
#include "storage/env.h"

namespace tpcp {
namespace {

// ---- Conflict analysis -----------------------------------------------------

TEST(ConflictAnalysisTest, ModeCentricYieldsOneBatchPerMode) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid);
  const ConflictAnalysis analysis(schedule);
  ASSERT_EQ(analysis.batches().size(), 3u);
  EXPECT_EQ(analysis.max_batch_size(), 4);
  int64_t expected_begin = 0;
  for (const StepBatch& batch : analysis.batches()) {
    EXPECT_EQ(batch.begin, expected_begin);
    EXPECT_EQ(batch.size(), 4);
    // All steps of a batch share the mode and have distinct partitions.
    for (int64_t p = batch.begin; p < batch.end; ++p) {
      for (int64_t q = batch.begin; q < p; ++q) {
        EXPECT_EQ(schedule.StepAt(p).mode, schedule.StepAt(q).mode);
        EXPECT_FALSE(schedule.StepAt(p).unit() == schedule.StepAt(q).unit());
      }
    }
    expected_begin = batch.end;
  }
  EXPECT_EQ(expected_begin, schedule.cycle_length());
}

TEST(ConflictAnalysisTest, BlockCentricYieldsSingletons) {
  const GridPartition grid = GridPartition::Uniform(Shape({16, 16, 16}), 2);
  for (ScheduleType type : {ScheduleType::kFiberOrder, ScheduleType::kZOrder,
                            ScheduleType::kHilbertOrder}) {
    const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);
    const ConflictAnalysis analysis(schedule);
    // Block-centric cycles interleave modes at every block position, so
    // no two adjacent steps ever share a mode.
    EXPECT_EQ(analysis.max_batch_size(), 1)
        << ScheduleTypeName(type);
    EXPECT_EQ(static_cast<int64_t>(analysis.batches().size()),
              schedule.cycle_length());
  }
}

TEST(ConflictAnalysisTest, BatchEndAfterRepeatsEveryCycleAndClipsTails) {
  const GridPartition grid = GridPartition::Uniform(Shape({24, 24, 24}), 4);
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kModeCentric, grid);
  const ConflictAnalysis analysis(schedule);
  const int64_t len = schedule.cycle_length();  // 12: batches [0,4)[4,8)[8,12)
  EXPECT_EQ(analysis.BatchEndAfter(0), 4);
  EXPECT_EQ(analysis.BatchEndAfter(3), 4);   // mid-batch: tail only
  EXPECT_EQ(analysis.BatchEndAfter(4), 8);
  EXPECT_EQ(analysis.BatchEndAfter(11), 12);
  EXPECT_EQ(analysis.BatchEndAfter(len + 5), len + 8);  // second cycle
  EXPECT_EQ(analysis.BatchEndAfter(7 * len + 9), 7 * len + 12);
}

// ---- Bit-identical parallel refinement -------------------------------------

struct RunOutput {
  std::vector<double> trace;
  std::vector<Matrix> sub_factors;  // every A^(i)_(ki), modes then parts
  double fit = 0.0;
};

LowRankSpec ParallelSpec() {
  LowRankSpec spec;
  spec.shape = Shape({20, 20, 20});
  spec.rank = 3;
  spec.noise_level = 0.05;
  spec.seed = 29;
  return spec;
}

TwoPhaseCpOptions ParallelOptions(ScheduleType schedule, int compute_threads,
                                  int prefetch_depth) {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 15;
  options.max_virtual_iterations = 6;
  options.fit_tolerance = -1.0;  // fixed work for exact comparisons
  options.buffer_fraction = 0.4;
  options.schedule = schedule;
  options.compute_threads = compute_threads;
  options.prefetch_depth = prefetch_depth;
  return options;
}

RunOutput RunParallel(Env* env, const TwoPhaseCpOptions& options,
                      Status* status_out = nullptr) {
  const GridPartition grid =
      GridPartition::Uniform(ParallelSpec().shape, 4);
  BlockTensorStore input(env, "t", grid);
  if (!env->FileExists("t/block_0_0_0")) {
    EXPECT_TRUE(GenerateLowRankIntoStore(ParallelSpec(), &input).ok());
  }
  BlockFactorStore factors(env, "f", grid, options.rank);
  TwoPhaseCp engine(&input, &factors, options);
  auto k = engine.Run();
  if (status_out != nullptr) {
    *status_out = k.status();
  } else {
    EXPECT_TRUE(k.ok()) << k.status().ToString();
  }
  RunOutput out;
  out.trace = engine.result().fit_trace;
  out.fit = engine.result().surrogate_fit;
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto a = factors.ReadSubFactor(mode, part);
      if (a.ok()) out.sub_factors.push_back(*std::move(a));
    }
  }
  return out;
}

void ExpectBitIdentical(const RunOutput& got, const RunOutput& want,
                        const std::string& label) {
  ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
  for (size_t i = 0; i < want.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i], want.trace[i]) << label << " vi " << i;
  }
  ASSERT_EQ(got.sub_factors.size(), want.sub_factors.size()) << label;
  for (size_t i = 0; i < want.sub_factors.size(); ++i) {
    EXPECT_TRUE(got.sub_factors[i] == want.sub_factors[i])
        << label << " sub-factor " << i;
  }
}

// The heart of the tentpole guarantee: factors and fit traces are
// bit-identical across compute_threads ∈ {1, 2, 4} at prefetch_depth
// ∈ {0, 2}, on a wide-batch (mode-centric) schedule.
TEST(Phase2ParallelTest, BitIdenticalAcrossComputeThreadsAndDepths) {
  auto ref_env = NewMemEnv();
  const RunOutput reference = RunParallel(
      ref_env.get(), ParallelOptions(ScheduleType::kModeCentric, 1, 0));
  ASSERT_FALSE(reference.trace.empty());
  ASSERT_EQ(reference.sub_factors.size(), 12u);

  for (int depth : {0, 2}) {
    for (int threads : {1, 2, 4}) {
      if (depth == 0 && threads == 1) continue;  // the reference itself
      auto env = NewMemEnv();
      const RunOutput run = RunParallel(
          env.get(),
          ParallelOptions(ScheduleType::kModeCentric, threads, depth));
      ExpectBitIdentical(run, reference,
                         "threads " + std::to_string(threads) + " depth " +
                             std::to_string(depth));
    }
  }
}

// Block-centric schedules decompose into singleton batches; the parallel
// engine must degrade to (bit-identical) serial behavior, not misbehave.
TEST(Phase2ParallelTest, BlockCentricScheduleStaysBitIdentical) {
  auto ref_env = NewMemEnv();
  const RunOutput reference =
      RunParallel(ref_env.get(), ParallelOptions(ScheduleType::kZOrder, 1, 0));
  for (int depth : {0, 2}) {
    auto env = NewMemEnv();
    const RunOutput run = RunParallel(
        env.get(), ParallelOptions(ScheduleType::kZOrder, 4, depth));
    ExpectBitIdentical(run, reference, "zo depth " + std::to_string(depth));
  }
}

// ---- Reordered plans --------------------------------------------------------

/// The reordered-plan configuration used below: ZO (block-centric, native
/// singleton batches) with conflict-aware reordering, at a buffer where
/// the parity gate adopts the reorder.
TwoPhaseCpOptions ReorderedOptions(int compute_threads, int prefetch_depth) {
  TwoPhaseCpOptions options =
      ParallelOptions(ScheduleType::kZOrder, compute_threads, prefetch_depth);
  options.buffer_fraction = 0.5;
  options.plan_reorder = true;
  return options;
}

/// The exact plan the engine will build for `options` over the test grid
/// (Phase2PlannerOptions is the engine's own input mapping).
ExecutionPlan PlanFor(const TwoPhaseCpOptions& options) {
  const GridPartition grid = GridPartition::Uniform(ParallelSpec().shape, 4);
  return Planner::Build(UpdateSchedule::Create(options.schedule, grid),
                        Phase2PlannerOptions(options, grid));
}

// Documents the precondition of the suite below: at this buffer the
// parity gate really adopts the ZO reorder (width > 1) — otherwise the
// tests would silently exercise the identity plan.
TEST(Phase2ReorderedPlanTest, ReorderIsAdoptedForThisConfiguration) {
  const ExecutionPlan plan = PlanFor(ReorderedOptions(1, 0));
  ASSERT_TRUE(plan.stats().certified);
  EXPECT_TRUE(plan.stats().reorder_applied);
  EXPECT_GT(plan.max_wave_width(), 1);
  EXPECT_LE(plan.stats().swaps_after, plan.stats().swaps_before + 1e-9);
}

// The reordered plan's guarantee: factors and fit traces are
// bit-identical across compute_threads ∈ {1, 2, 4} × prefetch_depth ∈
// {0, 2} — and the plan really is a different update
// order than the source ZO schedule (different fit trace).
TEST(Phase2ReorderedPlanTest, BitIdenticalAcrossThreadsAndDepths) {
  auto ref_env = NewMemEnv();
  const RunOutput reference =
      RunParallel(ref_env.get(), ReorderedOptions(1, 0));
  ASSERT_FALSE(reference.trace.empty());

  for (int depth : {0, 2}) {
    for (int threads : {1, 2, 4}) {
      if (depth == 0 && threads == 1) continue;  // the reference itself
      auto env = NewMemEnv();
      const RunOutput run =
          RunParallel(env.get(), ReorderedOptions(threads, depth));
      ExpectBitIdentical(run, reference,
                         "reordered threads " + std::to_string(threads) +
                             " depth " + std::to_string(depth));
    }
  }

  // A genuinely different plan: the reordered trajectory diverges from
  // the source-order ZO run (same seed, same tensor).
  auto plain_env = NewMemEnv();
  const RunOutput plain = RunParallel(
      plain_env.get(), ParallelOptions(ScheduleType::kZOrder, 1, 0));
  EXPECT_NE(plain.trace, reference.trace);
}

/// Env wrapper that fires a cancellation token after `n` more reads — a
/// deterministic *mid-virtual-iteration* cancel trigger for the sync data
/// path (all reads run on the compute thread, so the countdown is exact).
/// The engine observes the token at its next wave boundary, which lands
/// the checkpoint cursor inside a conflict-free batch whenever the buffer
/// split the batch into waves.
class CancelAfterReadsEnv : public Env {
 public:
  CancelAfterReadsEnv(Env* delegate, CancellationToken* token)
      : delegate_(delegate), token_(token) {}

  void CancelAfterReads(int64_t n) {
    reads_left_.store(n, std::memory_order_relaxed);
  }

  Status WriteFile(const std::string& name, const std::string& data) override {
    return delegate_->WriteFile(name, data);
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    // fetch_sub: Initialize's pass 2 reads on compute-pool workers, so the
    // countdown must stay exact under concurrency.
    if (reads_left_.fetch_sub(1, std::memory_order_relaxed) == 0) {
      token_->Cancel();
    }
    return delegate_->ReadFile(name, out);
  }
  bool FileExists(const std::string& name) override {
    return delegate_->FileExists(name);
  }
  Status DeleteFile(const std::string& name) override {
    return delegate_->DeleteFile(name);
  }
  Result<uint64_t> FileSize(const std::string& name) override {
    return delegate_->FileSize(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) override {
    return delegate_->ListFiles(prefix);
  }

 private:
  Env* delegate_;
  CancellationToken* token_;
  // Counts down across threads; fires exactly once when it hits zero
  // (further reads drive it negative, never back to zero). Armed far
  // enough out by default that an unarmed wrapper never fires.
  std::atomic<int64_t> reads_left_{int64_t{1} << 60};
};

// A checkpoint cursor that lands *inside* a conflict-free batch: with a
// buffer of ~3 units, the MC batches of 4 split into 3+1 waves, and a
// token fired during a wave's loads is observed at the next wave start —
// mid-batch. The resume's first wave is then a batch tail
// (ConflictAnalysis::BatchEndAfter clipping), and the stitched result
// must still match an uninterrupted run bit for bit.
TEST(Phase2ParallelTest, MidBatchCheckpointCursorResumesBitIdentically) {
  TwoPhaseCpOptions base = ParallelOptions(ScheduleType::kModeCentric, 4, 0);
  base.buffer_fraction = 0.25;  // 3 of the 12 uniform units

  auto ref_env = NewMemEnv();
  TwoPhaseCpOptions ref_options = base;
  ref_options.compute_threads = 1;
  const RunOutput reference = RunParallel(ref_env.get(), ref_options);

  const GridPartition grid =
      GridPartition::Uniform(ParallelSpec().shape, 4);
  const int64_t vi_len = grid.SumParts();  // 12; MC batches every 4 steps
  bool found_mid_batch = false;
  // Scan the (deterministic) read countdown until the observed wave
  // boundary falls inside a batch; roughly every other wave end does.
  // Low counts fire during Phase 1 or Initialize (no checkpoint yet) and
  // are skipped, as are wave ends that coincide with batch boundaries.
  for (int64_t reads = 250; reads < 1500 && !found_mid_batch; reads += 53) {
    auto mem = NewMemEnv();
    CancellationToken token;
    CancelAfterReadsEnv env(mem.get(), &token);
    TwoPhaseCpOptions interrupted = base;
    interrupted.cancel = &token;
    env.CancelAfterReads(reads);
    Status status;
    RunParallel(&env, interrupted, &status);
    if (!status.IsCancelled()) continue;  // fired after the run finished
    auto manifest = ReadManifest(mem.get(), "f");
    if (!manifest.ok() || !manifest->checkpoint.has_value()) {
      continue;  // cancelled before the refinement cut a checkpoint
    }
    const int64_t cursor = manifest->checkpoint->cursor;
    if (cursor % vi_len % 4 == 0) continue;  // landed on a batch boundary
    found_mid_batch = true;

    TwoPhaseCpOptions resumed = base;  // parallel resume, depth 0
    resumed.resume_phase2 = true;
    const RunOutput run = RunParallel(&env, resumed);
    ExpectBitIdentical(run, reference,
                       "mid-batch cursor " + std::to_string(cursor));
  }
  EXPECT_TRUE(found_mid_batch)
      << "no scanned cancel point produced a mid-batch cursor";
}

/// Fires the token when the refinement completes iteration `at_vi`.
class CancelAtIteration : public ProgressObserver {
 public:
  CancelAtIteration(CancellationToken* token, int at_vi)
      : token_(token), at_vi_(at_vi) {}
  void OnVirtualIteration(int iteration, double fit,
                          uint64_t swap_ins) override {
    (void)fit;
    (void)swap_ins;
    if (iteration >= at_vi_) token_->Cancel();
  }

 private:
  CancellationToken* token_;
  int at_vi_;
};

// Cancel a parallel run mid-refinement, resume it with a *different*
// compute_threads/prefetch_depth: the stitched result must still match an
// uninterrupted serial run bit for bit (the checkpoint cursor may land
// mid-batch; the resume's first wave is the batch tail).
TEST(Phase2ParallelTest, CancelThenResumeAcrossThreadCountsIsBitIdentical) {
  const ScheduleType schedule = ScheduleType::kModeCentric;
  auto ref_env = NewMemEnv();
  const RunOutput reference =
      RunParallel(ref_env.get(), ParallelOptions(schedule, 1, 0));

  for (int resume_threads : {1, 4}) {
    auto env = NewMemEnv();
    CancellationToken token;
    CancelAtIteration canceller(&token, 2);
    TwoPhaseCpOptions interrupted = ParallelOptions(schedule, 4, 2);
    interrupted.cancel = &token;
    interrupted.observer = &canceller;
    Status status;
    RunParallel(env.get(), interrupted, &status);
    ASSERT_TRUE(status.IsCancelled()) << status.ToString();

    TwoPhaseCpOptions resumed =
        ParallelOptions(schedule, resume_threads, resume_threads == 1 ? 0 : 2);
    resumed.resume_phase2 = true;
    const RunOutput run = RunParallel(env.get(), resumed);
    ExpectBitIdentical(run, reference,
                       "resume threads " + std::to_string(resume_threads));
  }
}

// Mid-wave cancel→resume under the *reordered* plan, across the
// matrix: resume with prefetch_depth ∈ {0, 2} × compute_threads ∈ {1, 4}.
// The cancelled run executes serially (step-at-a-time waves), so the
// deterministic read countdown can land the checkpoint cursor strictly
// inside a reordered multi-step wave; every resume variant must replay
// the wave tail bit-identically.
TEST(Phase2ReorderedPlanTest, MidWaveCancelResumeBitIdenticalAcrossMatrix) {
  const TwoPhaseCpOptions base = ReorderedOptions(1, 0);
  const ExecutionPlan plan = PlanFor(base);
  ASSERT_TRUE(plan.stats().reorder_applied);

  auto ref_env = NewMemEnv();
  const RunOutput reference = RunParallel(ref_env.get(), base);

  // Scan the deterministic read countdown for a cancel whose checkpoint
  // cursor lands strictly inside a multi-step plan wave. The step is
  // fine-grained: most refinement misses sit at wave tails (the hoisted
  // "new" units), so mid-wave cursors appear only at specific counts.
  int64_t mid_wave_reads = -1;
  for (int64_t reads = 250; reads < 800 && mid_wave_reads < 0;
       reads += 7) {
    auto mem = NewMemEnv();
    CancellationToken token;
    CancelAfterReadsEnv env(mem.get(), &token);
    TwoPhaseCpOptions interrupted = base;
    interrupted.cancel = &token;
    env.CancelAfterReads(reads);
    Status status;
    RunParallel(&env, interrupted, &status);
    if (!status.IsCancelled()) continue;
    auto manifest = ReadManifest(mem.get(), "f");
    if (!manifest.ok() || !manifest->checkpoint.has_value()) continue;
    const int64_t cursor = manifest->checkpoint->cursor;
    const PlanWave& wave = plan.WaveAt(cursor);
    if (wave.size() < 2 || cursor % plan.cycle_length() == wave.begin) {
      continue;  // wave boundary or singleton: not mid-wave
    }
    EXPECT_EQ(manifest->checkpoint->plan_fingerprint, plan.fingerprint());
    mid_wave_reads = reads;
  }
  ASSERT_GT(mid_wave_reads, 0)
      << "no scanned cancel point produced a mid-wave cursor";

  for (int depth : {0, 2}) {
    for (int threads : {1, 4}) {
      // Reproduce the mid-wave cancel deterministically, then resume with
      // this matrix point's execution knobs.
      auto mem = NewMemEnv();
      CancellationToken token;
      CancelAfterReadsEnv env(mem.get(), &token);
      TwoPhaseCpOptions interrupted = base;
      interrupted.cancel = &token;
      env.CancelAfterReads(mid_wave_reads);
      Status status;
      RunParallel(&env, interrupted, &status);
      ASSERT_TRUE(status.IsCancelled()) << status.ToString();

      TwoPhaseCpOptions resumed = ReorderedOptions(threads, depth);
      resumed.resume_phase2 = true;
      const RunOutput run = RunParallel(&env, resumed);
      ExpectBitIdentical(run, reference,
                         "mid-wave resume threads " +
                             std::to_string(threads) + " depth " +
                             std::to_string(depth));
    }
  }
}

}  // namespace
}  // namespace tpcp
