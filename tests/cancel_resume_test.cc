// Cooperative cancellation and checkpoint/resume of the two-phase engine:
// the token lands within one virtual iteration, the factor store is left
// resumable, and a resumed run is bit-identical to an uninterrupted one.

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/cancellation.h"
#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "grid/manifest.h"
#include "storage/env.h"

namespace tpcp {
namespace {

LowRankSpec TestSpec() {
  LowRankSpec spec;
  spec.shape = Shape({18, 18, 18});
  spec.rank = 3;
  spec.noise_level = 0.05;
  spec.seed = 13;
  return spec;
}

TwoPhaseCpOptions TestOptions() {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 20;
  options.max_virtual_iterations = 6;
  options.fit_tolerance = -1.0;  // fixed work: never converge early
  options.buffer_fraction = 0.4;
  return options;
}

/// Fires a cancellation token when the refinement completes iteration
/// `at_vi`; the engine must observe it before finishing iteration
/// `at_vi + 1`.
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

/// Stages the test tensor and runs 2PCP under `options`, returning the
/// engine result (status in *status when non-null).
TwoPhaseCpResult RunTwoPhase(Env* env, const TwoPhaseCpOptions& options,
                             Status* status_out = nullptr) {
  GridPartition grid = GridPartition::Uniform(TestSpec().shape, 3);
  BlockTensorStore input(env, "t", grid);
  if (!env->FileExists("t/block_0_0_0")) {
    EXPECT_TRUE(GenerateLowRankIntoStore(TestSpec(), &input).ok());
  }
  BlockFactorStore factors(env, "f", grid, options.rank);
  TwoPhaseCp engine(&input, &factors, options);
  auto k = engine.Run();
  if (status_out != nullptr) *status_out = k.status();
  if (status_out == nullptr) {
    EXPECT_TRUE(k.ok()) << k.status().ToString();
  }
  return engine.result();
}

TEST(CancellationTest, Phase1HonoursPreCancelledToken) {
  auto env = NewMemEnv();
  CancellationToken token;
  token.Cancel();
  TwoPhaseCpOptions options = TestOptions();
  options.cancel = &token;
  Status status;
  RunTwoPhase(env.get(), options, &status);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
}

TEST(CancellationTest, CancelLandsWithinOneVirtualIteration) {
  for (const int prefetch_depth : {0, 3}) {
    auto env = NewMemEnv();
    CancellationToken token;
    TwoPhaseCpOptions options = TestOptions();
    options.prefetch_depth = prefetch_depth;
    CancelAtIteration canceller(&token, 2);
    options.cancel = &token;
    options.observer = &canceller;
    Status status;
    const TwoPhaseCpResult result = RunTwoPhase(env.get(), options, &status);
    ASSERT_TRUE(status.IsCancelled())
        << "depth " << prefetch_depth << ": " << status.ToString();
    // The token fired at the end of iteration 2 and must land before the
    // end of iteration 3.
    EXPECT_EQ(result.virtual_iterations, 2) << "depth " << prefetch_depth;
    EXPECT_EQ(result.fit_trace.size(), 2u);

    // The store is checkpointed and resumable.
    auto manifest = ReadManifest(env.get(), "f");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_TRUE(manifest->checkpoint.has_value());
    EXPECT_EQ(manifest->checkpoint->iteration, 2);
    EXPECT_EQ(manifest->checkpoint->fit_trace, result.fit_trace);
  }
}

TEST(CancellationTest, ResumedRunIsBitIdenticalToUninterrupted) {
  for (const int prefetch_depth : {0, 2}) {
    SCOPED_TRACE("prefetch_depth " + std::to_string(prefetch_depth));
    TwoPhaseCpOptions options = TestOptions();
    options.prefetch_depth = prefetch_depth;

    // Reference: one uninterrupted run.
    auto ref_env = NewMemEnv();
    const TwoPhaseCpResult reference = RunTwoPhase(ref_env.get(), options);

    // Same configuration, cancelled after iteration 2...
    auto env = NewMemEnv();
    CancellationToken token;
    CancelAtIteration canceller(&token, 2);
    TwoPhaseCpOptions interrupted = options;
    interrupted.cancel = &token;
    interrupted.observer = &canceller;
    Status status;
    RunTwoPhase(env.get(), interrupted, &status);
    ASSERT_TRUE(status.IsCancelled());

    // ...then resubmitted with resume: Phase 1 is skipped, the refinement
    // continues from the checkpoint cursor.
    TwoPhaseCpOptions resumed = options;
    resumed.resume_phase2 = true;
    const TwoPhaseCpResult second = RunTwoPhase(env.get(), resumed);
    EXPECT_EQ(second.phase2_start_iteration, 2);
    EXPECT_EQ(second.blocks_decomposed, 0) << "phase 1 must be skipped";
    EXPECT_EQ(second.virtual_iterations, reference.virtual_iterations);
    // The combined trace replays the uninterrupted one exactly.
    EXPECT_EQ(second.fit_trace, reference.fit_trace);

    // Factors agree byte for byte.
    GridPartition grid = GridPartition::Uniform(TestSpec().shape, 3);
    BlockFactorStore ref_factors(ref_env.get(), "f", grid, options.rank);
    BlockFactorStore factors(env.get(), "f", grid, options.rank);
    for (int mode = 0; mode < 3; ++mode) {
      for (int64_t part = 0; part < grid.parts(mode); ++part) {
        auto lhs = ref_factors.ReadSubFactor(mode, part);
        auto rhs = factors.ReadSubFactor(mode, part);
        ASSERT_TRUE(lhs.ok());
        ASSERT_TRUE(rhs.ok());
        EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
      }
    }

    // The completed run retired the checkpoint; a further resume would
    // start a fresh pass rather than replay a stale cursor.
    auto manifest = ReadManifest(env.get(), "f");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_FALSE(manifest->checkpoint.has_value());
  }
}

TEST(CancellationTest, ResumeUnderDifferentScheduleIsRejected) {
  auto env = NewMemEnv();
  CancellationToken token;
  CancelAtIteration canceller(&token, 1);
  TwoPhaseCpOptions options = TestOptions();
  options.cancel = &token;
  options.observer = &canceller;
  Status status;
  RunTwoPhase(env.get(), options, &status);
  ASSERT_TRUE(status.IsCancelled());

  TwoPhaseCpOptions resumed = TestOptions();
  resumed.resume_phase2 = true;
  resumed.schedule = ScheduleType::kModeCentric;
  Status resume_status;
  RunTwoPhase(env.get(), resumed, &resume_status);
  ASSERT_FALSE(resume_status.ok());
  EXPECT_EQ(resume_status.code(), StatusCode::kFailedPrecondition)
      << resume_status.ToString();
}

TEST(CancellationTest, ResumeUnderDifferentPlanOptionsIsRejected) {
  // The checkpoint cursor indexes the execution plan's step order. On this
  // grid the reordering's parity gate rejects the ZO reorder at buffer
  // fraction 0.4 and adopts it at 0.8, so a resume under the larger buffer
  // rebuilds a different plan while ResumeFingerprint (which leaves the
  // buffer out) still matches. The plan fingerprint in the checkpoint must
  // refuse it instead of replaying the cursor against another step order.
  auto env = NewMemEnv();
  CancellationToken token;
  CancelAtIteration canceller(&token, 2);
  TwoPhaseCpOptions options = TestOptions();
  options.cancel = &token;
  options.observer = &canceller;
  Status status;
  RunTwoPhase(env.get(), options, &status);
  ASSERT_TRUE(status.IsCancelled());
  auto manifest = ReadManifest(env.get(), "f");
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->checkpoint.has_value());
  EXPECT_NE(manifest->checkpoint->plan_fingerprint, 0u);

  TwoPhaseCpOptions wrong_plan = TestOptions();
  wrong_plan.buffer_fraction = 0.8;
  wrong_plan.resume_phase2 = true;
  ASSERT_EQ(wrong_plan.ResumeFingerprint(), options.ResumeFingerprint());
  Status resume_status;
  RunTwoPhase(env.get(), wrong_plan, &resume_status);
  ASSERT_FALSE(resume_status.ok());
  EXPECT_EQ(resume_status.code(), StatusCode::kFailedPrecondition)
      << resume_status.ToString();
  EXPECT_NE(resume_status.ToString().find("execution plan"),
            std::string::npos)
      << resume_status.ToString();

  // With the original plan the resume goes through and matches an
  // uninterrupted run bit for bit.
  TwoPhaseCpOptions right_plan = TestOptions();
  right_plan.resume_phase2 = true;
  const TwoPhaseCpResult resumed = RunTwoPhase(env.get(), right_plan);

  auto ref_env = NewMemEnv();
  const TwoPhaseCpResult reference =
      RunTwoPhase(ref_env.get(), TestOptions());
  EXPECT_EQ(resumed.fit_trace, reference.fit_trace);
}

TEST(CancellationTest, FingerprintsArePinned) {
  // Every Phase-2 checkpoint records ResumeFingerprint() and the engine
  // plan's fingerprint, and a resume compares both against the values it
  // recomputes. These constants were recorded from an earlier build: if
  // either moves, checkpoints already on disk stop resuming.
  const GridPartition grid = GridPartition::Uniform(Shape({32, 32, 32}), 4);
  struct Pin {
    ScheduleType schedule;
    bool reordered;
    uint64_t resume_fingerprint;
    uint64_t plan_fingerprint;
  };
  const Pin pins[] = {
      // ZO under default options: plan_reorder is in effect and adopted.
      {ScheduleType::kZOrder, true, 17858169384445214966ull,
       8171231719430992384ull},
      {ScheduleType::kModeCentric, false, 15795328387713669169ull,
       1242451906396611970ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(ScheduleTypeName(pin.schedule));
    TwoPhaseCpOptions options;
    options.schedule = pin.schedule;
    const ExecutionPlan plan =
        Planner::Build(UpdateSchedule::Create(options.schedule, grid),
                       Phase2PlannerOptions(options, grid));
    EXPECT_EQ(plan.stats().reorder_applied, pin.reordered);
    EXPECT_EQ(options.ResumeFingerprint(), pin.resume_fingerprint);
    EXPECT_EQ(plan.fingerprint(), pin.plan_fingerprint);
  }
}

TEST(CancellationTest, SessionDecomposeHonoursCallerToken) {
  // The blocking convenience path must still respect a caller-provided
  // token, even though the job path manages its own.
  auto env = NewMemEnv();
  GridPartition grid = GridPartition::Uniform(TestSpec().shape, 3);
  auto input = BlockTensorStore::Create(env.get(), "tensor", grid);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  ASSERT_TRUE(GenerateLowRankIntoStore(TestSpec(), &*input).ok());
  SessionOptions session_options;
  session_options.env = env.get();
  auto session = Session::Open(session_options);
  ASSERT_TRUE(session.ok());
  CancellationToken token;
  token.Cancel();
  TwoPhaseCpOptions options = TestOptions();
  options.cancel = &token;
  auto result = (*session)->Decompose("2pcp", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(CancellationTest, ResumeWithoutCheckpointStillWorks) {
  // Pre-checkpoint behavior (ResumeTest in extended_integration_test):
  // resume_phase2 over a store with no manifest starts a fresh pass from
  // the persisted sub-factors.
  auto env = NewMemEnv();
  const TwoPhaseCpResult first = RunTwoPhase(env.get(), TestOptions());
  TwoPhaseCpOptions resumed = TestOptions();
  resumed.resume_phase2 = true;
  // The completed run wrote no manifest through the direct API; wipe any
  // factor-store manifest to model a legacy store.
  (void)env->DeleteFile("f/MANIFEST");
  const TwoPhaseCpResult second = RunTwoPhase(env.get(), resumed);
  EXPECT_EQ(second.phase2_start_iteration, 0);
  ASSERT_FALSE(second.fit_trace.empty());
  EXPECT_GE(second.fit_trace.front(), first.surrogate_fit - 1e-4);
}

}  // namespace
}  // namespace tpcp
