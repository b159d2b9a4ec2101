#include "core/phase2_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "buffer/prefetch_pipeline.h"
#include "core/progress_observer.h"
#include "core/refinement_state.h"
#include "grid/manifest.h"
#include "parallel/thread_pool.h"
#include "schedule/planner.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

/// Applies the `count` conflict-free steps at plan positions
/// [pos, pos+count) — across the compute pool when one is given, serially
/// (in plan order) otherwise. The steps commute exactly
/// (schedule/conflict.h), so both paths produce bit-identical state.
/// Shard chunks come from the plan (per plan wave, never per split), so a
/// resumed or buffer-split wave shards identically.
void RunBatch(RefinementState* state, const ExecutionPlan& plan,
              int64_t pos, int64_t count, ThreadPool* compute_pool) {
  if (compute_pool == nullptr || count == 1) {
    for (int64_t i = 0; i < count; ++i) {
      state->ApplyUpdate(plan.StepAt(pos + i), plan.ShardBlocksAt(pos + i));
    }
    return;
  }
  // Multi-step waves fan out across the pool; their steps never shard
  // (the plan shards only singleton waves — nesting a shard fan-out in a
  // step fan-out would deadlock the shared pool), so pass 0 explicitly.
  ParallelFor(compute_pool, 0, count, [&](int64_t i) {
    state->ApplyUpdate(plan.StepAt(pos + i), /*shard_blocks=*/0);
  });
}

}  // namespace

PlannerOptions Phase2PlannerOptions(const TwoPhaseCpOptions& options,
                                    const GridPartition& grid) {
  UnitCatalog catalog(grid, options.rank);
  PlannerOptions planner_options;
  planner_options.rank = options.rank;
  planner_options.policy = options.policy;
  planner_options.buffer_bytes =
      std::max(options.ResolveBufferBytes(catalog.TotalBytes()),
               catalog.MaxUnitBytes());
  planner_options.reorder = options.EffectivePlanReorder();
  planner_options.reorder_window = options.plan_reorder_window;
  planner_options.shard_chunk_blocks = options.shard_slab_blocks;
  planner_options.prefetch_depth = options.prefetch_depth;
  planner_options.victim_hints = options.policy_victim_hints;
  // Certification (two simulated cycle replays) is only paid when the
  // reordering pass needs its parity gate.
  planner_options.certify = options.EffectivePlanReorder();
  return planner_options;
}

Result<std::optional<Phase2Checkpoint>> ValidateResume(
    const Result<StoreManifest>& manifest, const BlockFactorStore& factors,
    const TwoPhaseCpOptions& options, const ExecutionPlan& plan,
    std::optional<uint64_t> ownership_fingerprint) {
  if (!manifest.ok()) {
    if (manifest.status().IsNotFound()) return {std::nullopt};
    return manifest.status();
  }
  if (!manifest->checkpoint.has_value()) return {std::nullopt};
  const Phase2Checkpoint& ckpt = *manifest->checkpoint;
  if (!(manifest->grid == factors.grid()) ||
      manifest->rank != factors.rank()) {
    return Status::FailedPrecondition(
        "checkpoint manifest does not describe this factor store");
  }
  if (ckpt.schedule != ScheduleTypeName(options.schedule)) {
    return Status::FailedPrecondition(
        "checkpoint was cut under schedule '" + ckpt.schedule + "', not '" +
        ScheduleTypeName(options.schedule) +
        "'; resume with the same schedule");
  }
  // Math-shaping options (rank, seed, init, solve parameters, FMA
  // kernels, planner knobs) are hashed into the checkpoint; resuming
  // under different ones would splice two runs no single spec produces.
  if (ckpt.options_fingerprint != options.ResumeFingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint was cut under different math-shaping options "
        "(fingerprint mismatch); resume with the original options");
  }
  if (ckpt.cursor / plan.schedule().virtual_iteration_length() !=
      ckpt.iteration) {
    return Status::Corruption(
        "checkpoint cursor disagrees with its iteration count");
  }
  // The cursor indexes the *plan* order. A plan rebuilt from different
  // reorder/shard options — or a buffer/policy change that flipped the
  // reordering certification — would replay the cursor against a
  // different step sequence; refuse instead of silently diverging.
  if (ckpt.plan_fingerprint != plan.fingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint was cut under a different execution plan "
        "(reordering/sharding options or buffer geometry differ); "
        "resume with the original plan options");
  }
  if (ownership_fingerprint.has_value() &&
      ckpt.ownership_fingerprint != *ownership_fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint was cut under a different ownership map (fleet size "
        "or unit weights differ); resume with the original --workers, or "
        "finish single-process");
  }
  return manifest->checkpoint;
}

bool Phase2Converged(double fit, double prev_fit, double tolerance) {
  // A NaN surrogate (degenerate solve) or a fit regression must keep the
  // refinement running — only a genuine, finite improvement that has
  // flattened out below the tolerance counts as convergence.
  const double improvement = fit - prev_fit;
  return std::isfinite(improvement) && improvement >= 0.0 &&
         improvement < tolerance;
}

Phase2Engine::Phase2Engine(BlockFactorStore* factors,
                           const TwoPhaseCpOptions& options)
    : factors_(factors), options_(options) {
  TPCP_CHECK(factors_ != nullptr);
  TPCP_CHECK_GE(options_.prefetch_depth, 0);
  TPCP_CHECK_GE(options_.compute_threads, 1);
}

Status Phase2Engine::Run(Phase2Result* result) {
  TPCP_CHECK(result != nullptr);
  Stopwatch watch;
  const GridPartition& grid = factors_->grid();

  // Shared compute pool for batch updates and the full-grid passes
  // (Initialize pass 2, SurrogateFit). With one compute thread everything
  // runs inline on this thread, exactly like the serial engine.
  std::unique_ptr<ThreadPool> compute_pool;
  if (options_.compute_threads > 1) {
    compute_pool = std::make_unique<ThreadPool>(options_.compute_threads);
  }

  RefinementState state(factors_, options_.refinement_ridge,
                        compute_pool.get(),
                        options_.kernel_fma ? KernelArith::kFma
                                            : KernelArith::kExact);
  TPCP_RETURN_IF_ERROR(state.Initialize(options_.resume_phase2));

  const UpdateSchedule source_schedule =
      UpdateSchedule::Create(options_.schedule, grid);
  UnitCatalog catalog(grid, options_.rank);

  // One plan up front; every consumer below (wave loop, prefetch pipeline,
  // forward policy, shard chunks) executes it instead of re-deriving
  // structure from the schedule. With the planner knobs at their defaults
  // this is the identity plan — the source order, unsharded — so default
  // runs are bit-identical to the pre-planner engine.
  const PlannerOptions planner_options =
      Phase2PlannerOptions(options_, grid);
  const uint64_t capacity = planner_options.buffer_bytes;
  const ExecutionPlan plan = Planner::Build(source_schedule, planner_options);
  const UpdateSchedule& schedule = plan.schedule();
  const int64_t vi_len = schedule.virtual_iteration_length();

  // An interrupted run left a checkpoint in the store manifest; pick its
  // cursor and fit trace up so the refinement continues exactly where it
  // stopped. A resume without a checkpoint (a completed run being
  // extended) starts a fresh schedule pass over the persisted sub-factors.
  std::optional<Phase2Checkpoint> resume;
  if (options_.resume_phase2) {
    TPCP_ASSIGN_OR_RETURN(
        resume,
        ValidateResume(ReadManifest(factors_->env(), factors_->prefix()),
                       *factors_, options_, plan));
  }
  int64_t pos = 0;
  int start_vi = 0;
  result->fit_trace.clear();
  if (resume.has_value()) {
    pos = resume->cursor;
    start_vi = resume->iteration;
    result->fit_trace = resume->fit_trace;
  }

  // The forward policy shares the plan's next-use oracle, so victim
  // choice follows the plan's (possibly reordered) trace by construction.
  // With policy_victim_hints on, LRU/MRU read the same oracle as victim
  // advice (the plan's eviction hints), recency only breaking ties.
  BufferPool pool(capacity, catalog,
                  NewPolicy(options_.policy, &schedule, plan.lookahead(),
                            options_.policy_victim_hints));
  auto load = [&state](const ModePartition& unit) {
    return state.LoadUnit(unit);
  };
  auto evict = [&state](const ModePartition& unit, bool dirty) {
    return state.EvictUnit(unit, dirty);
  };
  // The pipeline moves all bytes itself; the pool's evict callback only
  // serves the final Flush, whose dirty writes are charged to
  // writeback_seconds like the pipeline's own writebacks.
  pool.SetCallbacks(nullptr, [&pool, evict](const ModePartition& unit,
                                            bool dirty) {
    if (!dirty) return evict(unit, dirty);
    Stopwatch w;
    const Status s = evict(unit, dirty);
    pool.RecordWriteback(w.ElapsedSeconds());
    return s;
  });
  PrefetchPipeline::Options popts;
  popts.io_threads = options_.io_threads;
  popts.cancel = options_.cancel;
  popts.start_pos = pos;
  PrefetchPipeline pipeline(&pool, &plan, load, evict, popts);

  double prev_fit =
      result->fit_trace.empty() ? state.SurrogateFit()
                                : result->fit_trace.back();
  result->start_iteration = start_vi;
  result->virtual_iterations = start_vi;
  result->converged = false;

  bool cancelled = false;
  Status loop_status = Status::OK();
  for (int vi = start_vi;
       vi < options_.max_virtual_iterations && loop_status.ok(); ++vi) {
    // The iteration executes [pos, vi_end) in conflict-free waves. When
    // resuming mid-iteration the first wave starts at the checkpoint
    // cursor — possibly mid-batch, which only shortens the first wave.
    const int64_t vi_end = static_cast<int64_t>(vi + 1) * vi_len;
    while (pos < vi_end) {
      // Cancellation polls at wave boundaries, so the checkpoint cursor
      // always lands between waves and a resume — with any compute/buffer
      // configuration — replays the remaining steps bit-identically.
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        cancelled = true;
        break;
      }
      // The widest wave worth attempting: the rest of the plan wave,
      // clipped to the virtual iteration (the fit is evaluated at vi
      // boundaries, so no wave may cross one). Serial compute gains
      // nothing from multi-step waves and keeps the serial engine's exact
      // buffer behavior by staying step-at-a-time.
      const int64_t want =
          compute_pool == nullptr
              ? 1
              : std::min(plan.WaveEndAfter(pos), vi_end) - pos;
      int64_t count = 0;
      loop_status = pipeline.BeginBatch(pos, want, &count);
      if (!loop_status.ok()) break;
      RunBatch(&state, plan, pos, count, compute_pool.get());
      for (int64_t i = 0; i < count; ++i) {
        pool.MarkDirty(schedule.UnitAt(pos + i));
      }
      loop_status = pipeline.EndBatch(pos, count);
      if (!loop_status.ok()) break;
      pos += count;
    }
    if (cancelled || !loop_status.ok()) break;
    const double fit = state.SurrogateFit();
    result->fit_trace.push_back(fit);
    result->virtual_iterations = vi + 1;
    if (options_.observer != nullptr) {
      options_.observer->OnVirtualIteration(vi + 1, fit,
                                            pool.stats().swap_ins);
    }
    // Termination is evaluated once per virtual iteration (Definition 3),
    // but never before one full tensor-filling cycle: early virtual
    // iterations of a block-centric schedule may only touch a few blocks
    // (possibly empty ones on sparse data), and their flat fit would fake
    // convergence before every sub-factor has seen all block information.
    const bool cycle_completed = pos >= schedule.cycle_length();
    if (cycle_completed && vi > 0 &&
        Phase2Converged(fit, prev_fit, options_.fit_tolerance)) {
      prev_fit = fit;
      result->converged = true;
      break;
    }
    prev_fit = fit;
  }

  // Always drain, success or not: Flush needs every pin released, and a
  // background error must surface instead of being silently dropped.
  const Status drained = pipeline.Drain();
  if (loop_status.ok()) loop_status = drained;

  if (cancelled && loop_status.ok()) {
    // Clean wind-down: persist every dirty unit, then cut a checkpoint so
    // a resubmission with resume_phase2 continues from this exact step.
    // (Unlike the error path below, all in-flight loads completed, so the
    // pool's residency claims are sound and Flush is safe.)
    TPCP_RETURN_IF_ERROR(pool.Flush());
    Phase2Checkpoint ckpt;
    ckpt.schedule = ScheduleTypeName(options_.schedule);
    ckpt.iteration = result->virtual_iterations;
    ckpt.cursor = pos;
    ckpt.fit_trace = result->fit_trace;
    ckpt.options_fingerprint = options_.ResumeFingerprint();
    ckpt.plan_fingerprint = plan.fingerprint();
    TPCP_RETURN_IF_ERROR(WriteManifest(
        factors_->env(), factors_->prefix(),
        StoreManifest::Factors(grid, factors_->rank(), std::move(ckpt))));
    result->surrogate_fit = prev_fit;
    result->buffer_stats = pool.stats();
    result->seconds = watch.ElapsedSeconds();
    return Status::Cancelled("phase 2 cancelled at virtual iteration " +
                             std::to_string(result->virtual_iterations) +
                             ", schedule position " + std::to_string(pos));
  }
  // On error, skip the Flush: a failed background load leaves the pool
  // claiming residency for a unit the refinement state never materialized.
  TPCP_RETURN_IF_ERROR(loop_status);

  result->surrogate_fit = prev_fit;
  TPCP_RETURN_IF_ERROR(pool.Flush());
  if (resume.has_value()) {
    // The run completed; retire the checkpoint so a later resume starts a
    // fresh pass instead of replaying a stale cursor.
    TPCP_RETURN_IF_ERROR(
        WriteManifest(factors_->env(), factors_->prefix(),
                      StoreManifest::Factors(grid, factors_->rank())));
  }
  result->buffer_stats = pool.stats();
  result->swaps_per_virtual_iteration =
      static_cast<double>(pool.stats().swap_ins) /
      static_cast<double>(std::max(
          1, result->virtual_iterations - result->start_iteration));
  result->seconds = watch.ElapsedSeconds();
  if (options_.observer != nullptr) {
    options_.observer->OnPhase2Done(result->virtual_iterations,
                                    result->converged, result->surrogate_fit,
                                    result->buffer_stats);
  }
  return Status::OK();
}

}  // namespace tpcp
