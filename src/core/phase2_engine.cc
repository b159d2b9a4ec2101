#include "core/phase2_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/progress_observer.h"
#include "grid/manifest.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

/// Applies the `count` conflict-free steps at plan positions
/// [pos, pos+count) — across the compute pool when one is given, serially
/// (in plan order) otherwise. The steps commute exactly
/// (schedule/conflict.h), so both paths produce bit-identical state. A
/// single step runs inline rather than paying a hop to a pool thread.
void RunBatch(RefinementState* state, const ExecutionPlan& plan,
              int64_t pos, int64_t count, ThreadPool* compute_pool) {
  ParallelFor(count == 1 ? nullptr : compute_pool, 0, count,
              [&](int64_t i) { state->ApplyUpdate(plan.StepAt(pos + i)); });
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
  planner_options.prefetch_depth = options.prefetch_depth;
  planner_options.victim_hints = options.policy_victim_hints;
  // Certification (two simulated cycle replays) is only paid when the
  // reordering pass needs its parity gate.
  planner_options.certify = options.EffectivePlanReorder();
  return planner_options;
}

ExecutionPlan BuildPhase2Plan(const TwoPhaseCpOptions& options,
                              const GridPartition& grid) {
  return Planner::Build(UpdateSchedule::Create(options.schedule, grid),
                        Phase2PlannerOptions(options, grid));
}

namespace {

/// The one checkpoint-resume validator (Phase2Progress::Load). Returns
/// the checkpoint to continue from, or nullopt for a fresh schedule pass
/// — on NotFound or a manifest without a checkpoint.
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
  // Math-shaping options (rank, seed, init, solve parameters, plan
  // reordering) are hashed into the checkpoint; resuming under different
  // ones would splice two runs no single spec produces.
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
  // The cursor indexes the *plan* order. A plan rebuilt under a
  // buffer/policy change that flipped the reordering certification would
  // replay the cursor against a different step sequence; refuse instead
  // of silently diverging.
  if (ckpt.plan_fingerprint != plan.fingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint was cut under a different execution plan "
        "(reordering options or buffer geometry differ); "
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

}  // namespace

Phase2Runtime::Phase2Runtime(BlockFactorStore* factors,
                             const TwoPhaseCpOptions& options,
                             const ExecutionPlan* plan,
                             std::function<bool(int64_t)> runs)
    : compute_pool(options.compute_threads > 1
                       ? std::make_unique<ThreadPool>(options.compute_threads)
                       : nullptr),
      state(factors, options.refinement_ridge, compute_pool.get()),
      // The forward policy shares the plan's next-use oracle, so victim
      // choice follows the plan's (possibly reordered) trace by
      // construction. With policy_victim_hints on, LRU/MRU read the same
      // oracle as victim advice, recency only breaking ties.
      pool(Phase2PlannerOptions(options, factors->grid()).buffer_bytes,
           UnitCatalog(factors->grid(), options.rank),
           NewPolicy(options.policy, &plan->schedule(), plan->lookahead(),
                     options.policy_victim_hints)),
      pipeline(
          &pool, plan,
          [this](const ModePartition& unit) { return state.LoadUnit(unit); },
          [this](const ModePartition& unit, bool dirty) {
            return state.EvictUnit(unit, dirty);
          },
          PrefetchPipeline::Options{options.io_threads, options.cancel,
                                    std::move(runs)}) {}

bool Phase2Converged(double fit, double prev_fit, double tolerance) {
  // A NaN surrogate (degenerate solve) or a fit regression must keep the
  // refinement running — only a genuine, finite improvement that has
  // flattened out below the tolerance counts as convergence.
  const double improvement = fit - prev_fit;
  return std::isfinite(improvement) && improvement >= 0.0 &&
         improvement < tolerance;
}

Result<Phase2Progress> Phase2Progress::Load(
    const BlockFactorStore& factors, const TwoPhaseCpOptions& options,
    const ExecutionPlan& plan, std::optional<uint64_t> ownership_fingerprint) {
  Phase2Progress progress;
  progress.schedule = ScheduleTypeName(options.schedule);
  progress.options_fingerprint = options.ResumeFingerprint();
  progress.plan_fingerprint = plan.fingerprint();
  progress.ownership_fingerprint = ownership_fingerprint.value_or(0);
  if (!options.resume_phase2) return progress;
  TPCP_ASSIGN_OR_RETURN(
      const std::optional<Phase2Checkpoint> ckpt,
      ValidateResume(ReadManifest(factors.env(), factors.prefix()), factors,
                     options, plan, ownership_fingerprint));
  if (ckpt.has_value()) {
    progress.cursor = ckpt->cursor;
    progress.start_iteration = ckpt->iteration;
    progress.iteration = ckpt->iteration;
    progress.fit_trace = ckpt->fit_trace;
    if (!progress.fit_trace.empty()) {
      progress.last_fit = progress.fit_trace.back();
    }
  }
  return progress;
}

bool Phase2Progress::CloseIteration(double fit, int64_t cycle_length,
                                    double tolerance) {
  const int vi = iteration++;
  fit_trace.push_back(fit);
  converged = cursor >= cycle_length && vi > 0 &&
              Phase2Converged(fit, last_fit, tolerance);
  last_fit = fit;
  return converged;
}

Status Phase2Progress::Commit(BlockFactorStore* factors,
                              const std::map<ModePartition, Matrix>& staged,
                              Cut cut) const {
  for (const auto& [unit, a] : staged) {
    TPCP_RETURN_IF_ERROR(factors->WriteSubFactor(unit.mode, unit.part, a));
  }
  std::optional<Phase2Checkpoint> ckpt;
  if (cut == Cut::kCheckpoint) {
    ckpt.emplace();
    ckpt->schedule = schedule;
    ckpt->iteration = iteration;
    ckpt->cursor = cursor;
    ckpt->fit_trace = fit_trace;
    ckpt->options_fingerprint = options_fingerprint;
    ckpt->plan_fingerprint = plan_fingerprint;
    ckpt->ownership_fingerprint = ownership_fingerprint;
  }
  return WriteManifest(factors->env(), factors->prefix(),
                       StoreManifest::Factors(factors->grid(),
                                              factors->rank(),
                                              std::move(ckpt)));
}

void Phase2Progress::Fill(Phase2Result* result) const {
  result->virtual_iterations = iteration;
  result->start_iteration = start_iteration;
  result->converged = converged;
  result->surrogate_fit = last_fit;
  result->fit_trace = fit_trace;
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

  // One plan up front; every consumer below (wave loop, prefetch pipeline,
  // forward policy) executes it instead of re-deriving structure from
  // the schedule. Without reordering this is the identity plan — the
  // source order — so such runs are bit-identical to the pre-planner
  // engine.
  const ExecutionPlan plan = BuildPhase2Plan(options_, grid);
  const UpdateSchedule& schedule = plan.schedule();

  // The compute pool serves batch updates and the full-grid passes
  // (Initialize pass 2, SurrogateFit); with one compute thread everything
  // runs inline on this thread, exactly like the serial engine.
  Phase2Runtime runtime(factors_, options_, &plan);
  RefinementState& state = runtime.state;
  BufferPool& pool = runtime.pool;
  PrefetchPipeline& pipeline = runtime.pipeline;
  ThreadPool* compute_pool = runtime.compute_pool.get();
  const int64_t vi_len = schedule.virtual_iteration_length();

  // An interrupted run left a checkpoint in the store manifest; its cursor
  // and fit trace let the refinement continue exactly where it stopped.
  // Validated before the state reads a sub-factor, so a checkpoint for
  // another grid is refused as such instead of as a missing file.
  TPCP_ASSIGN_OR_RETURN(Phase2Progress progress,
                        Phase2Progress::Load(*factors_, options_, plan));
  TPCP_RETURN_IF_ERROR(state.Initialize(options_.resume_phase2));
  if (progress.fit_trace.empty()) progress.last_fit = state.SurrogateFit();
  // The wave loop advances the progress cursor in place.
  int64_t& pos = progress.cursor;

  bool cancelled = false;
  Status loop_status = Status::OK();
  while (progress.iteration < options_.max_virtual_iterations &&
         loop_status.ok()) {
    // The iteration executes [pos, vi_end) in conflict-free waves. When
    // resuming mid-iteration the first wave starts at the checkpoint
    // cursor — possibly mid-batch, which only shortens the first wave.
    const int64_t vi_end =
        static_cast<int64_t>(progress.iteration + 1) * vi_len;
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
      RunBatch(&state, plan, pos, count, compute_pool);
      for (int64_t i = 0; i < count; ++i) {
        pool.MarkDirty(schedule.UnitAt(pos + i));
      }
      loop_status = pipeline.EndBatch(pos, count);
      if (!loop_status.ok()) break;
      pos += count;
    }
    if (cancelled || !loop_status.ok()) break;
    const double fit = state.SurrogateFit();
    const bool converged = progress.CloseIteration(
        fit, schedule.cycle_length(), options_.fit_tolerance);
    if (options_.observer != nullptr) {
      options_.observer->OnVirtualIteration(progress.iteration, fit,
                                            pool.stats().swap_ins);
    }
    if (converged) break;
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
    TPCP_RETURN_IF_ERROR(pipeline.Flush());
    TPCP_RETURN_IF_ERROR(
        progress.Commit(factors_, {}, Phase2Progress::Cut::kCheckpoint));
    progress.Fill(result);
    result->buffer_stats = pool.stats();
    result->seconds = watch.ElapsedSeconds();
    return Status::Cancelled("phase 2 cancelled at virtual iteration " +
                             std::to_string(progress.iteration) +
                             ", schedule position " + std::to_string(pos));
  }
  // On error, skip the Flush: a failed background load leaves the pool
  // claiming residency for a unit the refinement state never materialized.
  TPCP_RETURN_IF_ERROR(loop_status);

  TPCP_RETURN_IF_ERROR(pipeline.Flush());
  // The plain manifest ends the run; it also retires a resumed run's
  // checkpoint, so a later resume starts a fresh pass instead of replaying
  // a stale cursor.
  TPCP_RETURN_IF_ERROR(
      progress.Commit(factors_, {}, Phase2Progress::Cut::kDone));
  progress.Fill(result);
  result->buffer_stats = pool.stats();
  result->swaps_per_virtual_iteration =
      static_cast<double>(pool.stats().swap_ins) /
      static_cast<double>(
          std::max(1, progress.iteration - progress.start_iteration));
  result->seconds = watch.ElapsedSeconds();
  if (options_.observer != nullptr) {
    options_.observer->OnPhase2Done(result->virtual_iterations,
                                    result->converged, result->surrogate_fit,
                                    result->buffer_stats);
  }
  return Status::OK();
}

}  // namespace tpcp
