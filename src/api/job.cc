#include "api/job.h"

#include <utility>

#include "core/phase2_engine.h"
#include "grid/manifest.h"

namespace tpcp {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void JobProgressReporter::OnPhase1BlockDone(int64_t done, int64_t total,
                                            double block_fit) {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    progress_->phase1_blocks_done = done;
    progress_->phase1_blocks_total = total;
  }
  if (next_ != nullptr) next_->OnPhase1BlockDone(done, total, block_fit);
}

void JobProgressReporter::OnPhase1Done(double seconds,
                                       double mean_block_fit) {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    progress_->phase1_done = true;
  }
  if (next_ != nullptr) next_->OnPhase1Done(seconds, mean_block_fit);
}

void JobProgressReporter::OnVirtualIteration(int iteration,
                                             double surrogate_fit,
                                             uint64_t swap_ins) {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    progress_->virtual_iteration = iteration;
    progress_->fit = surrogate_fit;
    progress_->swap_ins = swap_ins;
  }
  if (next_ != nullptr) {
    next_->OnVirtualIteration(iteration, surrogate_fit, swap_ins);
  }
}

void JobProgressReporter::OnPhase2Done(int virtual_iterations,
                                       bool converged, double surrogate_fit,
                                       const BufferStats& stats) {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    progress_->virtual_iteration = virtual_iterations;
    progress_->fit = surrogate_fit;
  }
  if (next_ != nullptr) {
    next_->OnPhase2Done(virtual_iterations, converged, surrogate_fit, stats);
  }
}

namespace {

/// Whether a run of `spec` continues the Phase-2 checkpoint in its factor
/// store. No checkpoint means a fresh run, and so does one the engine's
/// resume validator (Phase2Progress::Load) refuses with
/// FailedPrecondition: a tensor regenerated on another grid under the
/// same path, or a spec whose math-shaping options or execution plan
/// differ from the interrupted run's. Any other validator error is
/// returned. The options are normalized by the solver first, because the
/// checkpoint records the configuration the engine actually ran (e.g.
/// grid-parafac's pinned mode-centric schedule).
Result<bool> ResumesCheckpoint(Session* session, const JobSpec& spec) {
  const Result<StoreManifest> manifest =
      ReadManifest(session->env(), spec.session.factor_prefix);
  if (!manifest.ok() || manifest->kind != StoreManifest::kFactorsKind ||
      !manifest->checkpoint.has_value()) {
    return false;
  }
  TwoPhaseCpOptions options = spec.options;
  options.resume_phase2 = true;
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<Solver> solver,
                        SolverRegistry::Global().Create(spec.solver));
  solver->NormalizeOptions(&options);
  TPCP_ASSIGN_OR_RETURN(const BlockTensorStore* tensor,
                        session->OpenTensorStore());
  // The factor store the Session hands the solver on a resume.
  const BlockFactorStore factors(session->env(), spec.session.factor_prefix,
                                 tensor->grid(), options.rank);
  const Result<Phase2Progress> progress = Phase2Progress::Load(
      factors, options, BuildPhase2Plan(options, tensor->grid()));
  if (progress.ok()) return true;
  if (progress.status().code() == StatusCode::kFailedPrecondition) {
    return false;
  }
  return progress.status();
}

}  // namespace

JobOutcome RunJob(JobSpec spec, CancellationToken* cancel,
                  ProgressObserver* observer) {
  spec.options.cancel = cancel;
  spec.options.observer = observer;
  JobOutcome outcome;
  auto session = Session::Open(spec.session);
  if (!session.ok()) {
    outcome.status = session.status();
    return outcome;
  }
  if (spec.auto_resume && !spec.options.resume_phase2) {
    const Result<bool> resumes = ResumesCheckpoint(session->get(), spec);
    if (!resumes.ok()) {
      outcome.status = resumes.status();
      return outcome;
    }
    spec.options.resume_phase2 = outcome.resumed = *resumes;
  }
  auto result = (*session)->Decompose(spec.solver, spec.options, spec.params);
  if (result.ok()) {
    outcome.result = std::move(result).value();
  } else {
    outcome.status = result.status();
  }
  return outcome;
}

}  // namespace tpcp
