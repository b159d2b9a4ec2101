#include "api/session.h"

#include <utility>

#include "api/job_service.h"
#include "grid/manifest.h"

namespace tpcp {

Result<std::unique_ptr<Session>> Session::Open(SessionOptions options) {
  OpenedEnv opened;
  if (options.env == nullptr) {
    TPCP_ASSIGN_OR_RETURN(opened, OpenEnv(options.env_uri));
  }
  if (options.tensor_prefix.empty() || options.factor_prefix.empty()) {
    return Status::InvalidArgument("session store prefixes must be non-empty");
  }
  if (options.tensor_prefix == options.factor_prefix) {
    return Status::InvalidArgument(
        "tensor_prefix and factor_prefix must differ");
  }
  return std::unique_ptr<Session>(
      new Session(std::move(options), std::move(opened)));
}

Result<BlockTensorStore*> Session::CreateTensorStore(
    const GridPartition& grid, SlabFormat format) {
  TPCP_ASSIGN_OR_RETURN(
      BlockTensorStore store,
      BlockTensorStore::Create(env(), options_.tensor_prefix, grid, format));
  tensor_.emplace(std::move(store));
  return &*tensor_;
}

Result<BlockTensorStore*> Session::OpenTensorStore() {
  TPCP_ASSIGN_OR_RETURN(BlockTensorStore store,
                        BlockTensorStore::Open(env(),
                                               options_.tensor_prefix));
  tensor_.emplace(std::move(store));
  return &*tensor_;
}

Result<SolveResult> Session::Decompose(
    const std::string& solver_name, const TwoPhaseCpOptions& options,
    const std::map<std::string, std::string>& params) {
  // A caller-provided cancellation token must keep working on the
  // blocking path, but the job layer owns its tokens (JobService::Cancel
  // is the control surface there); run the synchronous engine inline in
  // that case — the results are identical either way.
  if (options.cancel != nullptr) {
    return RunSolver(solver_name, options, params);
  }
  // Preflight the tensor store so a missing dataset surfaces on the
  // calling thread, exactly as the pre-job synchronous API did. (Rank and
  // solver validation happen synchronously inside Submit.)
  if (!tensor_.has_value()) {
    TPCP_RETURN_IF_ERROR(OpenTensorStore().status());
  }

  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);
  JobSpec spec;
  spec.session.env = env();
  spec.session.tensor_prefix = options_.tensor_prefix;
  spec.session.factor_prefix = options_.factor_prefix;
  spec.solver = solver_name;
  spec.options = options;
  spec.params = params;
  // Resuming stays an explicit opt-in (options.resume_phase2) on the
  // blocking path; only JobService resubmissions auto-detect checkpoints.
  spec.auto_resume = false;
  TPCP_ASSIGN_OR_RETURN(const JobId id, service.Submit(std::move(spec)));
  TPCP_ASSIGN_OR_RETURN(JobInfo info, service.Await(id));

  factors_.reset();
  if (info.state != JobState::kSucceeded) return info.status;
  if (info.result.factors_persisted) {
    TPCP_ASSIGN_OR_RETURN(
        BlockFactorStore store,
        BlockFactorStore::Open(env(), options_.factor_prefix));
    factors_.emplace(std::move(store));
  }
  return std::move(info.result);
}

Result<SolveResult> Session::RunSolver(
    const std::string& solver_name, const TwoPhaseCpOptions& options,
    const std::map<std::string, std::string>& params) {
  if (!tensor_.has_value()) {
    TPCP_RETURN_IF_ERROR(OpenTensorStore().status());
  }
  TPCP_RETURN_IF_ERROR(ValidateOptions(options));
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<Solver> solver,
                        SolverRegistry::Global().Create(solver_name));
  // Only factor-writing solvers get a factor store; one-shot baselines
  // must not leave a rank-N manifest with no factors behind, or clobber
  // the store of an earlier two-phase run. The manifest itself is written
  // only after the run succeeds: while the solver is rewriting factor
  // blocks the store is in flux, and a failed run must not leave a
  // manifest describing blocks that were never (fully) written. The one
  // exception is a resume: the interrupted run's manifest carries the
  // Phase-2 checkpoint, which must survive into the engine.
  factors_.reset();
  if (solver->WritesFactorStore()) {
    if (!options.resume_phase2) {
      const Status stale =
          env()->DeleteFile(ManifestFileName(options_.factor_prefix));
      if (!stale.ok() && !stale.IsNotFound()) return stale;
    }
    factors_.emplace(env(), options_.factor_prefix, tensor_->grid(),
                     options.rank);
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  SolverContext context;
  context.input = &*tensor_;
  context.factors = factors_.has_value() ? &*factors_ : nullptr;
  context.env = env();
  context.options = options;
  context.pool = pool.get();
  context.params = params;
  TPCP_RETURN_IF_ERROR(solver->Prepare(context));
  TPCP_RETURN_IF_ERROR(solver->Run());
  SolveResult result = solver->result();
  if (factors_.has_value()) {
    TPCP_RETURN_IF_ERROR(WriteManifest(
        env(), options_.factor_prefix,
        StoreManifest::Factors(tensor_->grid(), options.rank)));
    result.factors_persisted = true;
  }
  return result;
}

std::vector<std::string> Session::Solvers() {
  return SolverRegistry::Global().Names();
}

}  // namespace tpcp
