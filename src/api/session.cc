#include "api/session.h"

#include <utility>

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
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<Solver> solver,
                        SolverRegistry::Global().Create(solver_name));
  return Decompose(solver.get(), options, params);
}

Result<SolveResult> Session::Decompose(
    Solver* solver, const TwoPhaseCpOptions& options,
    const std::map<std::string, std::string>& params) {
  if (!tensor_.has_value()) {
    TPCP_RETURN_IF_ERROR(OpenTensorStore().status());
  }
  TPCP_RETURN_IF_ERROR(ValidateOptions(options));
  // Only factor-writing solvers get a factor store; one-shot baselines
  // must not leave a rank-N manifest with no factors behind, or clobber
  // the store of an earlier two-phase run. The stale manifest goes first:
  // while the solver is rewriting factor blocks the store is in flux, and
  // a failed run must not leave a manifest describing blocks that were
  // never (fully) written. Phase 2 writes the new one when it commits
  // (Phase2Progress::Commit): a checkpoint on cancel, the plain manifest
  // on success. The one exception is a resume: the interrupted run's
  // manifest carries the Phase-2 checkpoint, which must survive into the
  // engine.
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
  Status status = solver->Prepare(context);
  if (status.ok()) status = solver->Run();
  if (!status.ok()) {
    // The blocks may be half rewritten; hand out no store for them.
    factors_.reset();
    return status;
  }
  SolveResult result = solver->result();
  if (factors_.has_value()) result.factors_persisted = true;
  return result;
}

std::vector<std::string> Session::Solvers() {
  return SolverRegistry::Global().Names();
}

}  // namespace tpcp
