// tpcp::Session — the stable front door to the library.
//
// A Session binds three registries into one object:
//   - storage:  an Env resolved from a URI (storage/env_uri.h), so callers
//     write "compressed+posix:///data" instead of hand-chaining
//     wrapper constructors;
//   - datasets: manifest-backed BlockTensorStore / BlockFactorStore
//     creation and reopening (grid/manifest.h);
//   - solvers:  any algorithm in the SolverRegistry ("2pcp", "naive-oocp",
//     "grid-parafac", "haten2", or user-registered ones) or one the caller
//     built (the "dist" fleet), all returning a unified SolveResult.
//
// Minimal use:
//
//   auto session = Session::Open({"posix:///tmp/run"});
//   auto* store = session->CreateTensorStore(grid).value();
//   ... stage blocks into *store ...
//   TwoPhaseCpOptions options;
//   options.rank = 8;
//   SolveResult r = session->Decompose("2pcp", options).value();
//
// The pre-Session wiring (NewMemEnv + store constructors + TwoPhaseCp) keeps
// working and produces bit-identical results; Session is sugar plus
// registry indirection, not a new engine.

#ifndef TPCP_API_SESSION_H_
#define TPCP_API_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/block_factors.h"
#include "grid/block_tensor_store.h"
#include "storage/env_uri.h"

namespace tpcp {

/// How a Session finds its storage and lays out its stores.
struct SessionOptions {
  /// Storage URI resolved through the EnvFactoryRegistry. Ignored when
  /// `env` is set.
  std::string env_uri = "mem://";
  /// Use this Env instead of opening env_uri (caller keeps ownership and
  /// must keep it alive for the session's lifetime).
  Env* env = nullptr;
  /// Store prefixes inside the Env.
  std::string tensor_prefix = "tensor";
  std::string factor_prefix = "factors";
};

/// A bound (storage, datasets, solvers) working context. Move-only; create
/// with Open.
class Session {
 public:
  /// Resolves the storage and returns a ready session. InvalidArgument on
  /// a malformed or unknown URI.
  static Result<std::unique_ptr<Session>> Open(SessionOptions options);

  /// The session's storage environment.
  Env* env() const {
    return options_.env != nullptr ? options_.env : opened_.get();
  }

  /// Creates the session's tensor store for `grid`, writing its MANIFEST.
  /// `format` selects the block encoding (grid/slab_format.h); every
  /// solver reads every format, so this is a storage choice, not a math
  /// one. The returned pointer is owned by the session.
  Result<BlockTensorStore*> CreateTensorStore(
      const GridPartition& grid, SlabFormat format = SlabFormat::kDense);

  /// Opens the existing tensor store with the geometry its MANIFEST
  /// records (BlockTensorStore::Open: NotFound without one).
  Result<BlockTensorStore*> OpenTensorStore();

  /// The tensor store, if already created/opened (nullptr otherwise).
  BlockTensorStore* tensor_store() {
    return tensor_.has_value() ? &*tensor_ : nullptr;
  }

  /// The factor store of the last successful Decompose call (nullptr
  /// before one, after a failed or cancelled one, and after a solver that
  /// writes no factors).
  BlockFactorStore* factor_store() {
    return factors_.has_value() ? &*factors_ : nullptr;
  }

  /// Runs the named registry solver over the session's tensor store
  /// (opening it on demand), blocking on the calling thread. Creates/
  /// overwrites the factor store at factor_prefix with options.rank; with
  /// options.resume_phase2 set, the existing factor store (and any
  /// Phase-2 checkpoint in its manifest) is kept and continued instead.
  /// `params` passes solver-specific knobs; unknown names are
  /// InvalidArgument. options.cancel stops the run. RunJob (api/job.h)
  /// calls this for the JobService's and tpcpd's jobs, which add
  /// poll/cancel/resume control over long-running or concurrent work.
  Result<SolveResult> Decompose(
      const std::string& solver, const TwoPhaseCpOptions& options,
      const std::map<std::string, std::string>& params = {});

  /// The same, around a solver the caller built — one that is not in the
  /// registry, such as the dist fleet's DistributedSolver
  /// (dist/coordinator.h), whose spawner is not a string param.
  Result<SolveResult> Decompose(
      Solver* solver, const TwoPhaseCpOptions& options,
      const std::map<std::string, std::string>& params = {});

  /// Names in the solver registry, sorted.
  static std::vector<std::string> Solvers();

 private:
  explicit Session(SessionOptions options, OpenedEnv opened)
      : options_(std::move(options)), opened_(std::move(opened)) {}

  SessionOptions options_;
  OpenedEnv opened_;
  std::optional<BlockTensorStore> tensor_;
  std::optional<BlockFactorStore> factors_;
};

}  // namespace tpcp

#endif  // TPCP_API_SESSION_H_
