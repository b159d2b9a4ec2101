// The unified solver interface and registry behind tpcp::Session.
//
// 2PCP is one member of an algorithm family the paper evaluates against —
// naive out-of-core CP, GridPARAFAC-style refinement, HaTen2-style
// MapReduce ALS. Each used to expose a hand-wired API; the registry gives
// tools, benches and tests one front door:
//
//   auto solver = SolverRegistry::Global().Create("2pcp");
//   solver->Prepare(context);
//   solver->Run();
//   const SolveResult& r = solver->result();
//
// New algorithms plug in with SolverRegistry::Global().Register(name, ...)
// without touching any caller.

#ifndef TPCP_API_SOLVER_H_
#define TPCP_API_SOLVER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/two_phase_cp.h"
#include "grid/block_tensor_store.h"
#include "parallel/thread_pool.h"
#include "tensor/kruskal.h"
#include "util/status.h"

namespace tpcp {

/// Everything a solver may need, bound once in Prepare. Pointers are
/// non-owning and must outlive the solver.
struct SolverContext {
  /// The blocked input tensor (required).
  BlockTensorStore* input = nullptr;
  /// Factor persistence for two-phase solvers (required by "2pcp" and
  /// "grid-parafac"; ignored by the one-shot baselines).
  BlockFactorStore* factors = nullptr;
  /// Scratch storage (HaTen2 shuffle spills). Defaults to input->env().
  Env* env = nullptr;
  /// Shared configuration; each solver reads the subset it understands
  /// (rank, tolerances, seed, observer, max_seconds, ...).
  TwoPhaseCpOptions options;
  /// Optional worker pool for Phase-1-style parallelism.
  ThreadPool* pool = nullptr;
  /// Solver-specific knobs ("heap_cap_bytes", "num_reducers", ...), parsed
  /// with the checked util/parse.h helpers.
  std::map<std::string, std::string> params;
};

/// Unified run outcome — a superset of TwoPhaseCpResult, so callers read
/// one result type no matter which algorithm ran. Solvers fill the fields
/// that apply and leave the rest zeroed.
struct SolveResult {
  /// Registry name of the solver that produced this result.
  std::string solver;
  /// The rank-F decomposition (empty when `failed`).
  KruskalTensor decomposition;
  double total_seconds = 0.0;
  /// The wall-clock budget (options.max_seconds) was exceeded.
  bool timed_out = false;
  /// The run failed in an *expected* way (HaTen2's FAILS on dense data).
  /// Infrastructure errors surface as a non-OK Status from Run instead.
  bool failed = false;
  std::string failure;

  // ---- TwoPhaseCpResult superset ----
  double phase1_seconds = 0.0;
  int64_t blocks_decomposed = 0;
  double phase1_mean_block_fit = 0.0;
  double phase2_seconds = 0.0;
  /// Refinement virtual iterations; plain ALS / MapReduce iterations for
  /// the one-phase baselines.
  int virtual_iterations = 0;
  bool converged = false;
  /// The last accuracy the solver itself measured (surrogate fit for 2PCP,
  /// exact fit for the in-memory baselines).
  double surrogate_fit = 0.0;
  std::vector<double> fit_trace;
  BufferStats buffer_stats;
  double swaps_per_virtual_iteration = 0.0;
  /// First Phase-2 virtual iteration of this run; > 0 when the refinement
  /// resumed from the checkpoint of a cancelled/interrupted run.
  int phase2_start_iteration = 0;
  /// The run persisted a factor store (with manifest) at the session's
  /// factor prefix; false for one-shot baselines.
  bool factors_persisted = false;

  // ---- Streaming / shuffle accounting ----
  uint64_t bytes_streamed = 0;   // naive-oocp: tensor bytes re-read
  uint64_t shuffle_bytes = 0;    // haten2: bytes staged through the Env
  uint64_t shuffle_records = 0;  // haten2
  uint64_t mapreduce_jobs = 0;   // haten2
};

/// A decomposition algorithm behind the common front door.
class Solver {
 public:
  virtual ~Solver() = default;

  /// The registry name ("2pcp", "naive-oocp", ...).
  virtual const char* name() const = 0;

  /// True when the solver persists factors through context.factors. The
  /// Session only creates a factor store when this returns true, so
  /// one-shot baselines leave no empty factor store behind.
  virtual bool WritesFactorStore() const { return false; }

  /// Canonicalizes `options` to what Run will actually execute (e.g.
  /// "grid-parafac" pins the mode-centric + LRU configuration). The job
  /// layer normalizes a spec before comparing it against a Phase-2
  /// checkpoint, so pinned-configuration solvers resume correctly.
  virtual void NormalizeOptions(TwoPhaseCpOptions* options) const {
    (void)options;
  }

  /// Validates and binds the context. InvalidArgument when a required
  /// piece (input store, factor store, parameter) is missing or malformed.
  virtual Status Prepare(const SolverContext& context) = 0;

  /// Executes the decomposition. Expected baseline failures (timeout,
  /// HaTen2 FAILS) return OK with result().timed_out / result().failed
  /// set; only infrastructure errors produce a non-OK Status.
  virtual Status Run() = 0;

  virtual const SolveResult& result() const = 0;
};

/// "2pcp": the two-phase engine (core/two_phase_cp.h). With
/// `grid_parafac` it is "grid-parafac", the same engine with the
/// conventional mode-centric + LRU configuration pinned (Phan & Cichocki).
/// A subclass may run Phase 2 elsewhere by overriding Phase2
/// (DistributedSolver, dist/coordinator.h).
class TwoPhaseSolver : public Solver {
 public:
  explicit TwoPhaseSolver(bool grid_parafac = false)
      : grid_parafac_(grid_parafac) {}

  const char* name() const override {
    return grid_parafac_ ? "grid-parafac" : "2pcp";
  }
  bool WritesFactorStore() const override { return true; }
  void NormalizeOptions(TwoPhaseCpOptions* options) const override {
    if (grid_parafac_) {
      options->schedule = ScheduleType::kModeCentric;
      options->policy = PolicyType::kLru;
    }
  }
  /// Requires an input and a factor store over one grid, at options.rank;
  /// takes no params.
  Status Prepare(const SolverContext& context) override;
  Status Run() override;
  const SolveResult& result() const override { return result_; }

 protected:
  /// The Phase-2 runner handed to TwoPhaseCp::Run; empty (the default)
  /// keeps the in-process Phase2Engine.
  virtual Phase2Runner Phase2() { return nullptr; }

 private:
  bool grid_parafac_;
  bool prepared_ = false;
  SolverContext context_;
  SolveResult result_;
};

/// Process-wide registry of solver factories. Thread-safe. Pre-populated
/// with the built-ins: "2pcp", "naive-oocp", "grid-parafac", "haten2".
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  static SolverRegistry& Global();

  /// Registers or replaces a solver.
  void Register(const std::string& name, Factory factory);

  /// Instantiates a registered solver; InvalidArgument (listing the
  /// registered names) when `name` is unknown.
  Result<std::unique_ptr<Solver>> Create(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  SolverRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace tpcp

#endif  // TPCP_API_SOLVER_H_
