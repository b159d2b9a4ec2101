// The built-in members of the solver registry: the 2PCP engine itself plus
// the paper's comparison baselines, all behind the common Solver interface.

#include <initializer_list>
#include <utility>

#include "api/solver.h"
#include "baselines/haten2_sim.h"
#include "baselines/naive_oocp.h"
#include "util/parse.h"
#include "util/stopwatch.h"

namespace tpcp {

namespace {

/// Rejects solver params outside `allowed` so typos fail loudly.
Status CheckParams(const std::map<std::string, std::string>& params,
                   std::initializer_list<const char*> allowed,
                   const char* solver) {
  for (const auto& [key, value] : params) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("solver '" + std::string(solver) +
                                     "' does not understand parameter '" +
                                     key + "'");
    }
  }
  return Status::OK();
}

Status RequireInput(const SolverContext& context, const char* solver) {
  if (context.input == nullptr) {
    return Status::InvalidArgument("solver '" + std::string(solver) +
                                   "' requires an input tensor store");
  }
  return Status::OK();
}

void CopyTwoPhaseResult(const TwoPhaseCpResult& from, SolveResult* to) {
  to->decomposition = from.decomposition;
  to->phase1_seconds = from.phase1_seconds;
  to->blocks_decomposed = from.blocks_decomposed;
  to->phase1_mean_block_fit = from.phase1_mean_block_fit;
  to->phase2_seconds = from.phase2_seconds;
  to->virtual_iterations = from.virtual_iterations;
  to->converged = from.converged;
  to->surrogate_fit = from.surrogate_fit;
  to->fit_trace = from.fit_trace;
  to->buffer_stats = from.buffer_stats;
  to->swaps_per_virtual_iteration = from.swaps_per_virtual_iteration;
  to->phase2_start_iteration = from.phase2_start_iteration;
}

/// "naive-oocp": conventional out-of-core ALS streaming the whole tensor
/// per mode update (Table II's Naive CP row).
class NaiveOocpSolver : public Solver {
 public:
  const char* name() const override { return "naive-oocp"; }

  Status Prepare(const SolverContext& context) override {
    TPCP_RETURN_IF_ERROR(RequireInput(context, name()));
    TPCP_RETURN_IF_ERROR(CheckParams(context.params, {}, name()));
    context_ = context;
    prepared_ = true;
    return Status::OK();
  }

  Status Run() override {
    if (!prepared_) {
      return Status::FailedPrecondition("Prepare must succeed before Run");
    }
    result_ = SolveResult();
    result_.solver = name();
    NaiveOocpOptions naive;
    naive.rank = context_.options.rank;
    naive.max_iterations = context_.options.max_virtual_iterations;
    naive.fit_tolerance = context_.options.fit_tolerance;
    naive.seed = context_.options.seed;
    naive.max_seconds = context_.options.max_seconds;
    auto r = NaiveOutOfCoreCp(*context_.input, naive);
    if (!r.ok()) return r.status();
    result_.decomposition = std::move(r->decomposition);
    result_.virtual_iterations = r->iterations;
    result_.converged = r->converged;
    result_.timed_out = r->timed_out;
    result_.surrogate_fit = r->fit;
    result_.bytes_streamed = r->bytes_streamed;
    result_.total_seconds = r->seconds;
    return Status::OK();
  }

  const SolveResult& result() const override { return result_; }

 private:
  bool prepared_ = false;
  SolverContext context_;
  SolveResult result_;
};

/// "haten2": the MapReduce sparse-ALS skeleton, fed the block store's
/// non-zeros in COO form. Params: heap_cap_bytes (per-reducer budget,
/// 0 = unlimited), num_reducers.
class Haten2Solver : public Solver {
 public:
  const char* name() const override { return "haten2"; }

  Status Prepare(const SolverContext& context) override {
    TPCP_RETURN_IF_ERROR(RequireInput(context, name()));
    TPCP_RETURN_IF_ERROR(CheckParams(
        context.params, {"heap_cap_bytes", "num_reducers"}, name()));
    heap_cap_bytes_ = 0;
    num_reducers_ = 8;
    if (const auto it = context.params.find("heap_cap_bytes");
        it != context.params.end()) {
      TPCP_ASSIGN_OR_RETURN(heap_cap_bytes_, ParseInt64(it->second));
      if (heap_cap_bytes_ < 0) {
        return Status::InvalidArgument("heap_cap_bytes must be >= 0");
      }
    }
    if (const auto it = context.params.find("num_reducers");
        it != context.params.end()) {
      TPCP_ASSIGN_OR_RETURN(const int64_t reducers, ParseInt64(it->second));
      if (reducers < 1) {
        return Status::InvalidArgument("num_reducers must be >= 1");
      }
      num_reducers_ = static_cast<int>(reducers);
    }
    context_ = context;
    prepared_ = true;
    return Status::OK();
  }

  Status Run() override {
    if (!prepared_) {
      return Status::FailedPrecondition("Prepare must succeed before Run");
    }
    result_ = SolveResult();
    result_.solver = name();

    // A Hadoop pipeline ingests COO records; lift the block store's
    // non-zeros into that form. ReadBlockSparse decodes sparse slabs
    // without densifying and scans dense ones — entries arrive in
    // lexicographic order either way, so the lifted COO is identical
    // across slab formats.
    const GridPartition& grid = context_.input->grid();
    SparseTensor coo(grid.tensor_shape());
    for (const BlockIndex& block : grid.AllBlocks()) {
      auto chunk = context_.input->ReadBlockSparse(block);
      if (!chunk.ok()) return chunk.status();
      const Index offsets = grid.BlockOffsets(block);
      for (const SparseEntry& entry : chunk->entries()) {
        Index idx = entry.index;
        for (size_t m = 0; m < idx.size(); ++m) idx[m] += offsets[m];
        coo.Add(std::move(idx), entry.value);
      }
    }

    Haten2Options haten2;
    haten2.rank = context_.options.rank;
    haten2.iterations = context_.options.max_virtual_iterations;
    haten2.seed = context_.options.seed;
    haten2.heap_cap_bytes = heap_cap_bytes_;
    haten2.num_reducers = num_reducers_;
    Env* env =
        context_.env != nullptr ? context_.env : context_.input->env();
    const Haten2Result h = RunHaten2Sim(coo, env, haten2);
    result_.decomposition = h.decomposition;
    result_.virtual_iterations = h.iterations_completed;
    result_.failed = h.failed;
    result_.failure = h.failure;
    result_.surrogate_fit = h.fit;
    result_.total_seconds = h.seconds;
    result_.shuffle_bytes = h.shuffle_bytes;
    result_.shuffle_records = h.shuffle_records;
    result_.mapreduce_jobs = h.mapreduce_jobs;
    return Status::OK();
  }

  const SolveResult& result() const override { return result_; }

 private:
  bool prepared_ = false;
  int64_t heap_cap_bytes_ = 0;
  int num_reducers_ = 8;
  SolverContext context_;
  SolveResult result_;
};

}  // namespace

Status TwoPhaseSolver::Prepare(const SolverContext& context) {
  TPCP_RETURN_IF_ERROR(RequireInput(context, name()));
  TPCP_RETURN_IF_ERROR(CheckParams(context.params, {}, name()));
  if (context.factors == nullptr) {
    return Status::InvalidArgument("solver '" + std::string(name()) +
                                   "' requires a factor store");
  }
  if (!(context.input->grid() == context.factors->grid())) {
    return Status::InvalidArgument(
        "input store and factor store must share one grid");
  }
  if (context.factors->rank() != context.options.rank) {
    return Status::InvalidArgument("factor store rank does not match "
                                   "options.rank");
  }
  context_ = context;
  prepared_ = true;
  return Status::OK();
}

Status TwoPhaseSolver::Run() {
  if (!prepared_) {
    return Status::FailedPrecondition("Prepare must succeed before Run");
  }
  result_ = SolveResult();
  result_.solver = name();
  Stopwatch watch;
  TwoPhaseCpOptions options = context_.options;
  NormalizeOptions(&options);
  TwoPhaseCp engine(context_.input, context_.factors, options);
  auto k = engine.Run(context_.pool, Phase2());
  if (!k.ok()) return k.status();
  CopyTwoPhaseResult(engine.result(), &result_);
  result_.total_seconds = watch.ElapsedSeconds();
  return Status::OK();
}

void RegisterBuiltinSolvers(SolverRegistry* registry) {
  registry->Register(
      "2pcp", [] { return std::make_unique<TwoPhaseSolver>(false); });
  registry->Register(
      "grid-parafac", [] { return std::make_unique<TwoPhaseSolver>(true); });
  registry->Register("naive-oocp",
                     [] { return std::make_unique<NaiveOocpSolver>(); });
  registry->Register("haten2",
                     [] { return std::make_unique<Haten2Solver>(); });
}

}  // namespace tpcp
