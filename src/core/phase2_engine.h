// The Phase-2 refinement execution engine (Algorithm 2's outer loop).
//
// The engine owns the buffer pool and the Phase-2 statistics; its cursor,
// fit trace and convergence live in a Phase2Progress, which it shares
// with the dist coordinator, and the factor data in a RefinementState
// backed by the caller's BlockFactorStore. All data movement goes
// through one PrefetchPipeline (buffer/prefetch_pipeline.h);
// prefetch_depth only sets how far ahead it loads, with depth 0 running
// every load and writeback inline. The update sequence is the same for
// every depth, so factors and fit traces are identical; only wall-clock
// behavior (and, for depth > 0, eviction timing) differs.
//
// Execution is plan-driven: the engine builds one ExecutionPlan up front
// (schedule/planner.h — optional conflict-aware reordering with
// swap-parity certification, conflict-free waves, prefetch directives)
// and executes it verbatim. With options.compute_threads > 1 each plan
// wave is pinned whole in the buffer pool (as much as fits) and its
// updates dispatch onto a shared compute ThreadPool; steps of a wave
// commute exactly — same mode, disjoint partitions. Each step's slab
// accumulation runs serially in slab order, and the full-grid passes
// (RefinementState::Initialize pass 2, SurrogateFit) shard by block with
// an in-order reduction — so factors and fit traces
// stay bit-identical for every compute_threads × prefetch_depth value of
// one plan, including across cancel→resume (the plan fingerprint in the
// checkpoint guarantees the same plan is replayed).

#ifndef TPCP_CORE_PHASE2_ENGINE_H_
#define TPCP_CORE_PHASE2_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/prefetch_pipeline.h"
#include "core/block_factors.h"
#include "core/config.h"
#include "core/refinement_state.h"
#include "grid/manifest.h"
#include "parallel/thread_pool.h"
#include "schedule/planner.h"

namespace tpcp {

/// The planner inputs Phase2Engine::Run derives from `options` over
/// `grid` — including the resolved buffer capacity (buffer_bytes) the
/// engine's pool will use. The single source of truth for the plan a run
/// executes: the tool's `plan` subcommand and the tests reuse it so they
/// describe the exact same plan (the tool additionally forces `certify`
/// on so summaries always carry predicted swaps).
PlannerOptions Phase2PlannerOptions(const TwoPhaseCpOptions& options,
                                    const GridPartition& grid);

/// The Phase-2 machinery one refinement executes `plan` with, wired the
/// one way the engine and a dist worker (dist/worker.h) both use: a
/// compute pool (none at compute_threads 1) → a RefinementState over
/// `factors` → a BufferPool of the plan's budget whose policy reads the
/// plan's next-use oracle → a PrefetchPipeline moving the state's units
/// (options.io_threads, options.cancel). `runs` restricts the pipeline to
/// the positions the caller executes (PrefetchPipeline::Options::runs).
/// Members are declared so that the pipeline joins its I/O before the
/// pool and the state die. The caller initializes `state` and drives the
/// pipeline.
struct Phase2Runtime {
  /// `factors` and `plan` (built from Phase2PlannerOptions(options, …))
  /// must outlive the runtime.
  Phase2Runtime(BlockFactorStore* factors, const TwoPhaseCpOptions& options,
                const ExecutionPlan* plan,
                std::function<bool(int64_t)> runs = nullptr);

  std::unique_ptr<ThreadPool> compute_pool;
  RefinementState state;
  BufferPool pool;
  PrefetchPipeline pipeline;
};

/// Outcome of one Phase-2 run.
struct Phase2Result {
  double seconds = 0.0;
  int virtual_iterations = 0;
  bool converged = false;
  double surrogate_fit = 0.0;
  std::vector<double> fit_trace;  // surrogate fit per virtual iteration
  BufferStats buffer_stats;
  double swaps_per_virtual_iteration = 0.0;
  /// First virtual iteration of this run (> 0 when resumed from a
  /// checkpoint; fit_trace then carries the checkpointed prefix too).
  int start_iteration = 0;
};

/// Where one Phase-2 run stands, and the one place its progress reaches
/// the factor store. Phase2Engine::Run and RunDistributedPhase2 both
/// load, close and commit through it, so a resume, the convergence rule
/// and the content and write order of the factors manifest are decided
/// here once.
struct Phase2Progress {
  /// What Commit writes after the staged sub-factors.
  enum class Cut {
    kCheckpoint,  // a Phase2Checkpoint at the cursor: the run continues
    kDone,        // the plain factors manifest that ends the run
  };

  /// Next plan position to execute (may be mid-iteration after a cancel).
  int64_t cursor = 0;
  /// First virtual iteration of this run (> 0 when resumed).
  int start_iteration = 0;
  /// Completed virtual iterations.
  int iteration = 0;
  /// Surrogate fit per completed iteration, checkpointed prefix included.
  std::vector<double> fit_trace;
  /// The fit the next iteration's is compared against: fit_trace.back(),
  /// or the initial surrogate fit, which the runner sets while the trace
  /// is empty.
  double last_fit = 0.0;
  bool converged = false;
  /// The identity a checkpoint records (see Phase2Checkpoint).
  std::string schedule;
  uint64_t options_fingerprint = 0;
  uint64_t plan_fingerprint = 0;
  uint64_t ownership_fingerprint = 0;

  /// The progress a run over `factors` executing `plan` starts from. With
  /// options.resume_phase2 set, reads the store manifest and continues its
  /// checkpoint (cursor, iteration and fit trace); a missing manifest or
  /// one without a checkpoint (a completed run being extended) starts a
  /// fresh schedule pass over the persisted sub-factors. A checkpoint is
  /// refused with FailedPrecondition when it describes another store or
  /// was cut under another schedule, other math-shaping options or another
  /// execution plan, and — when `ownership_fingerprint` is set (a
  /// distributed resume) — under another ownership map; with Corruption
  /// when its cursor disagrees with its iteration count. Any other
  /// manifest read error is returned.
  static Result<Phase2Progress> Load(
      const BlockFactorStore& factors, const TwoPhaseCpOptions& options,
      const ExecutionPlan& plan,
      std::optional<uint64_t> ownership_fingerprint = std::nullopt);

  /// Closes the virtual iteration that ends at `cursor` with surrogate
  /// fit `fit`. Termination is evaluated once per virtual iteration
  /// (Definition 3), but never before one full tensor-filling cycle
  /// (`cycle_length` positions) nor on the first iteration: early
  /// iterations of a block-centric schedule may touch only a few blocks,
  /// and their flat fit would fake convergence. Returns `converged`.
  bool CloseIteration(double fit, int64_t cycle_length, double tolerance);

  /// Writes `staged` sub-factors in unit order, then the factors manifest
  /// for `cut`. Not atomic: a process killed between the sub-factor writes
  /// and the manifest write leaves the store holding iteration k+1
  /// factors under the iteration-k checkpoint, which a resume replays
  /// without noticing (ROADMAP, "Crash consistency at every write").
  Status Commit(BlockFactorStore* factors,
                const std::map<ModePartition, Matrix>& staged, Cut cut) const;

  /// Copies the progress into `result`'s iteration, fit and convergence
  /// fields; timing and buffer fields are the runner's.
  void Fill(Phase2Result* result) const;
};

/// Runs the schedule-driven iterative refinement under the buffer budget.
class Phase2Engine {
 public:
  /// `factors` must already hold the Phase-1 block factors and outlive the
  /// engine. Only the Phase-2 fields of `options` are consulted.
  Phase2Engine(BlockFactorStore* factors, const TwoPhaseCpOptions& options);

  /// Executes Phase 2 to convergence (or the virtual-iteration cap) and
  /// fills `result`. Every wave runs through the prefetch pipeline
  /// (BeginBatch → apply → MarkDirty → EndBatch), loading
  /// options.prefetch_depth steps ahead; options.compute_threads > 1
  /// executes conflict-free batches of steps concurrently (bit-identical
  /// results).
  ///
  /// With options.cancel set, the token is polled once per step wave
  /// (every step when compute_threads == 1); on cancellation the engine
  /// flushes every dirty unit, commits a checkpoint
  /// (Phase2Progress::Commit) and returns Status::Cancelled. A later run
  /// with options.resume_phase2 picks the checkpoint up
  /// (Phase2Progress::Load) and continues bit-identically to an
  /// uninterrupted run (factors and fit trace; buffer statistics
  /// restart). A successful run ends by committing the plain factors
  /// manifest.
  Status Run(Phase2Result* result);

 private:
  BlockFactorStore* factors_;
  TwoPhaseCpOptions options_;
};

/// The convergence test applied once per virtual iteration: true when the
/// fit improved by a finite, non-negative amount below `tolerance`. A fit
/// regression or a NaN surrogate is never convergence.
bool Phase2Converged(double fit, double prev_fit, double tolerance);

}  // namespace tpcp

#endif  // TPCP_CORE_PHASE2_ENGINE_H_
