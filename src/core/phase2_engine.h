// The Phase-2 refinement execution engine (Algorithm 2's outer loop).
//
// The engine owns the schedule cursor, the buffer pool, the convergence
// logic and the Phase-2 statistics; the factor data itself lives in a
// RefinementState backed by the caller's BlockFactorStore. All data
// movement goes through one PrefetchPipeline (buffer/prefetch_pipeline.h);
// prefetch_depth only sets how far ahead it loads, with depth 0 running
// every load and writeback inline. The update sequence is the same for
// every depth, so factors and fit traces are identical; only wall-clock
// behavior (and, for depth > 0, eviction timing) differs.
//
// Execution is plan-driven: the engine builds one ExecutionPlan up front
// (schedule/planner.h — optional conflict-aware reordering with
// swap-parity certification, conflict-free waves, prefetch directives,
// per-step shard chunks) and executes it verbatim. With
// options.compute_threads > 1 each plan wave is pinned whole in the
// buffer pool (as much as fits) and its updates dispatch onto a shared
// compute ThreadPool; steps of a wave commute exactly — same mode,
// disjoint partitions. Singleton waves (the block-centric FO/ZO/HO case)
// shard their slab accumulation per the plan's chunk instead, and the
// full-grid passes (RefinementState::Initialize pass 2, SurrogateFit)
// shard by block with an in-order reduction — so factors and fit traces
// stay bit-identical for every compute_threads × prefetch_depth value of
// one plan, including across cancel→resume (the plan fingerprint in the
// checkpoint guarantees the same plan is replayed).

#ifndef TPCP_CORE_PHASE2_ENGINE_H_
#define TPCP_CORE_PHASE2_ENGINE_H_

#include <optional>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/block_factors.h"
#include "core/config.h"
#include "grid/manifest.h"
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

/// The one checkpoint-resume validator, shared by Phase2Engine::Run and
/// RunDistributedPhase2: a checkpoint either runner refuses, the other
/// refuses for the same reason. `manifest` is ReadManifest of `factors`.
/// Returns the checkpoint to continue from (its cursor, iteration and fit
/// trace), or nullopt for a fresh schedule pass over the persisted
/// sub-factors — on NotFound or a manifest without a checkpoint. Any
/// other read error is returned. A checkpoint is refused with
/// FailedPrecondition when it describes another store or was cut under
/// another schedule, other math-shaping options or another execution plan
/// than `options`/`plan`, and — when `ownership_fingerprint` is set (a
/// distributed resume) — under another ownership map. Corruption when its
/// cursor disagrees with its iteration count.
Result<std::optional<Phase2Checkpoint>> ValidateResume(
    const Result<StoreManifest>& manifest, const BlockFactorStore& factors,
    const TwoPhaseCpOptions& options, const ExecutionPlan& plan,
    std::optional<uint64_t> ownership_fingerprint = std::nullopt);

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
  /// flushes every dirty unit, records a
  /// Phase2Checkpoint in the factor store's manifest and returns
  /// Status::Cancelled. A later run with options.resume_phase2 picks the
  /// checkpoint up (ValidateResume) and continues bit-identically to an
  /// uninterrupted run (factors and fit trace; buffer statistics
  /// restart).
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
