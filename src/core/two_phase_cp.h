// The 2PCP engine: Phase-1 independent block decompositions plus Phase-2
// buffered, schedule-driven iterative refinement (Algorithms 1 and 2).

#ifndef TPCP_CORE_TWO_PHASE_CP_H_
#define TPCP_CORE_TWO_PHASE_CP_H_

#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/block_factors.h"
#include "core/config.h"
#include "core/refinement_state.h"
#include "grid/block_tensor_store.h"
#include "parallel/thread_pool.h"
#include "tensor/kruskal.h"

namespace tpcp {

/// Outcome and diagnostics of a 2PCP run.
struct TwoPhaseCpResult {
  /// The stitched rank-F decomposition of the full tensor.
  KruskalTensor decomposition;

  // Phase 1.
  double phase1_seconds = 0.0;
  int64_t blocks_decomposed = 0;
  double phase1_mean_block_fit = 0.0;

  // Phase 2.
  double phase2_seconds = 0.0;
  int virtual_iterations = 0;
  bool converged = false;
  double surrogate_fit = 0.0;
  std::vector<double> fit_trace;  // surrogate fit per virtual iteration
  BufferStats buffer_stats;
  double swaps_per_virtual_iteration = 0.0;
  /// First Phase-2 virtual iteration of this run (> 0 when the refinement
  /// resumed from a checkpoint left by a cancelled run).
  int phase2_start_iteration = 0;
};

/// Orchestrates the two phases over Env-resident block data.
class TwoPhaseCp {
 public:
  /// `input` supplies the tensor blocks; `factors` receives the Phase-1
  /// block factors and the evolving sub-factors. Both must outlive this.
  TwoPhaseCp(BlockTensorStore* input, BlockFactorStore* factors,
             TwoPhaseCpOptions options);

  /// Phase 1: decompose every block independently (optionally in parallel).
  /// With options.cancel set, the token is polled between blocks and the
  /// phase returns Status::Cancelled; already-written block factors are
  /// simply rewritten (deterministically) by the next attempt.
  Status RunPhase1(ThreadPool* pool = nullptr);

  /// Marks Phase 1 as already completed — the block factors were staged
  /// into the factor store externally (e.g. by Phase1ViaMapReduce, or
  /// copied from another run). RunPhase2 may then be called directly.
  void AssumePhase1Factors() { phase1_done_ = true; }

  /// Phase 2: schedule-driven iterative refinement under the buffer budget,
  /// delegated to Phase2Engine. options.prefetch_depth sets how far ahead
  /// the data path loads (see buffer/prefetch_pipeline.h); results are
  /// identical for every depth.
  Status RunPhase2();

  /// Runs both phases and assembles the final KruskalTensor. With
  /// options.resume_phase2 set, Phase 1 is skipped — the block factors
  /// persisted by the interrupted (or completed) earlier run are reused —
  /// and Phase 2 continues from its manifest checkpoint if one exists.
  Result<KruskalTensor> Run(ThreadPool* pool = nullptr);

  const TwoPhaseCpResult& result() const { return result_; }

 private:
  Status AssembleResult();

  BlockTensorStore* input_;
  BlockFactorStore* factors_;
  TwoPhaseCpOptions options_;
  TwoPhaseCpResult result_;
  bool phase1_done_ = false;
};

}  // namespace tpcp

#endif  // TPCP_CORE_TWO_PHASE_CP_H_
