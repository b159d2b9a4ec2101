// Configuration for the 2PCP two-phase decomposition engine.

#ifndef TPCP_CORE_CONFIG_H_
#define TPCP_CORE_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>

#include "buffer/replacement_policy.h"
#include "core/cancellation.h"
#include "cp/cp_als.h"
#include "schedule/update_schedule.h"
#include "util/status.h"

namespace tpcp {

class ProgressObserver;

/// Options controlling both phases of 2PCP.
struct TwoPhaseCpOptions {
  /// Target decomposition rank F.
  int64_t rank = 10;

  // ---- Phase 1: independent block decompositions ----
  /// ALS iterations per block.
  int phase1_max_iterations = 25;
  /// Per-block ALS fit tolerance.
  double phase1_fit_tolerance = 1e-4;
  /// Relative ridge for the per-block Phase-1 ALS solves. Non-zero by
  /// default: blocks whose content cannot support the full rank F (sparse
  /// or thin blocks) would otherwise overfit with huge cancelling
  /// components that destabilize the stitched refinement.
  double phase1_ridge = 1e-3;
  InitMethod init = InitMethod::kRandom;
  uint64_t seed = 1;
  /// Worker threads for Phase 1 (blocks are independent).
  int num_threads = 1;

  // ---- Phase 2: buffered iterative refinement ----
  ScheduleType schedule = ScheduleType::kZOrder;
  PolicyType policy = PolicyType::kForward;
  /// Buffer capacity as a fraction of the total space requirement
  /// (Observation #2). Ignored when buffer_bytes > 0.
  double buffer_fraction = 0.5;
  /// Absolute buffer capacity in bytes (0: use buffer_fraction).
  uint64_t buffer_bytes = 0;
  /// Cap on virtual iterations (Definition 3).
  int max_virtual_iterations = 100;
  /// Stop when the surrogate accuracy improves by less than this per
  /// virtual iteration (the paper uses 1e-2).
  double fit_tolerance = 1e-2;
  /// Relative ridge for the Phase-2 update-rule solves (Eq. 3), same role
  /// as phase1_ridge.
  double refinement_ridge = 1e-3;
  /// Resume Phase 2 from the sub-factors already persisted in the factor
  /// store (e.g. after an interrupted run whose dirty units were flushed)
  /// instead of re-seeding from the Phase-1 block factors.
  bool resume_phase2 = false;
  /// Prefetch lookahead of the Phase-2 pipeline: unit loads for the next
  /// `prefetch_depth` schedule steps are issued on worker threads while
  /// the current update computes, and dirty evictions are written back in
  /// the background. At 0 the pipeline has no lookahead and runs every
  /// load and writeback inline on the compute thread. Any depth produces
  /// identical factors and fit traces — it changes timing, never math.
  int prefetch_depth = 0;
  /// Worker threads moving bytes for the prefetch pipeline (>= 1; unused
  /// at prefetch_depth 0). I/O-bound, so a small number suffices.
  int io_threads = 2;
  /// Worker threads for the Phase-2 refinement *math* (>= 1). The engine
  /// segments the schedule into conflict-free step batches
  /// (schedule/conflict.h) and runs each batch's updates concurrently;
  /// steps in a batch touch disjoint state and commute exactly, so factors
  /// and fit traces are bit-identical for every thread count (and to the
  /// serial engine). Mode-centric schedules expose batches of width K_i;
  /// block-centric schedules (FO/ZO/HO) interleave modes and degrade to
  /// serial steps. Deliberately NOT part of ResumeFingerprint: like
  /// prefetch_depth, it changes timing, never numbers.
  int compute_threads = 1;

  // ---- Phase-2 execution planner (schedule/planner.h) ----
  /// Conflict-aware reordering: the planner permutes each schedule cycle
  /// within a sliding window, hoisting same-mode steps on distinct
  /// partitions into wider conflict-free waves — the pass that lets
  /// block-centric schedules (FO/ZO/HO), whose native cycles segment into
  /// singleton batches, parallelize across steps. The reordered cycle is
  /// adopted only when the swap simulator certifies its swap count does
  /// not exceed the original's under this run's policy and buffer budget.
  /// Math-shaping: a reordered plan is a *different* (deterministic)
  /// update order with its own factors/fit trace — bit-identical across
  /// compute_threads and prefetch_depth, fingerprinted for resume, and
  /// part of ResumeFingerprint. Note that with reordering on, the buffer
  /// budget and policy become math-shaping too (through the certification
  /// outcome); a resume under a different budget is caught by the plan
  /// fingerprint recorded in the checkpoint.
  bool plan_reorder = false;
  /// Automatic reordering default: when plan_reorder is not requested
  /// explicitly, block-centric schedules (FO/ZO/HO and the SN/RND
  /// ablations) run the reordering pass anyway — their native cycles
  /// segment into singleton waves, and the parity gate already protects
  /// tight buffers (an uncertified candidate is rejected and the source
  /// order executes). Mode-centric cycles are already mode-contiguous, so
  /// MC runs are untouched and keep their pre-auto fingerprints. Set
  /// false to pin the source order (tool: --plan-reorder-auto=0).
  bool plan_reorder_auto = true;
  /// Reordering window in schedule steps (0 = one virtual iteration).
  int64_t plan_reorder_window = 0;

  /// The reordering decision the engine (and the resume fingerprint)
  /// actually uses: an explicit plan_reorder, or the block-centric auto
  /// default.
  bool EffectivePlanReorder() const {
    return plan_reorder || (plan_reorder_auto && IsBlockCentric(schedule));
  }
  /// Intra-step sharding: slab blocks per shard for the Eq.-3 slab
  /// accumulation of steps in singleton waves (0 = off). Chunk partials
  /// reduce in slab order, so results are identical for every
  /// compute_threads value — but differ from the unsharded accumulation,
  /// making this math-shaping (fingerprinted) as well.
  int64_t shard_slab_blocks = 0;

  // ---- Kernel arithmetic (linalg/kernels.h) ----
  /// Run the Phase-2 refinement math (Eq.-3 accumulation, Gram / metadata
  /// refresh) with fused multiply-add kernels: one rounding per update
  /// instead of two. Faster on FMA hardware but a *different* rounding
  /// sequence — math-shaping, so it is part of ResumeFingerprint (hashed
  /// only when enabled, preserving pre-FMA checkpoint fingerprints) and a
  /// mismatched resume is rejected. Results are identical across scalar
  /// and SIMD builds either way (std::fma == hardware FMA).
  bool kernel_fma = false;

  /// Let the backward-looking policies (LRU/MRU) consult the execution
  /// plan's next-use oracle as victim advice: units that are dead for at
  /// least one virtual iteration — exactly the plan's eviction hints — are
  /// evicted first, the recency rule breaking ties. I/O-shaping like the
  /// policy choice itself: swap counts change, numbers never do (and the
  /// swap simulator models the same advice, so measured swap counts stay
  /// equal to simulated ones). With plan_reorder on it feeds the
  /// certification replay, where a flipped adoption is caught by the plan
  /// fingerprint, again like the policy.
  bool policy_victim_hints = false;

  /// Wall-clock budget in seconds for solvers that support one (the
  /// naive-oocp baseline reports `timed_out` when it is exceeded, as the
  /// paper's ">12 hours" row does); 0 = unlimited. Ignored by 2PCP itself.
  double max_seconds = 0.0;

  /// Optional progress callbacks (core/progress_observer.h). Non-owning;
  /// must outlive the run. Calls are serialized, so the observer itself
  /// needs no locking.
  ProgressObserver* observer = nullptr;

  /// Optional cooperative cancellation (core/cancellation.h). Non-owning;
  /// must outlive the run. Engines poll it at Phase-1 block and Phase-2
  /// schedule-step boundaries and return Status::Cancelled, leaving the
  /// factor store resumable (dirty units flushed, Phase-2 checkpoint
  /// recorded in the store manifest).
  CancellationToken* cancel = nullptr;

  /// Resolves the effective buffer capacity for a given total requirement.
  uint64_t ResolveBufferBytes(uint64_t total_requirement) const {
    if (buffer_bytes > 0) return buffer_bytes;
    return static_cast<uint64_t>(buffer_fraction *
                                 static_cast<double>(total_requirement));
  }

  /// Fingerprint of every option that shapes the *numbers* a run produces
  /// (rank, seed, init, Phase-1 solve parameters, refinement ridge,
  /// schedule) — deliberately excluding I/O-only knobs (policy, buffer,
  /// prefetch) and run-length knobs (max iterations, tolerances), which
  /// may legitimately differ between a run and its resume. Recorded in
  /// Phase-2 checkpoints so auto-resume only continues a run the new spec
  /// would actually have produced.
  uint64_t ResumeFingerprint() const;

  std::string ToString() const;
};

// ---- options codec ---------------------------------------------------------
//
// The string map is the one serialization of TwoPhaseCpOptions. tpcpd job
// records, the wire protocol's "options" object and the dist init frame all
// carry it, and tpcp_tool's option flags are its keys with '-' for '_'
// (--max-virtual-iterations=40). Its keys and the field comments above
// are the option reference. Round-trip exact: doubles are written with
// %.17g, so
// OptionsFromMap(OptionsToMap(o)) reproduces every field but the observer
// and cancel pointers, and a recovered job or a dist worker runs under the
// same ResumeFingerprint.

/// Every scalar option as a string map (enums by canonical short name,
/// doubles in round-trip precision).
std::map<std::string, std::string> OptionsToMap(
    const TwoPhaseCpOptions& options);

/// Applies `key = value` onto `*options`. InvalidArgument naming the key
/// on an unknown key or unparsable value.
Status ApplyOption(const std::string& key, const std::string& value,
                   TwoPhaseCpOptions* options);

/// The ranges the engine can run: rank, num_threads, compute_threads and
/// io_threads >= 1, prefetch_depth >= 0, max_virtual_iterations >= 1,
/// plan_reorder_window and shard_slab_blocks >= 0, buffer_fraction in
/// (0, 1] unless buffer_bytes is set, max_seconds >= 0. InvalidArgument
/// naming the first option out of range. The tolerances are free: a
/// negative one means "never stop early".
Status ValidateOptions(const TwoPhaseCpOptions& options);

/// Defaults + every entry of `map` via ApplyOption, then ValidateOptions.
Result<TwoPhaseCpOptions> OptionsFromMap(
    const std::map<std::string, std::string>& map);

}  // namespace tpcp

#endif  // TPCP_CORE_CONFIG_H_
