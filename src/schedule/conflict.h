// Conflict analysis over update schedules: segmentation of a cycle into
// maximal conflict-free step batches (the unit of Phase-2 compute
// parallelism).
//
// Two update steps are *conflict-free* when executing them concurrently —
// in any interleaving — produces bit-identical state to executing them in
// schedule order. For the Eq.-3 update rule the criterion is exact:
//
//   A step on unit ⟨i, ki⟩ writes A^(i)_(ki), G^(i)_(ki) and M^(i)_l for
//   the blocks l of its slab (l_i = ki), and reads M^(h)_l (h != i) for
//   those blocks plus G^(h)_(l_h) for h != i. Two steps on the SAME mode
//   but DIFFERENT partitions therefore touch disjoint slabs, sub-factors,
//   Grams and M entries — neither reads anything the other writes (the
//   update never consults mode-i metadata while updating mode i) — so they
//   commute exactly, including floating point. Steps on different modes
//   always conflict: a mode-i step reads G^(h) entries and M-columns a
//   mode-h step rewrites. Steps on the same unit trivially conflict.
//
// A *batch* is thus a maximal contiguous run of same-mode steps with
// pairwise-distinct partitions. Mode-centric schedules decompose into one
// batch per mode (width K_i — wide parallelism); block-centric schedules
// (fiber/Z/Hilbert order) interleave modes at every block and decompose
// into singletons (the engine then degrades to serial steps, still
// deterministic). Batches never span the cycle boundary, so batch
// segmentation — and with it every parallel execution — is a pure function
// of the schedule, independent of buffer budget or thread count.

#ifndef TPCP_SCHEDULE_CONFLICT_H_
#define TPCP_SCHEDULE_CONFLICT_H_

#include <vector>

#include "schedule/update_schedule.h"

namespace tpcp {

/// One conflict-free batch: cycle positions [begin, end).
struct StepBatch {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
};

/// Segmentation of a schedule's cycle into maximal conflict-free batches.
class ConflictAnalysis {
 public:
  /// Segments `schedule`'s cycle. The schedule must outlive the analysis.
  explicit ConflictAnalysis(const UpdateSchedule& schedule);

  /// The batches, in cycle order; they tile [0, cycle_length) exactly.
  const std::vector<StepBatch>& batches() const { return batches_; }

  /// First position after the batch containing global position `pos`
  /// (pos >= 0; the segmentation repeats every cycle). All steps in
  /// [pos, BatchEndAfter(pos)) are pairwise conflict-free — a tail of a
  /// conflict-free batch is conflict-free, so a resume cursor landing
  /// mid-batch simply starts with a shorter batch.
  ///
  /// Cycle-boundary contract: a cursor at exactly k·cycle_length is the
  /// *first step of cycle k* and therefore belongs to that cycle's first
  /// batch — the result is k·cycle_length + first_batch_end, strictly
  /// greater than `pos`. It never refers back to the completed batch that
  /// *ended* at `pos`, so a run resuming from a checkpoint cut at a cycle
  /// boundary executes a real (non-empty) batch, not a stale tail.
  int64_t BatchEndAfter(int64_t pos) const;

  /// Width of the widest batch — the schedule's peak step parallelism.
  int64_t max_batch_size() const { return max_batch_size_; }

 private:
  std::vector<StepBatch> batches_;
  /// batch_end_[p] = end (cycle position) of the batch containing p.
  std::vector<int64_t> batch_end_;
  int64_t cycle_length_ = 0;
  int64_t max_batch_size_ = 0;
};

}  // namespace tpcp

#endif  // TPCP_SCHEDULE_CONFLICT_H_
