// The Phase-2 execution plan: the single, immutable description of *how*
// one refinement run executes a schedule — computed once by the Planner
// (schedule/planner.h) and then executed verbatim by every consumer.
//
// Before the plan existed, three layers re-derived overlapping pieces of
// the same structure ad hoc: the engine segmented the cycle into
// conflict-free batches, the prefetch pipeline kept its own lookahead
// window bookkeeping, and the replacement policy rebuilt a next-use oracle
// from the schedule. The plan computes all of it up front, from one
// (possibly reordered) step sequence, so the pieces can never disagree:
//
//  - an ordered step sequence (`schedule()`): the source cycle, optionally
//    permuted by the planner's conflict-aware reordering pass;
//  - waves: the maximal conflict-free step batches of that sequence, each
//    carrying its common mode and eviction hints (units going dead after
//    the wave — exactly what the forward policy will pick as victims);
//    the async pipeline reserves units in this order, `prefetch_depth()`
//    steps ahead of the step in flight;
//  - one next-use oracle (`lookahead()`), shared by the forward
//    replacement policy and the hint computation.
//
// Determinism rule: the plan's *step order* — the math-shaping part — is
// a pure function of (schedule, reorder option, certification inputs:
// rank/policy/buffer budget). It never depends on compute threads or
// prefetch depth, which only shape waves' execution; so factors and fit
// traces are bit-identical for every compute_threads × prefetch_depth
// combination executing one plan, and a resume replaying the same plan
// (fingerprint-checked) continues exactly.

#ifndef TPCP_SCHEDULE_EXECUTION_PLAN_H_
#define TPCP_SCHEDULE_EXECUTION_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "schedule/lookahead.h"
#include "schedule/update_schedule.h"

namespace tpcp {

/// One conflict-free wave of the plan: cycle positions [begin, end). All
/// steps share `mode` and have pairwise-distinct partitions, so they may
/// execute concurrently with bit-identical results.
struct PlanWave {
  int64_t begin = 0;
  int64_t end = 0;
  /// The one mode every step of the wave updates.
  int mode = 0;
  /// Units this wave touches whose next use lies at least one virtual
  /// iteration beyond the wave — dead for the near future, the exact
  /// victims the forward policy will choose. Recorded for observability
  /// (plan summaries) and tests; the policy consumes the same lookahead.
  std::vector<ModePartition> evict_hints;

  int64_t size() const { return end - begin; }
};

/// Planning outcome statistics (certification + width accounting).
struct PlanStats {
  bool reorder_requested = false;
  /// True when a reordered cycle was adopted (certification passed, or
  /// certification was explicitly skipped).
  bool reorder_applied = false;
  /// The window (in steps) of the adopted reordering; 0 when none was
  /// adopted. One virtual iteration unless a tight buffer failed its
  /// parity gate: the planner then ladders down through halved windows.
  int64_t reorder_window = 0;
  /// True when the swap simulation ran (certify option + a buffer budget).
  bool certified = false;
  /// Simulated swaps per virtual iteration of the source order.
  double swaps_before = 0.0;
  /// Simulated swaps per virtual iteration of the reordered candidate
  /// (== swaps_before when no reordering was requested).
  double swaps_after = 0.0;
  int64_t max_width_before = 0;
  int64_t max_width_after = 0;

  /// Swaps/vi of the order the plan actually executes.
  double effective_swaps() const {
    return reorder_applied ? swaps_after : swaps_before;
  }
};

/// Immutable execution plan over one schedule. Build with Planner::Build.
class ExecutionPlan {
 public:
  ExecutionPlan(UpdateSchedule schedule, std::vector<PlanWave> waves,
                int prefetch_depth,
                std::shared_ptr<const ScheduleLookahead> lookahead,
                PlanStats stats);

  /// The executable step sequence (the reordered cycle when reordering was
  /// adopted). Consumers must drive *this* schedule — its cycle order is
  /// the plan's identity.
  const UpdateSchedule& schedule() const { return schedule_; }

  const std::vector<PlanWave>& waves() const { return waves_; }
  const PlanStats& stats() const { return stats_; }

  int64_t cycle_length() const { return schedule_.cycle_length(); }
  int64_t virtual_iteration_length() const {
    return schedule_.virtual_iteration_length();
  }
  int prefetch_depth() const { return prefetch_depth_; }

  const UpdateStep& StepAt(int64_t pos) const {
    return schedule_.StepAt(pos);
  }
  ModePartition UnitAt(int64_t pos) const { return schedule_.UnitAt(pos); }

  /// The wave containing global position `pos` (the segmentation repeats
  /// every cycle; positions are cycle-relative inside the returned wave).
  const PlanWave& WaveAt(int64_t pos) const;

  /// First global position after the wave containing `pos`. Same
  /// cycle-boundary contract as ConflictAnalysis::BatchEndAfter: a cursor
  /// at exactly k·cycle_length belongs to cycle k's *first* wave, so the
  /// result is strictly greater than `pos` — a resumed run never executes
  /// an empty wave.
  int64_t WaveEndAfter(int64_t pos) const;

  int64_t max_wave_width() const { return stats_.max_width_after; }

  /// The next-use oracle over the plan's order, shared with the forward
  /// replacement policy so victim choice and hints agree by construction.
  const std::shared_ptr<const ScheduleLookahead>& lookahead() const {
    return lookahead_;
  }

  /// Hash of everything math-shaping (step order, grid geometry).
  /// Recorded in Phase-2 checkpoints; a resume whose rebuilt plan
  /// fingerprints differently is rejected instead of silently diverging.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Grep-able multi-line summary: a `plan:` header line, a `plan:`
  /// parity line, and the first `max_waves` per-wave lines.
  std::string Summary(int64_t max_waves = 8) const;

 private:
  UpdateSchedule schedule_;
  std::vector<PlanWave> waves_;
  std::vector<size_t> wave_of_;  // cycle position -> index into waves_
  int prefetch_depth_;
  std::shared_ptr<const ScheduleLookahead> lookahead_;
  PlanStats stats_;
  uint64_t fingerprint_ = 0;
};

}  // namespace tpcp

#endif  // TPCP_SCHEDULE_EXECUTION_PLAN_H_
