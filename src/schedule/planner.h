// The Phase-2 execution planner: maps (schedule × buffer budget × plan
// options) to an ExecutionPlan (schedule/execution_plan.h).
//
// Planning runs three passes:
//
//  1. Conflict-aware reordering (optional). Within a sliding window over
//     the cycle (one virtual iteration long), same-mode steps on
//     pairwise-distinct partitions are hoisted into contiguous runs — the
//     widened conflict-free waves that let block-centric schedules
//     (FO/ZO/HO), whose native cycles interleave modes and segment into
//     singletons, finally parallelize across steps. The pass preserves
//     the per-mode (hence per-unit) relative order of steps and the
//     per-cycle step multiset, so the reordered sequence is still a
//     tensor-filling cyclic schedule.
//  2. Swap-parity certification (optional). A reordered cycle is only
//     adopted when an exact replay through the swap simulator
//     (core/swap_simulator.h) shows its steady-state swap count does not
//     exceed the source order's under the run's own policy and buffer
//     budget — reordering widens parallelism without giving up the
//     swap-optimality that motivated the block-centric schedules. Wider
//     waves concentrate more distinct units, so a tight buffer may fail
//     the widest window; the planner then ladders down through halved
//     windows and adopts the widest certified candidate, falling back to
//     the source order when none passes (the evaluated candidate's
//     numbers stay in PlanStats for reporting).
//  3. Wave assembly. The (possibly reordered) cycle is segmented into
//     maximal conflict-free waves (schedule/conflict.h); each wave gets
//     its prefetch directive (last step + prefetch depth) and eviction
//     hints (units whose next use is at least one virtual iteration out),
//     both derived from one shared next-use oracle.
//
// Everything here is deterministic: two Build calls with equal inputs
// return plans with equal fingerprints, which is what makes checkpointed
// cancel→resume replay exact.

#ifndef TPCP_SCHEDULE_PLANNER_H_
#define TPCP_SCHEDULE_PLANNER_H_

#include "buffer/data_unit.h"
#include "buffer/replacement_policy.h"
#include "schedule/execution_plan.h"

namespace tpcp {

/// Inputs that shape a plan. Math-shaping fields (reorder and — through
/// certification — rank/policy/buffer_bytes) select the step order;
/// prefetch_depth only shapes the waves' prefetch directives.
struct PlannerOptions {
  /// Rank used to size data units for the certification replay.
  int64_t rank = 10;
  /// Replacement policy the run will use (certification replays it).
  PolicyType policy = PolicyType::kForward;
  /// Effective buffer capacity in bytes (>= the largest unit). Required
  /// for certification; 0 disables it.
  uint64_t buffer_bytes = 0;

  /// Run the conflict-aware reordering pass.
  bool reorder = false;

  /// Prefetch depth of the run (0 = no lookahead, all I/O inline).
  int prefetch_depth = 0;

  /// Give LRU/MRU the schedule's next-use oracle as victim advice
  /// (TwoPhaseCpOptions::policy_victim_hints). Certification replays the
  /// same advised policy, so the parity gate models the run's real
  /// eviction behavior.
  bool victim_hints = false;

  /// Simulate swap counts (fills PlanStats; gates reordering). Skipping
  /// certification adopts a requested reorder unverified — benches and
  /// tests only. Certification replays whole cycles: the trace is
  /// cycle-periodic, so cycle-aligned windows measure the true steady
  /// state (vi-aligned windows would not when vi_len ∤ cycle_length).
  bool certify = true;
  int certify_warmup_cycles = 2;
  int certify_measure_cycles = 2;
};

class Planner {
 public:
  /// Builds the plan for `schedule` under `options`. Deterministic: equal
  /// inputs yield plans with equal fingerprints.
  static ExecutionPlan Build(const UpdateSchedule& schedule,
                             const PlannerOptions& options);
};

/// Exchange traffic of one worker over a span of plan positions, counted
/// in logical matrix bytes (8 bytes per entry; framing and base64 overhead
/// excluded, so the executor's own logical counters can match exactly).
struct WorkerTraffic {
  /// Bytes this worker uploads to the coordinator (metadata images of its
  /// owned steps, plus sub-factor persists when accounted separately).
  uint64_t up_bytes = 0;
  /// Bytes the coordinator relays down to this worker (metadata images of
  /// every step it does not own).
  uint64_t down_bytes = 0;
  /// Exchange messages: one per owned step (up) ...
  int64_t up_messages = 0;
  /// ... and one per non-owned step (down).
  int64_t down_messages = 0;

  WorkerTraffic& operator+=(const WorkerTraffic& other) {
    up_bytes += other.up_bytes;
    down_bytes += other.down_bytes;
    up_messages += other.up_messages;
    down_messages += other.down_messages;
    return *this;
  }
};

/// The distribution layer over one ExecutionPlan: a deterministic, disjoint
/// and exhaustive ownership map plus the exchange-message schedule it
/// implies.
///
/// Ownership is *weighted*: each data unit's weight is its per-cycle step
/// count times its slab+factor bytes (the worker-local work and I/O the
/// unit induces), and units are assigned greedily — heaviest first — to the
/// least-loaded worker (longest-processing-time balance). Ties break
/// deterministically (weight desc, then mode asc, part asc; least-loaded
/// worker, lowest id first), so coordinator and workers rebuild the exact
/// same map from (plan, rank, N) independently. On uniform grids this
/// degenerates to round-robin; on skewed grids it keeps one giant
/// partition from pacing the fleet. The map is a fingerprinted plan
/// property (ownership_fingerprint) validated at worker hello and on
/// checkpoint resume — a resume under a different map would re-price the
/// ledger and break the measured==predicted invariant silently.
///
/// The dist executor's contract falls out of the update's data flow: a step
/// on ⟨i,ki⟩ writes its own A and U-slab (bulk data only its owner ever
/// touches) and refreshes metadata every worker mirrors — the Gram matrix
/// G^(i)_(ki) and the slab's M^(i)_l = U_lᵀ A_l products, all F×F. So after
/// each wave the owner of each step uploads that step's metadata image and
/// the coordinator relays it to every other worker; sub-factors themselves
/// travel only at persist (checkpoint) boundaries, owner → coordinator.
/// This class prices both flows exactly, which is what lets the cluster
/// cost model's predicted bytes equal the executor's measured counters.
class DistributedPlan {
 public:
  /// `plan` must outlive this object. `rank` sizes the exchanged matrices
  /// (the plan itself is rank-agnostic); `num_workers` >= 1.
  DistributedPlan(const ExecutionPlan* plan, int64_t rank, int num_workers);

  int num_workers() const { return num_workers_; }
  const ExecutionPlan& plan() const { return *plan_; }

  /// Owner of a data unit under the weighted ownership map.
  int OwnerOf(const ModePartition& unit) const {
    return owner_[static_cast<size_t>(UnitIndex(unit))];
  }
  /// Owner of the step at plan position `pos`.
  int OwnerAt(int64_t pos) const { return OwnerOf(plan_->UnitAt(pos)); }

  /// FNV-1a hash over (num_workers, every unit's owner in mode-major
  /// order). Workers echo it in their ready message and checkpoints record
  /// it, so a fleet or resume under a different map is rejected instead of
  /// silently re-pricing the ledger. Never 0 (0 means "not recorded").
  uint64_t ownership_fingerprint() const { return ownership_fingerprint_; }

  /// Logical bytes of the metadata image the step at `pos` publishes:
  /// G (F×F) plus one M (F×F) per slab block of the step's mode.
  uint64_t StepExchangeBytes(int64_t pos) const;

  /// Logical bytes of the sub-factor A of `unit` (a persist upload).
  uint64_t FactorBytes(const ModePartition& unit) const {
    return catalog_.FactorBytes(unit);
  }

  /// Liveness of the metadata image published at absolute position `pos`
  /// for non-owner `worker`: true when the worker actually reads the image
  /// before the unit's next refresh supersedes it. An image is read by
  ///
  ///  - every worker's surrogate-fit evaluation when a virtual-iteration
  ///    boundary falls inside the image's lifetime (pos, next_refresh] —
  ///    SurrogateFit walks the complete metadata state, and fits must stay
  ///    bitwise equal across workers; and
  ///  - any step of a *different* mode inside (pos, next_refresh): every
  ///    cross-mode step's slab intersects the image's slab, while same-mode
  ///    steps never read mode-i metadata at all.
  ///
  /// Everything else is a dead absorb the relay can prune. Mode-centric
  /// schedules refresh each unit exactly once per virtual iteration, so
  /// every image there is fit-live and pruning is a provable no-op; the
  /// wins come from block-centric schedules, whose units refresh once per
  /// slab block per cycle.
  bool ImageLiveFor(int64_t pos, int worker) const;

  /// Metadata exchange traffic of `worker` over plan positions
  /// [begin, end): one upload per owned step, one download per non-owned
  /// step whose image is live for this worker (ImageLiveFor). Persist
  /// uploads are priced separately by PersistBytesForRange.
  WorkerTraffic TrafficForRange(int worker, int64_t begin, int64_t end) const;

  /// Sub-factor bytes `worker` uploads at a persist boundary covering plan
  /// positions [begin, end): each owned unit updated in the range, once.
  uint64_t PersistBytesForRange(int worker, int64_t begin, int64_t end) const;

  /// Grep-able per-worker summary ("dist:" lines).
  std::string Summary() const;

 private:
  /// Flat index of `unit` in mode-major (mode, part) order.
  int64_t UnitIndex(const ModePartition& unit) const {
    return owner_offset_[static_cast<size_t>(unit.mode)] + unit.part;
  }

  const ExecutionPlan* plan_;
  UnitCatalog catalog_;
  int num_workers_;
  /// Per-mode offsets into owner_ (mode-major unit indexing).
  std::vector<int64_t> owner_offset_;
  /// Owner of every unit, mode-major.
  std::vector<int> owner_;
  uint64_t ownership_fingerprint_ = 0;
  /// Metadata-image bytes per cycle position (cycle-periodic).
  std::vector<uint64_t> step_bytes_;
  /// Steps until the unit updated at each cycle position is next updated
  /// (cycle-periodic; in [1, cycle_length]).
  std::vector<int64_t> next_refresh_delta_;
  /// Bitmask (bit w = worker w) of workers owning a different-mode step
  /// strictly inside each position's refresh window (cycle-periodic).
  std::vector<uint64_t> reader_mask_;
};

/// The reordering pass alone (exposed for tests and benches): permutes
/// `cycle` by hoisting, within each leading window of `window` steps,
/// same-mode steps on distinct partitions into contiguous runs. Preserves
/// the relative order of same-mode steps.
std::vector<UpdateStep> ReorderCycleForWidth(
    const std::vector<UpdateStep>& cycle, int64_t window);

}  // namespace tpcp

#endif  // TPCP_SCHEDULE_PLANNER_H_
