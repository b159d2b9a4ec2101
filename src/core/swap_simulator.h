// Exact data-swap simulation (reproduces Figure 12).
//
// Because every factor update touches exactly one data unit, the number of
// per-virtual-iteration swaps depends only on the grid, the schedule, the
// replacement policy, and the buffer size relative to the total space
// requirement — not on the data (the paper makes the same observation).
// This simulator replays the schedule's unit-access trace through the
// BufferPool's count-only Access (no data moves) and reports steady-state
// swap rates. Every entry point shares one replay loop; the per-worker
// variant only filters it by ownership.

#ifndef TPCP_CORE_SWAP_SIMULATOR_H_
#define TPCP_CORE_SWAP_SIMULATOR_H_

#include <functional>

#include "buffer/buffer_pool.h"
#include "schedule/update_schedule.h"

namespace tpcp {

/// One simulated configuration.
struct SwapSimConfig {
  GridPartition grid;
  int64_t rank = 100;
  ScheduleType schedule = ScheduleType::kZOrder;
  PolicyType policy = PolicyType::kLru;
  /// Buffer capacity as a fraction of the total space requirement.
  double buffer_fraction = 1.0 / 3.0;
  /// Virtual iterations measured after warm-up.
  int measure_virtual_iterations = 100;
  /// Full schedule cycles replayed before measuring (the replayed trace is
  /// periodic, so steady state is reached within one cycle).
  int warmup_cycles = 2;
  /// Model LRU/MRU with the plan's eviction hints as victim advice — the
  /// same NewPolicy flag the engine sets for policy_victim_hints runs, so
  /// the simulated and measured policies agree.
  bool victim_hints = false;
};

/// Simulation outcome.
struct SwapSimResult {
  double swaps_per_virtual_iteration = 0.0;
  uint64_t measured_swaps = 0;
  int measured_virtual_iterations = 0;
  uint64_t buffer_bytes = 0;
  uint64_t total_requirement_bytes = 0;
  BufferStats stats;
};

/// Replays the configured schedule and returns steady-state swap counts.
SwapSimResult SimulateSwaps(const SwapSimConfig& config);

/// Replays an *explicit* schedule — e.g. the execution planner's reordered
/// cycle — against a `buffer_bytes`-sized pool (clamped up to the largest
/// unit) and returns steady-state swap counts. SimulateSwaps is this with
/// the schedule built from the config; the planner uses it directly to
/// certify that a reordered cycle's swap count does not exceed the
/// original's (swap parity).
SwapSimResult SimulateSwapsForSchedule(const UpdateSchedule& schedule,
                                       int64_t rank, PolicyType policy,
                                       uint64_t buffer_bytes,
                                       int warmup_cycles,
                                       int measure_virtual_iterations,
                                       bool victim_hints = false);

/// Steady-state swaps per virtual iteration of `schedule`, measured over
/// `measure_cycles` *whole* cycles (after `warmup_cycles`) and averaged as
/// swaps · vi_len / steps. The replayed trace is cycle-periodic, so a
/// cycle-aligned window is exact regardless of whether the
/// virtual-iteration length divides the cycle — a vi-aligned window is
/// not, and two orders certified equal on one vi window could differ on
/// another. Swap-parity comparisons (planner certification, parity
/// benches) must use this.
double SimulateSteadyStateSwapsPerVi(const UpdateSchedule& schedule,
                                     int64_t rank, PolicyType policy,
                                     uint64_t buffer_bytes,
                                     int warmup_cycles, int measure_cycles,
                                     bool victim_hints = false);

/// Per-worker variant for the cluster simulator: replays only the plan
/// positions whose unit `owned` selects (one worker's slice of the
/// ownership map; null selects every unit, which is
/// SimulateSteadyStateSwapsPerVi) against a worker-local pool of the same
/// budget, keeping the *global* position for each access so the next-use
/// oracle sees the plan's real clock — as a dist worker's pipeline does.
/// Returns steady-state swaps per virtual iteration of that worker's
/// slice, normalized over the same cycle-aligned window as the
/// single-node function (so Σ over workers of any disjoint+exhaustive
/// ownership split equals the global number).
double SimulateOwnedSteadyStateSwapsPerVi(
    const UpdateSchedule& schedule, int64_t rank, PolicyType policy,
    uint64_t buffer_bytes, int warmup_cycles, int measure_cycles,
    bool victim_hints,
    const std::function<bool(const ModePartition&)>& owned);

}  // namespace tpcp

#endif  // TPCP_CORE_SWAP_SIMULATOR_H_
