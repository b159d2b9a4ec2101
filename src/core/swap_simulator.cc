#include "core/swap_simulator.h"

#include <algorithm>

namespace tpcp {
namespace {

/// The one replay loop every entry point shares: a `buffer_bytes` pool
/// (clamped up to the largest unit) warmed over `warmup_steps` positions,
/// then measured over `measure_steps` more. When `owned` is set, only the
/// positions whose unit it selects are accessed, each at its global
/// position. Returns the measured stats.
BufferStats ReplaySteps(
    const UpdateSchedule& schedule, int64_t rank, PolicyType policy,
    uint64_t buffer_bytes, int64_t warmup_steps, int64_t measure_steps,
    bool victim_hints, uint64_t* effective_buffer_bytes = nullptr,
    const std::function<bool(const ModePartition&)>& owned = nullptr) {
  UnitCatalog catalog(schedule.grid(), rank);
  const uint64_t capacity =
      std::max(buffer_bytes, catalog.MaxUnitBytes());
  if (effective_buffer_bytes != nullptr) {
    *effective_buffer_bytes = capacity;
  }
  BufferPool pool(capacity, catalog,
                  NewPolicy(policy, &schedule, nullptr, victim_hints));
  const auto replay = [&](int64_t begin, int64_t end) {
    for (int64_t pos = begin; pos < end; ++pos) {
      const ModePartition unit = schedule.UnitAt(pos);
      if (owned != nullptr && !owned(unit)) continue;
      const Status s = pool.Access(unit, pos);
      TPCP_CHECK(s.ok()) << s.ToString();
    }
  };
  replay(0, warmup_steps);
  pool.ResetStats();
  replay(warmup_steps, warmup_steps + measure_steps);
  return pool.stats();
}

}  // namespace

SwapSimResult SimulateSwapsForSchedule(const UpdateSchedule& schedule,
                                       int64_t rank, PolicyType policy,
                                       uint64_t buffer_bytes,
                                       int warmup_cycles,
                                       int measure_virtual_iterations,
                                       bool victim_hints) {
  SwapSimResult result;
  result.total_requirement_bytes =
      UnitCatalog(schedule.grid(), rank).TotalBytes();
  result.stats = ReplaySteps(
      schedule, rank, policy, buffer_bytes,
      static_cast<int64_t>(warmup_cycles) * schedule.cycle_length(),
      static_cast<int64_t>(measure_virtual_iterations) *
          schedule.virtual_iteration_length(),
      victim_hints, &result.buffer_bytes);
  result.measured_swaps = result.stats.swap_ins;
  result.measured_virtual_iterations = measure_virtual_iterations;
  result.swaps_per_virtual_iteration =
      static_cast<double>(result.measured_swaps) /
      static_cast<double>(measure_virtual_iterations);
  return result;
}

double SimulateSteadyStateSwapsPerVi(const UpdateSchedule& schedule,
                                     int64_t rank, PolicyType policy,
                                     uint64_t buffer_bytes,
                                     int warmup_cycles, int measure_cycles,
                                     bool victim_hints) {
  return SimulateOwnedSteadyStateSwapsPerVi(
      schedule, rank, policy, buffer_bytes, warmup_cycles, measure_cycles,
      victim_hints, nullptr);
}

double SimulateOwnedSteadyStateSwapsPerVi(
    const UpdateSchedule& schedule, int64_t rank, PolicyType policy,
    uint64_t buffer_bytes, int warmup_cycles, int measure_cycles,
    bool victim_hints,
    const std::function<bool(const ModePartition&)>& owned) {
  const int64_t measure_steps =
      static_cast<int64_t>(measure_cycles) * schedule.cycle_length();
  const BufferStats stats = ReplaySteps(
      schedule, rank, policy, buffer_bytes,
      static_cast<int64_t>(warmup_cycles) * schedule.cycle_length(),
      measure_steps, victim_hints, nullptr, owned);
  return static_cast<double>(stats.swap_ins) *
         static_cast<double>(schedule.virtual_iteration_length()) /
         static_cast<double>(measure_steps);
}

SwapSimResult SimulateSwaps(const SwapSimConfig& config) {
  const UpdateSchedule schedule =
      UpdateSchedule::Create(config.schedule, config.grid);
  UnitCatalog catalog(config.grid, config.rank);
  const uint64_t buffer_bytes = static_cast<uint64_t>(
      config.buffer_fraction *
      static_cast<double>(catalog.TotalBytes()));
  return SimulateSwapsForSchedule(schedule, config.rank, config.policy,
                                  buffer_bytes, config.warmup_cycles,
                                  config.measure_virtual_iterations,
                                  config.victim_hints);
}

}  // namespace tpcp
