#include "core/cost_model.h"

#include <algorithm>
#include <sstream>

#include "core/swap_simulator.h"
#include "util/format.h"

namespace tpcp {

uint64_t CostModel::ExchangeBytesPerIteration(
    double swaps_per_iteration) const {
  const int64_t units = catalog_.grid().SumParts();
  const double avg_unit =
      static_cast<double>(catalog_.TotalBytes()) / static_cast<double>(units);
  return static_cast<uint64_t>(swaps_per_iteration * avg_unit);
}

std::string CostModel::ToString() const {
  return "mem_total=" + HumanBytes(TotalRefinementBytes()) +
         " mem_MP=" + HumanBytes(PerModePartitionBytes()) +
         " naive_swaps/iter=" + std::to_string(NaiveSwapsPerIteration());
}

std::string ClusterWorkerCost::ToString() const {
  std::ostringstream out;
  out << "cluster: worker " << worker << " swaps/vi=" << swaps_per_vi
      << " xchg_up/vi=" << xchg_up_bytes_per_vi
      << " xchg_down/vi=" << xchg_down_bytes_per_vi
      << " persist/vi=" << persist_bytes_per_vi
      << " transfer_s/vi=" << transfer_seconds_per_vi;
  return out.str();
}

std::vector<ClusterWorkerCost> SimulateCluster(const DistributedPlan& dplan,
                                               int64_t rank,
                                               const ClusterSimConfig& config) {
  const ExecutionPlan& plan = dplan.plan();
  const UpdateSchedule& schedule = plan.schedule();
  const int64_t cycle = plan.cycle_length();
  const int64_t vi_len = plan.virtual_iteration_length();
  const double vi_scale =
      static_cast<double>(vi_len) / static_cast<double>(cycle);
  // Persist windows repeat with period lcm(vi, cycle); averaging the first
  // ⌈cycle/vi⌉ windows covers every cycle position at least once and stays
  // cheap for plans whose lcm is large.
  const int64_t persist_windows = (cycle + vi_len - 1) / vi_len;

  std::vector<ClusterWorkerCost> costs;
  costs.reserve(static_cast<size_t>(config.num_workers));
  for (int worker = 0; worker < config.num_workers; ++worker) {
    ClusterWorkerCost cost;
    cost.worker = worker;
    cost.swaps_per_vi = SimulateOwnedSteadyStateSwapsPerVi(
        schedule, rank, config.policy, config.buffer_bytes,
        config.warmup_cycles, config.measure_cycles, config.victim_hints,
        [&dplan, worker](const ModePartition& unit) {
          return dplan.OwnerOf(unit) == worker;
        });
    const WorkerTraffic traffic = dplan.TrafficForRange(worker, 0, cycle);
    cost.xchg_up_bytes_per_vi =
        static_cast<double>(traffic.up_bytes) * vi_scale;
    cost.xchg_down_bytes_per_vi =
        static_cast<double>(traffic.down_bytes) * vi_scale;
    cost.messages_per_vi =
        static_cast<double>(traffic.up_messages + traffic.down_messages) *
        vi_scale;
    uint64_t persist_total = 0;
    for (int64_t k = 0; k < persist_windows; ++k) {
      persist_total +=
          dplan.PersistBytesForRange(worker, k * vi_len, (k + 1) * vi_len);
    }
    cost.persist_bytes_per_vi = static_cast<double>(persist_total) /
                                static_cast<double>(persist_windows);
    // A persist is one more message per vi from this worker.
    cost.transfer_seconds_per_vi = config.link.TransferSeconds(
        static_cast<uint64_t>(cost.xchg_up_bytes_per_vi +
                              cost.xchg_down_bytes_per_vi +
                              cost.persist_bytes_per_vi),
        static_cast<int64_t>(cost.messages_per_vi) + 1);
    costs.push_back(cost);
  }
  return costs;
}

std::string ClusterOverlapCost::ToString() const {
  std::ostringstream out;
  out << "cluster-wall: workers=" << num_workers
      << " wall_s/vi=" << pipelined_seconds_per_vi;
  return out.str();
}

ClusterOverlapCost SimulateClusterOverlap(const DistributedPlan& dplan,
                                          int64_t rank,
                                          const ClusterSimConfig& config) {
  const ExecutionPlan& plan = dplan.plan();
  const UpdateSchedule& schedule = plan.schedule();
  const int64_t cycle = plan.cycle_length();
  const int64_t vi_len = plan.virtual_iteration_length();
  const int workers = config.num_workers;

  // Per-worker seconds per owned step: the flat step cost plus this
  // worker's steady-state swap I/O amortized over its own steps (swaps are
  // where skewed ownership actually costs time).
  std::vector<double> step_seconds(static_cast<size_t>(workers),
                                   config.seconds_per_step);
  for (int v = 0; v < workers; ++v) {
    int64_t owned_steps = 0;
    for (int64_t pos = 0; pos < cycle; ++pos) {
      if (dplan.OwnerAt(pos) == v) ++owned_steps;
    }
    if (owned_steps == 0) continue;
    const double swaps_per_cycle =
        SimulateOwnedSteadyStateSwapsPerVi(
            schedule, rank, config.policy, config.buffer_bytes,
            config.warmup_cycles, config.measure_cycles,
            config.victim_hints,
            [&dplan, v](const ModePartition& unit) {
              return dplan.OwnerOf(unit) == v;
            }) *
        static_cast<double>(cycle) / static_cast<double>(vi_len);
    step_seconds[static_cast<size_t>(v)] +=
        swaps_per_cycle * config.seconds_per_swap /
        static_cast<double>(owned_steps);
  }

  // Walk whole virtual iterations covering at least one cycle (wave
  // clipping at vi boundaries depends on the absolute position, so the
  // wave pattern repeats with period lcm(vi, cycle); ⌈cycle/vi⌉ vis cover
  // every cycle position at least once — the same averaging window
  // SimulateCluster uses for persists).
  const int64_t vis = (cycle + vi_len - 1) / vi_len;
  const int64_t span = vis * vi_len;
  double wall = 0.0;
  int64_t pos = 0;
  while (pos < span) {
    const int64_t vi_end = (pos / vi_len + 1) * vi_len;
    const int64_t wave_end = std::min(plan.WaveEndAfter(pos), vi_end);
    // A wave's relay is exactly its ledger entry: every owner's uploads
    // plus every live absorb. A worker uploads one image per owned step,
    // so up_messages also counts its compute.
    double compute = 0.0;
    uint64_t relay_bytes = 0;
    int64_t relay_msgs = 0;
    for (int v = 0; v < workers; ++v) {
      const WorkerTraffic t = dplan.TrafficForRange(v, pos, wave_end);
      compute = std::max(compute, static_cast<double>(t.up_messages) *
                                      step_seconds[static_cast<size_t>(v)]);
      relay_bytes += t.up_bytes + t.down_bytes;
      relay_msgs += t.up_messages + t.down_messages;
    }
    wall += compute + config.link.TransferSeconds(relay_bytes, relay_msgs);
    pos = wave_end;
  }
  // Persist epilogue, once per vi: every worker uploads its updated
  // sub-factors, serialized through the coordinator.
  uint64_t persist_total = 0;
  for (int64_t k = 0; k < vis; ++k) {
    for (int v = 0; v < workers; ++v) {
      persist_total +=
          dplan.PersistBytesForRange(v, k * vi_len, (k + 1) * vi_len);
    }
  }
  wall += config.link.TransferSeconds(persist_total, vis * workers);

  ClusterOverlapCost cost;
  cost.num_workers = workers;
  cost.pipelined_seconds_per_vi = wall / static_cast<double>(vis);
  return cost;
}

}  // namespace tpcp
