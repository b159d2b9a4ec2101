#include "harness.h"

#include <algorithm>
#include <cmath>

#include "core/phase2_engine.h"
#include "core/swap_simulator.h"
#include "probes.h"
#include "schedule/planner.h"
#include "schedule/update_schedule.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void ReportEndToEnd(const OperationSamples& ops,
                    const std::vector<double>& setup_seconds, Report* report) {
  report->Set("setup_s", Percentile(setup_seconds, kTimingQuantile));
  report->Set("decompose_s", Percentile(ops.seconds, kTimingQuantile));
  report->Set("api.job_p90_s", Percentile(ops.seconds, 0.9));
  const double interval = Percentile(ops.intervals, kTimingQuantile);
  report->Set("jobs_per_s", interval > 0.0 ? 1.0 / interval : 0.0);
  report->Set("process.cpu_s", Median(ops.cpu_seconds));
  report->Set("peak_rss_mib", Median(ops.peak_rss_mib));
}

void ReportStorage(const StorageSnapshot& total, double operations,
                   Report* report) {
  const double n = operations > 0.0 ? operations : 1.0;
  report->Set("storage.read_ops", static_cast<double>(total.read_ops) / n);
  report->Set("storage.read_mib",
              static_cast<double>(total.read_bytes) / kMiB / n);
  report->Set("storage.read_s", total.read_seconds / n);
  report->Set("storage.write_ops", static_cast<double>(total.write_ops) / n);
  report->Set("storage.write_mib",
              static_cast<double>(total.write_bytes) / kMiB / n);
  report->Set("storage.write_s", total.write_seconds / n);
}

void ClearPrefix(tpcp::Env* env, const std::string& prefix) {
  for (const std::string& name : env->ListFiles(prefix)) {
    env->DeleteFile(name);
  }
}

double Phase1Gflop(const tpcp::GridPartition& grid, int64_t rank,
                   int iterations) {
  const double f = static_cast<double>(rank);
  const int n = grid.num_modes();
  double flop = 0.0;
  for (const tpcp::BlockIndex& block : grid.AllBlocks()) {
    const std::vector<int64_t> sizes = grid.BlockSizes(block);
    double cells = 1.0;
    for (const int64_t d : sizes) cells *= static_cast<double>(d);
    for (int mode = 0; mode < n; ++mode) {
      const double d = static_cast<double>(sizes[static_cast<size_t>(mode)]);
      flop += 2.0 * cells * f + (n - 2) * f * f + f * f * f / 3.0 +
              4.0 * d * f * f;
    }
  }
  return flop * iterations * 1e-9;
}

double Phase2Gflop(const tpcp::GridPartition& grid, int64_t rank,
                   int virtual_iterations) {
  const double f = static_cast<double>(rank);
  const int n = grid.num_modes();
  double per_vi = static_cast<double>(grid.NumBlocks()) * (2 * n + 2) * f * f;
  for (int mode = 0; mode < n; ++mode) {
    const double slab = static_cast<double>(grid.NumBlocks()) /
                        static_cast<double>(grid.parts(mode));
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      const double r = static_cast<double>(grid.PartitionSize(mode, part));
      per_vi += slab * (2.0 * (n - 1) * f * f + 4.0 * r * f * f + f * f) +
                f * f * f / 3.0 + 4.0 * r * f * f;
    }
  }
  return per_vi * virtual_iterations * 1e-9;
}

double ReportPlan(const tpcp::TwoPhaseCpOptions& options,
                  const tpcp::GridPartition& grid, Report* report) {
  const tpcp::UpdateSchedule schedule =
      tpcp::UpdateSchedule::Create(options.schedule, grid);
  const tpcp::PlannerOptions planner = tpcp::Phase2PlannerOptions(options, grid);
  const Clock::time_point start = Clock::now();
  const tpcp::ExecutionPlan plan = tpcp::Planner::Build(schedule, planner);
  report->Set("schedule.plan_build_s", SecondsBetween(start, Clock::now()));
  report->Set("schedule.waves_per_vi",
              static_cast<double>(plan.waves().size()) *
                  static_cast<double>(plan.virtual_iteration_length()) /
                  static_cast<double>(plan.cycle_length()));
  report->Set("schedule.max_wave_width",
              static_cast<double>(plan.max_wave_width()));
  const double predicted = tpcp::SimulateSteadyStateSwapsPerVi(
      plan.schedule(), options.rank, options.policy, planner.buffer_bytes,
      /*warmup_cycles=*/2, /*measure_cycles=*/2, options.policy_victim_hints);
  report->Set("model.swaps_pred_per_vi", predicted);
  return predicted;
}

void ReportCore(const CoreSamples& core, double phase1_gflop,
                double phase2_gflop, Report* report) {
  const double total = Median(core.total);
  const double phase1 = Median(core.phase1);
  const double phase2 = Median(core.phase2);
  const double finish = Median(core.finish);
  report->Set("core.phase1_s", phase1);
  report->Set("core.phase2_s", phase2);
  report->Set("core.phase2_first_vi_s", Median(core.first_vi));
  report->Set("core.vi_s", Median(core.later_vi));
  report->Set("core.phase2_rest_s",
              phase2 - Median(core.stall) - Median(core.writeback));
  report->Set("core.finish_s", finish);
  report->Set("api.overhead_s", total - phase1 - phase2 - finish);
  report->Set("kernel.phase1_gflop", phase1_gflop);
  report->Set("kernel.phase2_gflop", phase2_gflop);
  report->Set("kernel.phase1_gflops",
              phase1 > 0.0 ? phase1_gflop / phase1 : 0.0);
  report->Set("kernel.phase2_gflops",
              phase2 > 0.0 ? phase2_gflop / phase2 : 0.0);
}

}  // namespace perfbench
