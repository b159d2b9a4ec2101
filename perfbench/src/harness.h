// Shared vocabulary of the benchmark's workloads: run arguments, the
// metric report, sample statistics, and the computed cost models
// (operation counts, plan shape) every decomposition workload reports.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "grid/grid_partition.h"
#include "probes.h"
#include "util/status.h"

namespace perfbench {

/// Operations every measured loop runs, however long they take.
constexpr int kMinOperations = 3;

/// The quantile every end-to-end timing reports: the fast decile of a
/// run's samples. The benchmark's vCPUs share physical cores with other
/// tenants, so one core runs a fixed loop in 0.17 s or 0.39 s depending on
/// the moment (4-vCPU KVM guest, AMD EPYC), and a tpcpd job's run took
/// 22 ms or 37 ms with nothing else changed. The mix of fast and slow
/// moments differs from run to run and carries a median with it; the
/// fast decile reads the fast mode, which only the program's own work
/// moves.
constexpr double kTimingQuantile = 0.1;

/// Bitwise equality: a fixed-seed run's fits must agree to the last bit.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// One benchmark invocation.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured loop.
  double seconds = 10.0;
  /// Per-layer run: probes on, per_layer metrics out.
  bool trace = false;
  /// Scratch directory inside the checkout (posix stores, worker stats).
  std::string work_dir;
};

/// What a run prints: the result line plus diagnostics. Metric names and
/// units are defined once, in BENCHMARK.json; perfbench/run.py attaches
/// the units and fills the per-layer metrics a workload leaves unset.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
  /// Free-form lines for stdout ("env: …", gate failures).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// A failed correctness gate: the run is not correct and the operation
  /// counts as failed.
  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back("FAILED: " + why);
  }
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-operation samples of a measured loop.
struct OperationSamples {
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
  std::vector<double> peak_rss_mib;
  /// Loop time of one operation, set-up excluded: from its start (tpcpd:
  /// from the previous completion) to its completion.
  std::vector<double> intervals;
  /// The run's surrogate fit (bitwise equal across its operations).
  double fit = 0.0;
};
/// Sets the end-to-end metrics, api.job_p90_s and process.cpu_s from the
/// untraced operations of a loop. The latter two are per-layer: on a shared
/// host, CPU seconds drifted 35% and tpcpd's p90 latency spread 29% between
/// batches of runs, wider than any end-to-end bound can absorb.
///
/// setup_s, decompose_s and jobs_per_s are read at kTimingQuantile:
/// jobs_per_s is 1 ÷ the fast-decile completion interval of the closed
/// loop (one operation in flight), so host noise in part of the loop does
/// not carry it the way a count ÷ elapsed time would. peak_rss_mib is the
/// median of the per-operation (tpcpd: per-segment) peaks.
void ReportEndToEnd(const OperationSamples& ops,
                    const std::vector<double>& setup_seconds, Report* report);

/// Sets storage.* from `total` traffic spread over `operations`.
void ReportStorage(const StorageSnapshot& total, double operations,
                   Report* report);

/// Deletes every file under `prefix` (a store's "<name>/").
void ClearPrefix(tpcp::Env* env, const std::string& prefix);

// ---- computed cost models --------------------------------------------------
//
// Operation counts are computed from shapes and the fixed iteration counts
// (every workload pins them with negative tolerances), not counted by the
// program: a later change to a kernel's own arithmetic does not move them,
// only its time does. F is the rank, N the mode count, d_n the block
// extent along mode n, P = Π d_n the block's cells, K_n the parts of mode n.
//
// Phase 1, one CP-ALS iteration on one block, summed over modes n:
//   MTTKRP     2·P·F            one multiply-add per cell (Phase 1 reads
//                               every slab format densified)
//   Gram mix   (N−2)·F²         Hadamard of the other modes' Grams
//   solve      F³/3 + 2·d_n·F²  Cholesky + two triangular solves
//   new Gram   2·d_n·F²
// times phase1_max_iterations, times the block count.
//
// Phase 2, one step (mode i, partition p), slab of B_i = Π_{h≠i} K_h blocks,
// r = d_i rows, following RefinementState::ApplyUpdate:
//   per slab block   2·(N−1)·F² (W and SW Hadamards) + 2·r·F² (T += U·W)
//                    + F² (S += SW) + 2·r·F² (M refresh U^T·A)
//   per step         F³/3 + 2·r·F² (solve) + 2·r·F² (Gram refresh)
// A virtual iteration updates every mode-partition once (Σ K_n steps) and
// ends with the surrogate fit: (2N + 2)·F² per block.

/// Phase-1 GFLOP.
double Phase1Gflop(const tpcp::GridPartition& grid, int64_t rank,
                   int iterations);
/// Phase-2 GFLOP over `virtual_iterations` on `grid`.
double Phase2Gflop(const tpcp::GridPartition& grid, int64_t rank,
                   int virtual_iterations);

/// Builds the plan `options` executes over `grid` and sets
/// schedule.waves_per_vi, schedule.max_wave_width, schedule.plan_build_s
/// and model.swaps_pred_per_vi. Returns the predicted swaps per vi.
double ReportPlan(const tpcp::TwoPhaseCpOptions& options,
                  const tpcp::GridPartition& grid, Report* report);

/// Per traced operation, the engine's phase split.
struct CoreSamples {
  std::vector<double> total, phase1, phase2, first_vi, later_vi, finish,
      stall, writeback;
};
/// Sets core.*, api.overhead_s and kernel.* from the medians of `core`
/// and the computed operation counts.
void ReportCore(const CoreSamples& core, double phase1_gflop,
                double phase2_gflop, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
