// Analytic memory and I/O cost model (Section IV-A and VI).

#ifndef TPCP_CORE_COST_MODEL_H_
#define TPCP_CORE_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/data_unit.h"
#include "buffer/replacement_policy.h"
#include "schedule/planner.h"

namespace tpcp {

/// Memory and exchange-volume estimates for a (grid, rank) configuration.
class CostModel {
 public:
  CostModel(const GridPartition& grid, int64_t rank)
      : catalog_(grid, rank) {}

  /// mem_total(X): total bytes of all sub-factors A and block factors U —
  /// the space the refinement phase needs if nothing is evicted
  /// (Observation #2).
  uint64_t TotalRefinementBytes() const { return catalog_.TotalBytes(); }

  /// mem_MP: bytes needed to process a single mode-partition
  /// (Observation #3) — the largest single unit.
  uint64_t PerModePartitionBytes() const { return catalog_.MaxUnitBytes(); }

  /// Swaps per iteration of the naive (write-everything-back) strategy:
  /// Σ K_i (Observation #4).
  int64_t NaiveSwapsPerIteration() const {
    return catalog_.grid().SumParts();
  }

  /// Bytes moved per virtual iteration given an observed per-iteration swap
  /// count (the Section VIII-C-1 estimate: swaps × average unit size).
  uint64_t ExchangeBytesPerIteration(double swaps_per_iteration) const;

  /// Dense tensor payload bytes (8 bytes per cell).
  static uint64_t TensorBytes(const Shape& shape) {
    return static_cast<uint64_t>(shape.NumElements()) * sizeof(double);
  }

  const UnitCatalog& catalog() const { return catalog_; }

  std::string ToString() const;

 private:
  UnitCatalog catalog_;
};

/// One network link's price, the composable-resource way: a transfer of
/// `bytes` split over `messages` costs messages·latency + bytes/bandwidth
/// seconds. Defaults approximate loopback-ish 10 GbE.
struct ClusterLink {
  double latency_seconds = 100e-6;
  double bandwidth_bytes_per_second = 1.25e9;

  double TransferSeconds(uint64_t bytes, int64_t messages) const {
    return static_cast<double>(messages) * latency_seconds +
           static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }
};

/// Inputs of one cluster simulation: each worker runs the plan's owned
/// slice against its own `buffer_bytes` pool and talks to the coordinator
/// over `link`.
struct ClusterSimConfig {
  int num_workers = 2;
  PolicyType policy = PolicyType::kForward;
  /// Per-worker buffer capacity (clamped up to the largest unit).
  uint64_t buffer_bytes = 0;
  bool victim_hints = false;
  int warmup_cycles = 2;
  int measure_cycles = 2;
  ClusterLink link;

  /// No effect; removed with perfbench's assignment.
  bool overlap = false;
  /// Compute seconds per plan step (factor update + exchange encode) and
  /// per buffer swap (unit load from the store) — the compute term each
  /// wave adds to its link-priced relay. Defaults are loose
  /// commodity-disk estimates; calibrate for real predictions.
  double seconds_per_step = 200e-6;
  double seconds_per_swap = 2e-3;
};

/// Predicted per-virtual-iteration costs of one worker: local disk swaps
/// (ownership-filtered replay through the swap simulator) plus network
/// exchange (metadata up/down per step, sub-factor persist per vi), priced
/// through the link model. Byte figures are cycle-exact averages — the
/// cycle's integer totals scaled by vi_len/cycle_len — except
/// persist_bytes, which is averaged over the first ⌈cycle/vi⌉ persist
/// windows (which windows a vi covers varies when vi_len ∤ cycle_len).
struct ClusterWorkerCost {
  int worker = 0;
  double swaps_per_vi = 0.0;
  double xchg_up_bytes_per_vi = 0.0;
  double xchg_down_bytes_per_vi = 0.0;
  double messages_per_vi = 0.0;
  double persist_bytes_per_vi = 0.0;
  double transfer_seconds_per_vi = 0.0;

  /// One grep-able "cluster:" line.
  std::string ToString() const;
};

/// The cluster simulator: prices a DistributedPlan per worker. `rank`
/// must match the rank the DistributedPlan was built with.
std::vector<ClusterWorkerCost> SimulateCluster(const DistributedPlan& dplan,
                                               int64_t rank,
                                               const ClusterSimConfig& config);

/// Fleet-aggregate wall-clock prediction of one virtual iteration of dist's
/// barrier waves: each wave pays the slowest owner's compute plus the
/// link-priced relay of its images (uploads and live absorbs), and each vi
/// pays its persist epilogue.
struct ClusterOverlapCost {
  int num_workers = 0;
  /// The barrier wall-clock per vi. Named for perfbench, which reads it;
  /// renamed with perfbench's read.
  double pipelined_seconds_per_vi = 0.0;

  /// One grep-able "cluster-wall:" line.
  std::string ToString() const;
};

/// Prices dist's execution of `dplan` under `config`.
ClusterOverlapCost SimulateClusterOverlap(const DistributedPlan& dplan,
                                          int64_t rank,
                                          const ClusterSimConfig& config);

}  // namespace tpcp

#endif  // TPCP_CORE_COST_MODEL_H_
