// Phase-2 iterative refinement state and the block-ALS update rule (Eq. 3).
//
// Always-resident metadata (small, F x F per entry):
//   M^(h)_l = U^(h)T_l A^(h)_(l_h)   one per (block, mode)
//   G^(h)_(kh) = A^(h)T_(kh) A^(h)_(kh)  one per mode-partition
//   n_l = ||[[U_l]]||^2               one scalar per block
//
// The paper maintains the Hadamard products P_l = ⊛_h M^(h)_l and
// Q_l = ⊛_h G^(h)_l in place via element-wise division; storing the
// per-mode components instead is logically identical (the products are
// recomposed on demand) and immune to division-by-zero.
//
// Bulk data (the units ⟨i,ki⟩ = {A^(i)_(ki); U^(i)-slab}) moves through the
// prefetch pipeline (buffer/prefetch_pipeline.h); this class provides its
// load/evict callbacks and the update rule that runs against resident
// units.
//
// Concurrency model (the Phase-2 parallel compute engine):
//  - LoadUnit/EvictUnit are safe concurrently for distinct units (the
//    prefetch pipeline runs them on I/O workers); only the residency map's
//    structure is locked.
//  - ApplyUpdate is safe concurrently for steps of one conflict-free batch
//    (schedule/conflict.h: same mode, distinct partitions). Such steps
//    write disjoint sub-factors, disjoint mode-i columns of m_, and
//    disjoint mode-i Gram entries, and read only mode-h (h != i) metadata
//    no step of the batch writes — so no lock guards m_/g_ payloads at
//    all, and any interleaving is bit-identical to schedule order.
//  - Initialize and SurrogateFit shard their full-grid passes over an
//    optional compute pool; per-block work is self-contained and the
//    reduction runs in block order on the calling thread, so results are
//    bit-identical to the serial pass for every thread count.

#ifndef TPCP_CORE_REFINEMENT_STATE_H_
#define TPCP_CORE_REFINEMENT_STATE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "core/block_factors.h"
#include "parallel/thread_pool.h"
#include "schedule/update_schedule.h"

namespace tpcp {

/// The fresh-run Phase-2 seed: every sub-factor A^(i)_(ki) starts as the
/// Phase-1 factor of the first block of its slab. Reads that block factor
/// and writes the sub-factor, unit by unit in (mode, part) order, and
/// returns the seeds. RefinementState::Initialize(false) and the dist
/// coordinator's fresh run both seed through this one function.
Result<std::map<ModePartition, Matrix>> SeedSubFactors(
    BlockFactorStore* store);

/// In-memory state of the Phase-2 refinement.
class RefinementState {
 public:
  /// `ridge` is the relative L2 regularization applied to every Eq.-3
  /// solve (see TwoPhaseCpOptions::refinement_ridge). `compute_pool`
  /// (optional, non-owning, must outlive the state) parallelizes the
  /// full-grid passes of Initialize and SurrogateFit; it must not be
  /// shared with a concurrent ParallelFor user while either runs.
  explicit RefinementState(BlockFactorStore* store, double ridge = 0.0,
                           ThreadPool* compute_pool = nullptr);

  /// Seeds every sub-factor A^(i)_(ki) and computes the M/G/norm
  /// metadata, reading every block factor once. With `resume` false the
  /// seeds come from SeedSubFactors (and are persisted); with `resume`
  /// true the sub-factors already in the store are used as-is, which
  /// restarts an interrupted refinement from its last persisted state
  /// (everything else in Phase 2 is derivable from {A, U}). The per-block
  /// metadata pass is sharded across the compute pool (block results are
  /// independent — bit-identical at any thread count).
  Status Initialize(bool resume = false);

  /// Pipeline load hook: materializes ⟨i,ki⟩ (A + U-slab) from the store.
  /// Safe to call concurrently with LoadUnit/EvictUnit for *distinct* units
  /// (the prefetch pipeline runs loads on worker threads); the store's Env
  /// must be thread-safe.
  Status LoadUnit(const ModePartition& unit);

  /// Pipeline evict hook: writes A back if dirty, then drops the unit — so
  /// CurrentSubFactor sees the resident copy until the store holds it.
  /// Same concurrency contract as LoadUnit.
  Status EvictUnit(const ModePartition& unit, bool dirty);

  /// Applies the update rule for `step` (unit must be resident):
  ///   T = Σ_{l: l_i=ki} U^(i)_l (⊛_{h≠i} M^(h)_l)
  ///   S = Σ_{l: l_i=ki} ⊛_{h≠i} G^(h)_(l_h)
  ///   A^(i)_(ki) <- T S^{-1}
  /// then refreshes G^(i)_(ki) and the slab's M^(i)_l in place.
  /// Safe to call concurrently for the steps of one conflict-free batch
  /// (see the file comment); no load/evict of the touched units may be in
  /// flight (the buffer pool's pins enforce that).
  void ApplyUpdate(const UpdateStep& step);

  /// Estimated accuracy of the current stitched decomposition against the
  /// Phase-1 surrogate (X_l ≈ [[U_l]]), computable without I/O:
  ///   1 - sqrt(Σ_l (n_l - 2·sum(P_l) + sum(Q_l))) / sqrt(Σ_l n_l).
  /// Block terms are computed across the compute pool and reduced in
  /// block order on the calling thread (bit-identical at any thread
  /// count). Must not run concurrently with ApplyUpdate.
  double SurrogateFit() const;

  bool IsResident(const ModePartition& unit) const {
    std::lock_guard<std::mutex> lock(resident_mu_);
    return resident_.count(unit) > 0;
  }

  /// Metadata image of `unit` for the distributed exchange: the pair
  /// (G^(i)_(ki), slab M^(i)_l keyed by flat block index) an ApplyUpdate
  /// on the unit refreshes. The image fully describes the update's effect
  /// on every *other* worker's state — non-owners never need the unit's A.
  /// Must not run concurrently with ApplyUpdate on the same unit.
  struct ExchangeImage {
    Matrix gram;
    std::vector<std::pair<int64_t, Matrix>> slab_m;  // (flat block, M)
  };
  ExchangeImage ExportExchange(const ModePartition& unit) const;

  /// Installs a metadata image received from the unit's owner, assigning
  /// through the existing g_/m_ nodes. Within one conflict-free wave the
  /// images touch disjoint entries, so absorb order is irrelevant; callers
  /// serialize absorbs against ApplyUpdate/SurrogateFit.
  Status AbsorbExchange(const ModePartition& unit, const ExchangeImage& image);

  /// The unit's current sub-factor A: the resident copy when loaded (or
  /// still being written back), the store's otherwise. Used by workers to
  /// upload dirty sub-factors at persist boundaries without forcing an
  /// eviction; safe against the pipeline's concurrent loads/writebacks.
  Result<Matrix> CurrentSubFactor(const ModePartition& unit) const;

  /// Number of update-rule applications so far.
  int64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

 private:
  struct UnitData {
    Matrix a;                      // A^(i)_(ki)
    std::vector<Matrix> u;         // U^(i)_l for l in slab order
    bool dirty = false;
  };

  const Matrix& GramOf(int mode, int64_t part) const;

  BlockFactorStore* store_;
  const GridPartition& grid_;
  int64_t rank_;
  double ridge_;
  ThreadPool* compute_pool_;

  // Guards the resident_ map's structure. Unit payloads are not covered:
  // a thread only touches units no load/evict is in flight for (the
  // buffer pool's pins enforce that) and concurrent updates only run on
  // conflict-free batches, so per-unit data needs no lock.
  mutable std::mutex resident_mu_;
  std::map<ModePartition, UnitData> resident_;
  // Slab block lists, precomputed per unit. Read-only after construction.
  std::map<ModePartition, std::vector<BlockIndex>> slabs_;
  // m_[flat_block][mode] = M^(mode)_block. The structure is fixed after
  // construction; concurrent batch updates write disjoint entries.
  std::vector<std::vector<Matrix>> m_;
  // G per mode-partition. Every key is inserted by Initialize; updates
  // assign through the existing node, so the map structure never changes
  // while batches run and concurrent reads of other nodes are safe.
  std::map<ModePartition, Matrix> g_;
  // n_l per flat block. Read-only after Initialize.
  std::vector<double> block_norm_sq_;

  std::atomic<int64_t> updates_applied_{0};
};

}  // namespace tpcp

#endif  // TPCP_CORE_REFINEMENT_STATE_H_
