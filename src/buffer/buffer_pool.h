// Buffer pool over data units ⟨i, ki⟩ with pluggable replacement.
//
// The pool only keeps the books: residency, pins, dirty bits, victims and
// swap counts. It is used in two ways:
//  - by the Phase-2 prefetch pipeline (the engine's and every dist
//    worker's one data path), which drives residency with the
//    non-blocking Reserve/TouchResident/Unpin API and performs the data
//    movement itself (on worker threads, or inline at prefetch depth 0);
//  - by the swap simulator (core/swap_simulator.h), whose count-only
//    Access replays a trace to count data swaps exactly as the paper's
//    Figure 12 does.
// Its only data-movement hook is the evict callback handed to Flush.
//
// The pool itself is not thread-safe: all calls must come from one thread
// (the Phase-2 compute thread). The pipeline confines pool bookkeeping to
// the compute thread and only moves bytes on workers.

#ifndef TPCP_BUFFER_BUFFER_POOL_H_
#define TPCP_BUFFER_BUFFER_POOL_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "buffer/data_unit.h"
#include "buffer/replacement_policy.h"
#include "util/status.h"

namespace tpcp {

/// Swap accounting for one pool.
struct BufferStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t swap_ins = 0;    // misses: a unit brought in from storage
  uint64_t swap_outs = 0;   // evictions
  uint64_t dirty_writebacks = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  // Overlap accounting (Phase-2 prefetch pipeline).
  uint64_t prefetch_hits = 0;   // loads issued ahead that finished in time
  double stall_seconds = 0.0;   // compute thread blocked on a load
  double writeback_seconds = 0.0;  // time spent writing dirty units back

  double HitRate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

/// Byte-budget buffer of data units.
class BufferPool {
 public:
  /// Called when a unit is evicted; `dirty` indicates it must be persisted.
  using EvictCallback = std::function<Status(const ModePartition&, bool dirty)>;
  /// A victim evicted by Reserve: the unit and whether it was dirty.
  using Eviction = std::pair<ModePartition, bool>;

  /// Pool with `capacity_bytes` of space over the given catalog and policy.
  /// CHECK-fails if the capacity cannot hold the largest single unit (no
  /// schedule can run otherwise).
  BufferPool(uint64_t capacity_bytes, UnitCatalog catalog,
             std::unique_ptr<ReplacementPolicy> policy);

  /// Touches `unit` at schedule position `pos`: counts a hit, or a swap-in
  /// through Reserve (evicting victims per policy until the unit fits)
  /// with the pin released at once. Moves no data — the swap simulator's
  /// replay. Pinned units are never selected as victims;
  /// ResourceExhausted when they leave no room.
  Status Access(const ModePartition& unit, int64_t pos);

  // ---- Non-blocking reservation API (prefetch pipeline) ----
  //
  // Reserve marks a non-resident unit resident-and-pinned and makes room
  // for it by evicting unpinned victims; the caller owns the actual data
  // movement. Victims are reported through `evicted` so the caller can
  // write dirty ones back in the background. Fails with ResourceExhausted — with no side effects —
  // when pinned units block the required space.

  Status Reserve(const ModePartition& unit, int64_t pos,
                 std::vector<Eviction>* evicted);

  /// Pins an already-resident unit and reports the touch to the policy
  /// (the async analogue of a hit in Access). CHECK-fails if not resident.
  /// No access is counted yet: the pipeline reserves steps that may never
  /// execute, so it counts accesses via RecordAccess when a step runs.
  void TouchResident(const ModePartition& unit, int64_t pos);

  /// Counts one executed schedule step: an access, plus a hit when the
  /// unit was already resident at reservation time.
  void RecordAccess(bool hit) {
    ++stats_.accesses;
    if (hit) ++stats_.hits;
  }

  /// Decrements the pin count Reserve/TouchResident took. A pinned unit
  /// cannot be evicted. CHECK-fails if not resident or not pinned.
  void Unpin(const ModePartition& unit);

  /// Overlap-stat recorders (compute thread only, like every other call).
  void RecordPrefetchHit() { ++stats_.prefetch_hits; }
  void RecordStall(double seconds) { stats_.stall_seconds += seconds; }
  void RecordWriteback(double seconds) {
    stats_.writeback_seconds += seconds;
  }

  /// Marks a resident unit as modified (it will be written back on
  /// eviction / flush). CHECK-fails if not resident.
  void MarkDirty(const ModePartition& unit);

  /// Drops a resident, unpinned unit from the bookkeeping, rolling back
  /// the reservation's swap accounting.
  /// Async error cleanup: the unit was reserved but its load failed, so no
  /// bytes ever moved and no data exists to write back or release.
  void Discard(const ModePartition& unit);

  /// True if the unit is currently resident.
  bool IsResident(const ModePartition& unit) const;

  /// True if the unit is resident with a non-zero pin count.
  bool IsPinned(const ModePartition& unit) const;

  /// Evicts everything, handing each unit to `evict` (when set) first so
  /// dirty ones are written back. CHECK-fails if any unit is still pinned.
  Status Flush(const EvictCallback& evict = nullptr);

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  int64_t resident_units() const {
    return static_cast<int64_t>(resident_.size());
  }

  const BufferStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferStats(); }

  const UnitCatalog& catalog() const { return catalog_; }
  ReplacementPolicy* policy() { return policy_.get(); }

 private:
  struct Entry {
    bool dirty = false;
    int pins = 0;
  };

  /// Unpinned resident units other than `keep`.
  std::vector<ModePartition> EvictionCandidates(
      const ModePartition& keep) const;
  /// Removes `unit` from the pool's bookkeeping; returns whether it was
  /// dirty. `unit` is taken by value: callers may pass a reference into
  /// resident_ itself, which erase would turn into a dangling key.
  bool Remove(ModePartition unit);

  uint64_t capacity_;
  uint64_t used_ = 0;
  UnitCatalog catalog_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::map<ModePartition, Entry> resident_;
  BufferStats stats_;
};

}  // namespace tpcp

#endif  // TPCP_BUFFER_BUFFER_POOL_H_
