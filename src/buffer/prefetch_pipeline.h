// Schedule-driven swap pipeline for the Phase-2 refinement — the one data
// path of the engine and of every dist worker.
//
// Phase 2's entire unit-access trace is known in advance (the property the
// forward-looking replacement policy already exploits), so data movement can
// be overlapped with compute almost perfectly: while the compute thread
// applies the update at schedule position p, worker threads load the units
// for positions p+1..p+depth and write evicted dirty units back.
//
// Division of labor:
//  - All BufferPool bookkeeping (reservations, evictions, pins, policy,
//    stats) happens on the compute thread inside BeginBatch/EndBatch, so
//    victim choice is deterministic and the pool needs no locking.
//  - I/O threads only move bytes: they run the load callback for
//    reserved units and the evict callback for dirty victims.
//  - A load of a unit whose previous incarnation still has a writeback in
//    flight waits for that writeback first (per-unit write-then-read
//    ordering), so results are bit-identical for every depth.
//
// Depth 0 is the pipeline with zero lookahead: no I/O threads exist and
// every load and writeback runs inline on the compute thread, in the same
// order a blocking buffer access would perform them. Inline loads are
// charged to stall_seconds (the compute thread sat through them) and never
// count as prefetch hits.
//
// Reserved units stay pinned until their step completes, so a prefetched
// unit can never be evicted before it is used. When pinned units fill the
// buffer, the window simply stops growing and the pipeline degrades toward
// synchronous operation — never deadlock.

#ifndef TPCP_BUFFER_PREFETCH_PIPELINE_H_
#define TPCP_BUFFER_PREFETCH_PIPELINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "buffer/buffer_pool.h"
#include "core/cancellation.h"
#include "parallel/thread_pool.h"
#include "schedule/execution_plan.h"

namespace tpcp {

/// Load/writeback engine in front of a BufferPool, driven by an
/// ExecutionPlan: units are reserved in the plan's (possibly reordered)
/// step order, the plan's prefetch_depth() executed steps ahead of the
/// step in flight (none ahead at depth 0).
///
/// Usage (compute thread only; `n` is 1 for serial compute, up to a plan
/// wave for the parallel engine):
///   PrefetchPipeline pipeline(&pool, &plan, load_cb, evict_cb, opts);
///   for (pos = start; ...; pos += n) {
///     TPCP_RETURN_IF_ERROR(pipeline.BeginBatch(pos, want, &n));  // resident
///     ... apply updates, pool.MarkDirty(...) ...
///     TPCP_RETURN_IF_ERROR(pipeline.EndBatch(pos, n));  // top up the window
///   }
///   TPCP_RETURN_IF_ERROR(pipeline.Drain());            // join all I/O
///   TPCP_RETURN_IF_ERROR(pipeline.Flush());            // sync writebacks
///
/// A dist worker executes only the positions it owns. It passes that
/// ownership as Options::runs and calls BeginBatch(pos, 1) / EndBatch(pos,
/// 1) at each owned position in plan order; the window then reserves only
/// owned positions, still keyed by their *global* plan position (the
/// forward policy's next-use oracle runs on the plan's clock).
class PrefetchPipeline {
 public:
  /// Materializes a reserved unit in memory.
  using LoadCallback = std::function<Status(const ModePartition&)>;

  struct Options {
    /// Worker threads moving bytes when the plan's prefetch_depth() > 0.
    /// I/O-bound, so a small number suffices. Unused at depth 0.
    int io_threads = 2;
    /// Optional cancellation token (non-owning). Once it fires, the window
    /// stops growing — no new speculative loads are issued — so a
    /// cancelling engine drains faster. In-flight I/O still completes.
    const CancellationToken* cancel = nullptr;
    /// The plan positions the caller executes; null means every one. With
    /// a filter set, every batch is one step (BeginBatch's max_count 1).
    std::function<bool(int64_t pos)> runs;
  };

  /// The pipeline moves every byte itself: `load` materializes reserved
  /// units and `evict` drops victims, writing dirty ones back (also at
  /// Flush). Steps must be executed in increasing `pos` order; the first
  /// BeginBatch may start anywhere (a resumed checkpoint cursor, a
  /// worker's first owned step). `plan` (non-owning, must outlive the
  /// pipeline) supplies the step order and the prefetch directives. At
  /// plan->prefetch_depth() == 0 no I/O thread pool is built and all I/O
  /// runs inline.
  PrefetchPipeline(BufferPool* pool, const ExecutionPlan* plan,
                   LoadCallback load, BufferPool::EvictCallback evict,
                   Options options);

  /// Joins outstanding I/O. Call Drain() first for error reporting.
  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// Acquires the steps at positions [pos, pos + max_count) — resident,
  /// pinned, loads complete — blocking if the prefetch has not caught up
  /// (the blocked time is recorded as stall_seconds) and stopping early
  /// when pinned units leave no room (or the ahead-of-time miss budget is
  /// spent). Reports how many steps it actually acquired in `*acquired`
  /// (>= 1 on OK; the due step always fits) and any background I/O error.
  /// The caller runs the acquired steps in any order/concurrently — they
  /// must be conflict-free for max_count > 1 — then releases them with
  /// EndBatch(pos, *acquired). max_count == 1 is the serial engine's
  /// step-at-a-time case.
  Status BeginBatch(int64_t pos, int64_t max_count, int64_t* acquired);

  /// Releases the pins of the `count` steps acquired by BeginBatch and
  /// extends the reservation window to the plan's depth of steps past the
  /// last executed one (the window stops growing once the cancellation
  /// token fires).
  Status EndBatch(int64_t pos, int64_t count);

  /// Waits for all in-flight loads and writebacks, releases the pins of
  /// never-executed prefetches, flushes aggregated overlap stats into the
  /// pool, and returns the first background error (if any). The pool is
  /// left fully unpinned so Flush may run.
  Status Drain();

  /// After Drain: evicts every resident unit through the evict callback,
  /// writing dirty ones back inline (charged to writeback_seconds).
  Status Flush();

 private:
  struct AsyncOp {
    bool done = false;
    Status status = Status::OK();
  };
  struct WindowSlot {
    int64_t pos;
    ModePartition unit;
    // Load this slot's step must wait on (null when the unit was resident
    // with no load in flight).
    std::shared_ptr<AsyncOp> load;
    // True when the load was issued before BeginBatch reached the slot.
    bool issued_ahead = false;
    // True when the unit was already resident at reservation time; the
    // step counts as a buffer hit when it executes.
    bool was_hit = false;
    // True while this slot's miss reservation still counts against the
    // in-flight load budget (cleared once BeginBatch observes completion).
    bool counts_against_budget = false;
  };

  /// Reserves position `p`'s unit and starts its load. Returns false when
  /// pinned units leave no room (the window cannot grow yet).
  bool TryIssue(int64_t p, bool ahead);
  /// Runs an I/O task on the worker pool, or inline at depth 0.
  void RunIo(std::function<void()> task);
  /// Blocks until `op` completes; returns seconds waited.
  double AwaitOp(const std::shared_ptr<AsyncOp>& op);
  Status FirstError();

  BufferPool* pool_;
  const ExecutionPlan* plan_;
  LoadCallback load_;
  BufferPool::EvictCallback evict_;
  Options options_;

  // Window of reserved-but-not-completed steps: front is the next step to
  // execute, back is the furthest reservation (before next_issue_).
  std::deque<WindowSlot> window_;
  int64_t next_issue_ = 0;
  // Bytes of in-window miss reservations (prefetch loads); capped at half
  // the pool's capacity so the window cannot thrash the policy's working
  // set (see TryIssue).
  uint64_t window_load_bytes_ = 0;

  // In-flight or completed loads / writebacks by unit. Entries are erased
  // when the unit is evicted (loads) or when the writeback completes.
  std::map<ModePartition, std::shared_ptr<AsyncOp>> loads_;
  std::map<ModePartition, std::shared_ptr<AsyncOp>> writebacks_;

  // Guards the AsyncOp states, error, and worker-side aggregates.
  std::mutex mu_;
  std::condition_variable op_done_;
  Status first_error_;
  double writeback_seconds_ = 0.0;

  // Last member: destroyed (joined) before the state it uses. Null at
  // depth 0.
  std::unique_ptr<ThreadPool> io_pool_;
};

}  // namespace tpcp

#endif  // TPCP_BUFFER_PREFETCH_PIPELINE_H_
