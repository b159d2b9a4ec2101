// Distributed Phase-2 worker (the follower side of dist/coordinator.h).
//
// A worker owns the data units the weighted DistributedPlan ownership map
// assigns to worker_id (heaviest units first onto the least-loaded
// worker; schedule/planner.h) and executes exactly their plan positions,
// serially in plan order, through the same RefinementState / BufferPool
// machinery as the single-process engine. Everything else it needs — the
// other owners' metadata refreshes (G, slab M) — arrives from the
// coordinator after each wave; within a conflict-free wave those images
// touch disjoint metadata no owned step reads, so executing owned steps
// against pre-wave metadata and absorbing the rest afterwards is
// bit-identical to the engine executing the whole wave.
//
// Overlap pipeline (init's "overlap" flag): each wave's owned steps run
// on a compute thread while the protocol thread keeps receiving, so the
// previous wave's *deferred* absorbs — the ones
// DistributedPlan::CanDeferPast proves no owned step reads before the
// next commit — install concurrently with compute. The commit gate then
// demands the deferred set of the previous wave plus every non-deferrable
// live image of this one, which keeps the metadata state at every commit
// identical to barrier execution (and deferral never crosses a
// virtual-iteration boundary, so fits and checkpoints match bit-for-bit).
//
// The worker's buffer pool runs against a private in-memory overlay of the
// shared factor store (storage/overlay_env.h): evicted dirty sub-factors
// land in the overlay, never in the base store. The base store is written
// by the coordinator alone, at persist boundaries, after collecting every
// worker's dirty sub-factors — so a worker killed at any instant leaves
// the persisted factors exactly at the last checkpoint.
//
// Protocol ("t"-tagged JSON over one server/net FrameChannel; codecs in
// dist/exchange.h; "options" is core/config's OptionsToMap as strings):
//
//   worker -> coord   {"t":"hello","worker":W}
//   coord -> worker   {"t":"init","workers":N,"resume":B,"hb_ms":H,
//                      "overlap":B,"grid":…,"options":…}
//   worker -> coord   {"t":"hb"}   (every H ms from init on; carries no
//                     protocol state — the coordinator skips it — and only
//                     keeps the channel's quiet-period deadline from
//                     firing while the worker computes)
//   worker -> coord   {"t":"ready","plan_fp":i64,"opts_fp":i64,
//                      "own_fp":i64,"fit":bits}
//   coord -> worker   {"t":"wave","pos":P,"end":E}
//   worker -> coord   {"t":"xchg","pos":i,"mode":m,"part":p,
//                      "g":mat?,"m":[[flat,mat],…],"last":B}   (per owned
//                      step, chunked under the frame ceiling)
//   worker -> coord   {"t":"wave_done"}
//   coord -> worker   {"t":"absorb",… same fields as xchg …}   (relayed;
//                     under overlap, deferred images of wave w arrive
//                     during wave w+1 and are owed at its commit)
//   coord -> worker   {"t":"wave_commit"}
//   worker -> coord   {"t":"wave_ack"}
//   coord -> worker   {"t":"vi_end"}
//   worker -> coord   {"t":"fit","fit":bits}
//   coord -> worker   {"t":"persist"}
//   worker -> coord   {"t":"subfactor","mode":m,"part":p,"a":rows}… then
//                     {"t":"persist_done"}   (dirty owned units, sorted)
//   coord -> worker   {"t":"finish"}
//   worker -> coord   {"t":"bye"}

#ifndef TPCP_DIST_WORKER_H_
#define TPCP_DIST_WORKER_H_

#include <cstdint>
#include <string>

#include "dist/faulty_channel.h"
#include "storage/env.h"

namespace tpcp {

/// Test hooks for crash and chaos injection.
struct DistWorkerHooks {
  /// Abort the process's connection (close the socket, return Internal)
  /// just before executing the owned step at this global plan position —
  /// a worker crash mid-wave. -1 = never.
  int64_t crash_at_step = -1;
  /// When non-empty, the worker's channel is wrapped in a FaultyChannel
  /// replaying this schedule (scripted drop/delay/garbage/disconnect,
  /// keyed by per-direction frame counters; heartbeats are exempt).
  ChaosSchedule chaos;
};

/// Runs one worker to completion: connects to the coordinator on
/// 127.0.0.1:`port`, introduces itself as `worker_id`, and serves the
/// protocol until "finish" (or error). `base_env` is the shared store
/// environment holding the factor store at `factor_prefix`; it is only
/// ever read (worker-side writes land in a private overlay).
Status ServeDistWorker(Env* base_env, const std::string& factor_prefix,
                       int port, int worker_id,
                       const DistWorkerHooks& hooks = {});

}  // namespace tpcp

#endif  // TPCP_DIST_WORKER_H_
