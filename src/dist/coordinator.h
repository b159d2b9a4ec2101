// Distributed Phase-2 coordinator: executes one ExecutionPlan across N
// worker processes (dist/worker.h) and keeps the run bit-identical to a
// single-process Phase2Engine run of the same fingerprinted plan.
//
// Responsibilities, in protocol order:
//
//  - Builds the plan exactly as Phase2Engine::Run would (same
//    Phase2PlannerOptions), loads a resume through the engine's own
//    Phase2Progress::Load, and seeds a fresh run's sub-factors with the
//    engine's own SeedSubFactors — so workers can always initialize in
//    resume mode against the persisted state.
//  - Drives the wave loop: broadcasts each conflict-free wave, collects
//    the owners' metadata images (in worker-id order), relays them to
//    every non-owner, and barriers on wave_commit/wave_ack.
//  - Pipelines the exchange: relays whose recipients provably do not read
//    the image during the next wave (DistributedPlan::CanDeferPast — the
//    planner's liveness analysis applied across one wave boundary) are
//    deferred and sent by a background relay thread *while the next wave
//    computes*; the rest are sent immediately. Deferred frames are
//    confirmed absorbed at the next wave's commit barrier and never cross
//    a virtual-iteration boundary, so every commit/checkpoint cut sees the
//    same metadata state and ledger as a single-process run — only the
//    wall-clock shrinks. The hidden relay work is reported as
//    overlapped_bytes / hidden_seconds; schedules with nothing to defer
//    (mode-centric) report zero.
//  - At each virtual-iteration boundary collects every worker's surrogate
//    fit and requires them bitwise equal (a divergence is an Internal
//    error, never silently averaged), then closes the iteration with the
//    engine's Phase2Progress::CloseIteration.
//  - Alone writes the base factor store, through one RetryEnv: collects
//    all workers' dirty sub-factors at the persist boundary and commits
//    them with a checkpoint through the engine's Phase2Progress::Commit,
//    which also writes the plain manifest that ends the run. The base
//    store never gets ahead of the checkpoint cursor, so a worker killed
//    at any instant leaves a store a single-process resume_phase2 run
//    continues bit-identically.
//  - Accounts every relayed byte (logical matrix bytes, the
//    DistributedPlan definition) so tests can assert measured == predicted
//    exactly against schedule/planner.h's cluster traffic model. The relay
//    prunes dead absorbs (DistributedPlan::ImageLiveFor): images no
//    recipient reads before their next refresh are never sent, and the
//    prediction applies the identical rule, so measured == predicted stays
//    exact while block-centric schedules move fewer bytes.
//
// Fault tolerance (dist/supervisor.h): every worker channel carries
// read/write deadlines and workers heartbeat through them, so a dead or
// wedged worker surfaces as a worker-attributed channel error in bounded
// time — never a hang. Because the base store only advances at checkpoint
// boundaries and workers always initialize from it, recovery is "tear the
// fleet down, restart from the last vi checkpoint": the supervisor
// respawns at the same size while the --max-respawns budget lasts, then
// degrades per DegradeMode (shed a worker and re-plan ownership, or
// finish in-process). Every recovery path replays the identical plan
// positions, so recovered runs stay byte-identical to uninterrupted ones;
// only the wire ledger is re-priced (and the bytes a failed attempt moved
// past its last checkpoint are reported as wasted_bytes). Content-level
// violations (a worker's plan, options or ownership fingerprint differing
// at hello, fit divergence, ownership violations) are never retried —
// they mean the protocol itself failed.

#ifndef TPCP_DIST_COORDINATOR_H_
#define TPCP_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "core/block_factors.h"
#include "core/config.h"
#include "core/phase2_engine.h"
#include "dist/supervisor.h"
#include "schedule/planner.h"
#include "util/status.h"

namespace tpcp {

/// How RunDistributedPhase2 forms its worker fleet.
struct DistributedRunOptions {
  /// Worker processes (>= 1). Ownership: the weighted DistributedPlan
  /// map — units assigned heaviest-first to the least-loaded worker,
  /// identical on coordinator and workers, fingerprint-validated at hello
  /// and on checkpoint resume.
  int num_workers = 2;
  /// How long to wait for each worker to connect before declaring the
  /// spawn dead.
  int accept_timeout_ms = 30000;
  /// Launches worker `worker`, which must call ServeDistWorker against
  /// 127.0.0.1:`port`, the ephemeral port the coordinator listens on.
  /// Required. The callback returns once the worker is *launched* (forked
  /// / thread started), not once it connects. Under recovery the callback
  /// is invoked again for the same worker id (and, after a degrade, for a
  /// smaller id range).
  std::function<Status(int port, int worker)> spawn_worker;

  /// Interval at which workers heartbeat to the coordinator. Every worker
  /// channel gets a quiet-period deadline of 10 * heartbeat_ms in both
  /// directions; <= 0 disables heartbeats and deadlines alike.
  int heartbeat_ms = 1000;
  /// Fleet restarts at the same size before the supervisor degrades.
  int max_respawns = 2;
  /// What to do once the respawn budget is spent.
  DegradeMode degrade = DegradeMode::kShrink;
  /// Operator-visible recovery lines ("dist: worker 1 failed …"). Optional.
  std::function<void(const std::string&)> log;

  /// No effect; removed with perfbench's assignment.
  bool overlap = false;
};

/// Outcome of a distributed run: the engine-equivalent Phase-2 result plus
/// the exchange-byte ledger (measured on the wire vs predicted by
/// DistributedPlan — equal by construction, asserted in tests).
struct DistributedRunResult {
  /// fit_trace / virtual_iterations / converged / surrogate_fit /
  /// start_iteration / seconds are filled exactly as Phase2Engine would;
  /// buffer_stats and swap counts stay zero (pools live in the workers).
  Phase2Result phase2;
  uint64_t plan_fingerprint = 0;
  /// Per worker, metadata bytes/messages actually relayed (up: worker ->
  /// coordinator, down: coordinator -> worker).
  std::vector<WorkerTraffic> measured;
  /// Per worker, DistributedPlan::TrafficForRange over the executed
  /// positions.
  std::vector<WorkerTraffic> predicted;
  /// Per worker, sub-factor bytes uploaded at persist boundaries.
  std::vector<uint64_t> measured_persist_bytes;
  /// Per worker, DistributedPlan::PersistBytesForRange over the executed
  /// persist windows.
  std::vector<uint64_t> predicted_persist_bytes;
  /// Wall-clock seconds from the handshake of the fleet that finished the
  /// run (every worker ready) to the final commit: phase2.seconds without
  /// spawning the workers and forming the fleet, so it compares with the
  /// engine's Phase-2 clock. 0 when the run finished single-process.
  double fleet_phase2_seconds = 0.0;

  /// Recovery telemetry. The ledgers above hold only *committed* traffic
  /// (attempts roll back to their last checkpoint on failure), accrued per
  /// current-fleet worker id, so measured == predicted stays exact across
  /// respawns and degrades; bytes a failed attempt moved past its last
  /// checkpoint land in wasted_bytes instead.
  int respawns = 0;
  int degrades = 0;
  /// Workers in the fleet that finished the run (0 when the run degraded
  /// all the way to the in-process engine).
  int final_workers = 0;
  bool finished_single_process = false;
  uint64_t wasted_bytes = 0;

  /// Overlap telemetry (committed attempts only, like the ledgers).
  /// Logical bytes relayed by the background thread inside compute
  /// windows; a subset of the measured down_bytes, which stay exact.
  uint64_t overlapped_bytes = 0;
  /// Wall-clock seconds of background relay work that finished before the
  /// wave's collection did — time an unpipelined exchange would have
  /// appended to the critical path.
  double hidden_seconds = 0.0;
};

/// Runs Phase 2 of the decomposition in `factors` across
/// `dopts.num_workers` workers. `factors` must already hold the Phase-1
/// block factors (and, when options.resume_phase2 is set, whatever
/// sub-factor state the previous run persisted). On success the store
/// holds the final sub-factors and a plain (checkpoint-free) manifest,
/// byte-identical to a single-process run of the same plan.
Status RunDistributedPhase2(BlockFactorStore* factors,
                            const TwoPhaseCpOptions& options,
                            const DistributedRunOptions& dopts,
                            DistributedRunResult* result);

/// The fleet as a Session solver: "2pcp" with Phase 2 run by
/// RunDistributedPhase2 and Phase 1 in-process (skipped on resume_phase2).
/// Session::Decompose(&solver, options) then owns the factor-store
/// lifecycle as for any solver, so the store is byte-identical to a "2pcp"
/// run's, MANIFEST included. The result has no buffer_stats or swap
/// counts: the buffer pools live in the workers. Not in the registry — a
/// fleet needs a spawner, which is not a string param.
class DistributedSolver : public TwoPhaseSolver {
 public:
  explicit DistributedSolver(DistributedRunOptions fleet)
      : fleet_(std::move(fleet)) {}

  const char* name() const override { return "dist"; }

  /// The fleet's side of the last Phase 2 this solver ran: wire ledgers,
  /// recovery and overlap telemetry.
  const DistributedRunResult& dist_result() const { return dist_; }

 protected:
  Phase2Runner Phase2() override;

 private:
  DistributedRunOptions fleet_;
  DistributedRunResult dist_;
};

}  // namespace tpcp

#endif  // TPCP_DIST_COORDINATOR_H_
