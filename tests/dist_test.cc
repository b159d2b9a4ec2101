// Distributed Phase 2 (dist/coordinator.h + dist/worker.h). The claims
// under test are the subsystem's whole contract:
//
//   * a 2- and a 4-worker run produce factors, fit traces and convergence
//     outcomes bit-identical to a single-process Phase2Engine run of the
//     same fingerprinted plan,
//   * the coordinator's measured exchange-byte ledger equals the cluster
//     traffic model's prediction exactly (bytes and messages, up, down
//     and persist) — the property `plan --workers` summaries rely on,
//   * with supervision off, a worker crash mid-wave surfaces as a clean
//     coordinator error (no hang, worker named), leaves the base store
//     exactly at the last checkpoint, and a single-process resume
//     completes bit-identically to an uninterrupted run,
//   * with supervision on, the coordinator recovers *in-run*: it respawns
//     the fleet from the last checkpoint, degrades to a smaller fleet
//     (re-planned ownership, re-priced ledger), or finishes in-process —
//     and every recovered run stays bit-identical to an uninterrupted
//     one, with measured == predicted on the committed ledger,
//   * scripted channel chaos (drop/delay/garbage/disconnect, at wave
//     boundaries and mid-wave) is either absorbed or recovered from; the
//     run still completes bit-identically,
//   * transient storage faults are absorbed below the protocol by the
//     retry layer (no respawn needed), the coordinator's own store writes
//     included,
//   * an engine cancel and a fleet crash at the same vi boundary cut the
//     same checkpoint over the same sub-factor bytes,
//   * dead metadata absorbs are pruned on block-centric schedules: the
//     relay moves strictly fewer bytes than the unpruned protocol while
//     measured == predicted stays exact and the math does not move,
//   * Session runs the fleet as a solver (dist/coordinator.h): its
//     factor store is byte-identical to a "2pcp" run's, MANIFEST included,
//     and a failed fleet leaves the session no factor store.
//
// Workers run as in-process threads here (ServeDistWorker is the exact
// code path the spawned `tpcp_tool dist-worker` processes execute); the
// tool-level fork/exec path is exercised by the CI dist-smoke and
// chaos-smoke jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/cancellation.h"
#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/exchange.h"
#include "dist/faulty_channel.h"
#include "dist/worker.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "grid/manifest.h"
#include "schedule/planner.h"
#include "storage/env_uri.h"
#include "storage/faulty_env.h"
#include "storage/retry_env.h"
#include "scratch_dir.h"

namespace tpcp {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kParts = 4;
constexpr uint64_t kGenSeed = 31;

TwoPhaseCpOptions DistOptions() {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 8;
  options.seed = kGenSeed;
  // Mode-centric: multi-step conflict-free waves, so the wave relay and
  // the absorb path actually carry several owners' images per wave.
  options.schedule = ScheduleType::kModeCentric;
  options.buffer_fraction = 0.5;  // workers must actually swap
  options.max_virtual_iterations = 4;
  options.fit_tolerance = -1.0;  // fixed work: never converge early
  return options;
}

/// Fiber order: singleton waves, and units that refresh once per slab
/// block per cycle, so most images die before any peer reads them.
TwoPhaseCpOptions FiberOrderOptions() {
  TwoPhaseCpOptions options = DistOptions();
  options.schedule = ScheduleType::kFiberOrder;
  options.max_virtual_iterations = 2;
  return options;
}

GridPartition TestGrid() {
  auto grid = GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts);
  EXPECT_TRUE(grid.ok());
  return *grid;
}

/// Generates the synthetic input tensor into `env` and runs Phase 1, so
/// the factor store at "f" holds the block factors every Phase-2 variant
/// starts from. Deterministic: two envs prepared this way are identical.
void PreparePhase1Store(Env* env, const TwoPhaseCpOptions& options,
                        const GridPartition& grid = TestGrid()) {
  BlockTensorStore input(env, "t", grid);
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = options.rank;
  spec.noise_level = 0.05;
  spec.seed = kGenSeed;
  ASSERT_TRUE(GenerateLowRankIntoStore(spec, &input).ok());
  BlockFactorStore factors(env, "f", grid, options.rank);
  TwoPhaseCp cp(&input, &factors, options);
  ASSERT_TRUE(cp.RunPhase1().ok());
}

/// Uninterrupted single-process reference run in its own posix env at
/// `root`.
OpenedEnv RunEngineReference(const std::string& root,
                             const TwoPhaseCpOptions& options,
                             Phase2Result* reference,
                             const GridPartition& grid = TestGrid()) {
  auto env = OpenEnv("posix://" + root);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options, grid);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);
  Phase2Engine engine(&factors, options);
  EXPECT_TRUE(engine.Run(reference).ok());
  return std::move(*env);
}

/// Fault-injection plan for one in-process fleet: which worker misbehaves,
/// how, and whether on every (re)spawn or only the first.
struct SpawnFaults {
  int crash_worker = -1;
  int64_t crash_at_step = -1;
  bool crash_every_spawn = false;
  int chaos_worker = -1;
  ChaosSchedule chaos;
  bool chaos_every_spawn = false;
};

/// In-process worker fleet: each spawn runs ServeDistWorker on a thread
/// against the shared base env, exactly as a forked dist-worker process
/// would against its own mapping of the store directory.
struct WorkerFleet {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<Status> statuses;
  std::map<int, int> spawn_counts;

  void Join() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  ~WorkerFleet() { Join(); }
};

std::function<Status(int, int)> SpawnInProcess(WorkerFleet* fleet, Env* env,
                                               SpawnFaults faults = {}) {
  return [fleet, env, faults](int port, int worker) {
    const int spawn_index = fleet->spawn_counts[worker]++;
    DistWorkerHooks hooks;
    if (worker == faults.crash_worker &&
        (faults.crash_every_spawn || spawn_index == 0)) {
      hooks.crash_at_step = faults.crash_at_step;
    }
    if (worker == faults.chaos_worker &&
        (faults.chaos_every_spawn || spawn_index == 0)) {
      hooks.chaos = faults.chaos;
    }
    fleet->threads.emplace_back([fleet, env, hooks, port, worker] {
      const Status status = ServeDistWorker(env, "f", port, worker, hooks);
      std::lock_guard<std::mutex> lock(fleet->mu);
      fleet->statuses.push_back(status);
    });
    return Status::OK();
  };
}

void ExpectFactorsBitIdentical(Env* lhs_env, Env* rhs_env, int64_t rank,
                               const GridPartition& grid = TestGrid()) {
  BlockFactorStore lhs(lhs_env, "f", grid, rank);
  BlockFactorStore rhs(rhs_env, "f", grid, rank);
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto a = lhs.ReadSubFactor(mode, part);
      auto b = rhs.ReadSubFactor(mode, part);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_TRUE(*a == *b) << "mode " << mode << " part " << part;
    }
  }
}

/// Measured == predicted, exactly, for every worker slot of the ledger.
void ExpectLedgerExact(const DistributedRunResult& result) {
  ASSERT_EQ(result.measured.size(), result.predicted.size());
  for (size_t w = 0; w < result.measured.size(); ++w) {
    EXPECT_EQ(result.measured[w].up_bytes, result.predicted[w].up_bytes)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].down_bytes, result.predicted[w].down_bytes)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].up_messages, result.predicted[w].up_messages)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].down_messages,
              result.predicted[w].down_messages)
        << "worker " << w;
    EXPECT_EQ(result.measured_persist_bytes[w],
              result.predicted_persist_bytes[w])
        << "worker " << w;
  }
}

void ExpectPhase2Equal(const Phase2Result& got, const Phase2Result& want) {
  EXPECT_EQ(got.virtual_iterations, want.virtual_iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.surrogate_fit, want.surrogate_fit);
  EXPECT_EQ(got.fit_trace, want.fit_trace);
  EXPECT_EQ(got.start_iteration, want.start_iteration);
}

bool LogsContain(const std::vector<std::string>& logs,
                 const std::string& needle) {
  for (const std::string& line : logs) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// The plan both the engine and the coordinator derive from `options` —
/// rebuilt here so tests can reason about positions and fingerprints.
ExecutionPlan PlanFor(const TwoPhaseCpOptions& options,
                      const GridPartition& grid = TestGrid()) {
  return Planner::Build(UpdateSchedule::Create(options.schedule, grid),
                        Phase2PlannerOptions(options, grid));
}

/// First plan position in the second virtual iteration owned by worker 1
/// of a 2-worker fleet (per the weighted ownership map) — a mid-wave
/// crash point *after* the vi-0 checkpoint exists.
int64_t CrashPosInSecondVi(const ExecutionPlan& plan, int64_t rank) {
  const DistributedPlan dplan(&plan, rank, 2);
  const int64_t vi_len = plan.virtual_iteration_length();
  for (int64_t pos = vi_len; pos < 2 * vi_len; ++pos) {
    if (dplan.OwnerAt(pos) == 1) return pos;
  }
  return -1;
}

/// The frame counter ChaosEvent::at_frame keys on for a fresh attempt:
/// the index, among the frames `worker` receives, of the first absorb
/// relayed to it in virtual iteration `vi`. Per wave a worker receives
/// "wave", one frame per live absorb, then "wave_commit"; each vi ends
/// with "vi_end" and "persist". -1 when there is no such absorb, or an
/// image would span more than one chunk.
int64_t FirstAbsorbRecvFrame(const ExecutionPlan& plan,
                             const DistributedPlan& dplan, int worker,
                             int64_t vi) {
  const int64_t vi_len = plan.virtual_iteration_length();
  int64_t frame = 1;  // after "init"
  for (int64_t pos = 0; pos < (vi + 1) * vi_len;) {
    const int64_t end =
        std::min(plan.WaveEndAfter(pos), (pos / vi_len + 1) * vi_len);
    ++frame;  // "wave"
    for (int64_t p = pos; p < end; ++p) {
      if (dplan.OwnerAt(p) == worker || !dplan.ImageLiveFor(p, worker)) {
        continue;
      }
      if (dplan.StepExchangeBytes(p) > kDistChunkBytes) return -1;
      if (p >= vi * vi_len) return frame;
      ++frame;
    }
    ++frame;  // "wave_commit"
    pos = end;
    if (pos % vi_len == 0) frame += 2;  // "vi_end", "persist"
  }
  return -1;
}

TEST(DistPhase2Test, WorkersProduceBitIdenticalFactorsAndExactByteLedger) {
  const ScratchDir scratch;
  const GridPartition grid = TestGrid();

  // Mode-centric (multi-step waves) and fiber-order (singleton waves,
  // whose relays the liveness analysis prunes).
  for (const TwoPhaseCpOptions& reference_options :
       {DistOptions(), FiberOrderOptions()}) {
    const std::string schedule = ScheduleTypeName(reference_options.schedule);
    SCOPED_TRACE(schedule);
    Phase2Result reference;
    OpenedEnv ref_env =
        RunEngineReference(scratch.path() + "dist_ref_" + schedule,
                           reference_options, &reference);
    ASSERT_EQ(reference.virtual_iterations,
              reference_options.max_virtual_iterations);
    const ExecutionPlan plan = PlanFor(reference_options);

    // The fleet's pipelines prefetch at depth 2 on two I/O threads against
    // the depth-0 engine reference: depth only moves I/O timing, never
    // bits.
    for (const int depth : {0, 2}) {
      for (const int workers : {2, 4}) {
        TwoPhaseCpOptions options = reference_options;
        options.prefetch_depth = depth;
        options.io_threads = 2;
        const std::string root = scratch.path() + "dist_" + schedule + "_w" +
                                 std::to_string(workers) + "_d" +
                                 std::to_string(depth);
        auto env = OpenEnv("posix://" + root);
        ASSERT_TRUE(env.ok()) << env.status().ToString();
        PreparePhase1Store(env->get(), options);
        BlockFactorStore factors(env->get(), "f", grid, options.rank);

        WorkerFleet fleet;
        DistributedRunOptions dopts;
        dopts.num_workers = workers;
        dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
        DistributedRunResult result;
        const Status status =
            RunDistributedPhase2(&factors, options, dopts, &result);
        fleet.Join();
        ASSERT_TRUE(status.ok()) << workers << " workers at depth " << depth
                                 << ": " << status.ToString();
        ASSERT_EQ(fleet.statuses.size(), static_cast<size_t>(workers));
        for (const Status& worker_status : fleet.statuses) {
          EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
        }

        // Engine-equivalent result, bit for bit; a clean run reports no
        // recovery activity.
        ExpectPhase2Equal(result.phase2, reference);
        EXPECT_EQ(result.plan_fingerprint, plan.fingerprint());
        EXPECT_EQ(result.respawns, 0);
        EXPECT_EQ(result.degrades, 0);
        EXPECT_EQ(result.final_workers, workers);
        EXPECT_FALSE(result.finished_single_process);
        EXPECT_EQ(result.wasted_bytes, 0u);
        ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);

        // The byte ledger: what the coordinator counted on the wire equals
        // what DistributedPlan predicted, exactly, per worker.
        ASSERT_EQ(result.measured.size(), static_cast<size_t>(workers));
        ExpectLedgerExact(result);
        for (int w = 0; w < workers; ++w) {
          // The run did move data: every worker uploaded something at some
          // persist boundary unless it owns nothing (possible only when
          // workers > partitions, not the case here).
          EXPECT_GT(result.measured[static_cast<size_t>(w)].up_bytes +
                        result.measured[static_cast<size_t>(w)].down_bytes,
                    0u);
        }
      }
    }
  }
}

TEST(DistPhase2Test, WorkerCrashMidWaveFailsCleanAndResumesBitIdentical) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_crash_ref",
                         options, &reference);

  // Crash worker 1 just before its first owned step of the second virtual
  // iteration — after the vi-0 checkpoint exists, in the middle of a wave.
  const ExecutionPlan plan = PlanFor(options);
  const int64_t vi_len = plan.virtual_iteration_length();
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0) << "worker 1 owns nothing in vi 1?";

  const GridPartition grid = TestGrid();
  const std::string root = scratch.path() + "dist_crash";
  auto env = OpenEnv("posix://" + root);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  {
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    // Supervision off: this test pins the *unsupervised* contract — fail
    // clean, leave the checkpoint, let the operator resume.
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();
    // Clean coordinator error naming the worker — not OK, not a hang
    // (the test's own timeout enforces the latter).
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("dist worker"), std::string::npos)
        << status.ToString();
  }

  // The base store sits exactly at the last checkpoint: the vi-0 cut,
  // with its cursor and one-entry fit trace.
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(manifest->checkpoint.has_value())
      << "crash erased the checkpoint";
  EXPECT_EQ(manifest->checkpoint->iteration, 1);
  EXPECT_EQ(manifest->checkpoint->cursor, vi_len);
  EXPECT_EQ(manifest->checkpoint->fit_trace.size(), 1u);
  EXPECT_EQ(manifest->checkpoint->plan_fingerprint, plan.fingerprint());

  // A plain single-process resume picks the checkpoint up and finishes
  // bit-identically to the uninterrupted run.
  TwoPhaseCpOptions resume_options = options;
  resume_options.resume_phase2 = true;
  Phase2Result resumed;
  ASSERT_TRUE(Phase2Engine(&factors, resume_options).Run(&resumed).ok());
  EXPECT_EQ(resumed.start_iteration, 1);
  EXPECT_EQ(resumed.virtual_iterations, reference.virtual_iterations);
  EXPECT_EQ(resumed.surrogate_fit, reference.surrogate_fit);
  EXPECT_EQ(resumed.fit_trace, reference.fit_trace);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

TEST(DistPhase2Test, SupervisorRespawnsCrashedWorkerInRunBitIdentical) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_respawn_ref",
                         options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_respawn");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;  // first spawn only: the respawn is clean
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  // No operator in the loop: the run completes by itself.
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 0);
  EXPECT_EQ(result.final_workers, 2);
  EXPECT_FALSE(result.finished_single_process);
  // The crashed attempt had moved wave bytes past the vi-0 checkpoint;
  // those were rolled back into wasted_bytes, keeping the committed
  // ledger exact.
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet of 2")) << logs.size();

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);

  // The recovered store carries a plain manifest — no checkpoint residue.
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(manifest->checkpoint.has_value());
}

TEST(DistPhase2Test, SupervisorDegradesToSmallerFleetBitIdentical) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_shrink_ref",
                         options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_shrink");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;
  faults.crash_every_spawn = true;  // worker 1 is a lemon: every spawn dies
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.max_respawns = 1;
  dopts.degrade = DegradeMode::kShrink;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  // One respawn (crashes again), then the supervisor sheds worker 1 and
  // the single-worker fleet finishes: re-planned ownership, re-priced
  // ledger, same bytes in the store.
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 1);
  EXPECT_EQ(result.final_workers, 1);
  EXPECT_FALSE(result.finished_single_process);
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "degrading to 1 worker(s)"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  // Worker 0's slots carry the committed 2-worker windows plus the
  // re-priced 1-worker remainder; worker 1's slots carry only its
  // committed windows. Exact either way.
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, SupervisorFallsBackToSingleProcessBitIdentical) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_single_ref",
                         options, &reference);

  // Crash in the *first* virtual iteration: no checkpoint exists yet, so
  // the fallback engine resumes from the coordinator's fresh-run seeds —
  // the no-checkpoint resume path.
  const ExecutionPlan plan = PlanFor(options);
  int64_t crash_pos = -1;
  for (int64_t pos = 0; pos < plan.virtual_iteration_length(); ++pos) {
    if (plan.UnitAt(pos).part % 2 == 1) {
      crash_pos = pos;
      break;
    }
  }
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_single");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;
  faults.crash_every_spawn = true;
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kSingle;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_EQ(result.degrades, 1);
  EXPECT_EQ(result.final_workers, 0);
  EXPECT_TRUE(result.finished_single_process);
  EXPECT_TRUE(LogsContain(logs, "single-process finish"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

TEST(DistPhase2Test, ChannelChaosIsAbsorbedOrRecoveredBitIdentical) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_chaos_ref",
                         options, &reference);
  const GridPartition grid = TestGrid();

  struct Case {
    const char* name;
    ChaosEvent event;
    bool expect_recovery;  // else the fault must be absorbed silently
  };
  // Worker-1 send frames: 0 hello, 1 ready, 2.. first-wave xchg images,
  // then wave_done/wave_ack/… — so index 0 hits fleet formation, 2 hits
  // the first image of a wave (a wave boundary), and higher indices land
  // mid-protocol. Recv frames: 0 init, 1 first wave, 2 first absorb.
  const std::vector<Case> cases = {
      {"drop_hello_at_formation",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kSend, 0, 0},
       true},
      {"drop_first_wave_image",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kSend, 2, 0},
       true},
      {"drop_absorb_mid_wave",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kRecv, 2, 0},
       true},
      {"garbage_mid_wave",
       {ChaosEvent::Op::kGarbage, ChaosEvent::Dir::kSend, 5, 0},
       true},
      {"disconnect_mid_run",
       {ChaosEvent::Op::kDisconnect, ChaosEvent::Dir::kSend, 10, 0},
       true},
      {"delay_absorbed_by_heartbeats",
       {ChaosEvent::Op::kDelay, ChaosEvent::Dir::kSend, 3, 1500},
       false},
  };

  int case_index = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto env = OpenEnv("posix://" + scratch.path() + "dist_chaos_" +
                       std::to_string(case_index++));
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    PreparePhase1Store(env->get(), options);
    BlockFactorStore factors(env->get(), "f", grid, options.rank);

    WorkerFleet fleet;
    SpawnFaults faults;
    faults.chaos_worker = 1;
    faults.chaos.events.push_back(c.event);
    std::vector<std::string> logs;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.heartbeat_ms = 100;  // coordinator deadline 1s, worker 6s
    dopts.accept_timeout_ms = 1500;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();

    ASSERT_TRUE(status.ok()) << status.ToString();
    if (c.expect_recovery) {
      EXPECT_GE(result.respawns, 1);
      EXPECT_TRUE(LogsContain(logs, "respawning fleet"));
    } else {
      EXPECT_EQ(result.respawns, 0);
      EXPECT_TRUE(logs.empty());
    }
    EXPECT_EQ(result.degrades, 0);
    ExpectPhase2Equal(result.phase2, reference);
    ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
    ExpectLedgerExact(result);
  }
}

TEST(DistPhase2Test, TransientStorageFaultsAbsorbedWithoutRecovery) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_flaky_ref",
                         options, &reference);
  const GridPartition grid = TestGrid();

  auto base = OpenEnv("posix://" + scratch.path() + "dist_flaky");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  PreparePhase1Store(base->get(), options);  // fault-free preparation

  // Every 7th read and every 9th write fails once, run-wide. Workers read
  // the base store through their built-in retry layer; the coordinator's
  // store writes go through an explicit RetryEnv. No fault ever reaches
  // the protocol, so supervision has nothing to do — prove it by turning
  // it off.
  FaultyEnv flaky(base->get());
  flaky.TransientReadFaultEvery(7);
  flaky.TransientWriteFaultEvery(9);
  RetryEnv coordinator_env(&flaky, RetryPolicy());
  BlockFactorStore factors(&coordinator_env, "f", grid, options.rank);

  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kOff;
  dopts.spawn_worker = SpawnInProcess(&fleet, &flaky);
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_EQ(result.degrades, 0);
  for (const Status& worker_status : fleet.statuses) {
    EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
  }
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), base->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, TransientCoordinatorWriteFaultsAreRetried) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_flaky_coord_ref",
                         options, &reference);
  const GridPartition grid = TestGrid();

  auto base = OpenEnv("posix://" + scratch.path() + "dist_flaky_coord");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  PreparePhase1Store(base->get(), options);  // fault-free preparation

  // The coordinator's store sits directly on the faulty env: the seed
  // writes, the staged sub-factor writes and the manifest writes must all
  // retry inside the coordinator, or a transient fault fails the run.
  FaultyEnv flaky(base->get());
  flaky.TransientReadFaultEvery(7);
  flaky.TransientWriteFaultEvery(9);
  BlockFactorStore factors(&flaky, "f", grid, options.rank);

  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kOff;
  dopts.spawn_worker = SpawnInProcess(&fleet, &flaky);
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_EQ(result.degrades, 0);
  for (const Status& worker_status : fleet.statuses) {
    EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
  }
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), base->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, DeadAbsorbPruningShrinksLedgerAndPreservesMath) {
  const ScratchDir scratch;
  // Block-centric schedule: units refresh once per slab block per cycle,
  // so most images die before anyone reads them — the pruning win the
  // mode-centric tests cannot show (there every image is fit-live and the
  // existing hand-count ledger tests pin the no-op).
  const TwoPhaseCpOptions options = FiberOrderOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_prune_ref",
                         options, &reference);
  const GridPartition grid = TestGrid();

  auto env = OpenEnv("posix://" + scratch.path() + "dist_prune");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Pruning is pure bandwidth: the math does not move.
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  // And the model still prices the relay exactly.
  ExpectLedgerExact(result);

  // The relay moved strictly fewer bytes than the unpruned protocol
  // (every non-owner downloads every image) would have.
  const ExecutionPlan plan = PlanFor(options);
  const DistributedPlan dplan(&plan, options.rank, 2);
  const int64_t executed = static_cast<int64_t>(
      result.phase2.virtual_iterations * plan.virtual_iteration_length());
  uint64_t unpruned_down = 0;
  uint64_t live_down = 0;
  for (int64_t pos = 0; pos < executed; ++pos) {
    for (int v = 0; v < 2; ++v) {
      if (dplan.OwnerAt(pos) == v) continue;
      unpruned_down += dplan.StepExchangeBytes(pos);
      if (dplan.ImageLiveFor(pos, v)) {
        live_down += dplan.StepExchangeBytes(pos);
      }
    }
  }
  const uint64_t measured_down =
      result.measured[0].down_bytes + result.measured[1].down_bytes;
  EXPECT_EQ(measured_down, live_down);
  EXPECT_LT(measured_down, unpruned_down)
      << "fiber-order run relayed every image — pruning did nothing";
}

TEST(DistPhase2Test, FiberOrderSupervisorRecoveryBitIdentical) {
  const ScratchDir scratch;
  // A worker dies mid-vi on a fiber-order plan: the supervisor must tear
  // down, roll the ledger back to the vi-0 checkpoint, and replay
  // byte-identically.
  const TwoPhaseCpOptions options = FiberOrderOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_fo_crash_ref",
                         options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  // Strictly past the first step of vi 1: fiber-order waves are
  // singletons, so a crash at vi 1's very first step would waste nothing
  // — at least one committed-then-rolled-back step must precede it.
  const DistributedPlan dplan(&plan, options.rank, 2);
  const int64_t vi_len = plan.virtual_iteration_length();
  int64_t crash_pos = -1;
  for (int64_t pos = vi_len + 1; pos < 2 * vi_len; ++pos) {
    if (dplan.OwnerAt(pos) == 1) {
      crash_pos = pos;
      break;
    }
  }
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_fo_crash");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;  // first spawn only
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status =
      RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 0);
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet of 2"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, ChaosDisconnectMidRelayRecoversExactly) {
  const ScratchDir scratch;
  // A disconnect landing while a wave's absorbs are being relayed: the
  // bytes relayed so far were already counted on the wire, so the
  // rollback must move exactly them (plus the rest of the attempt past its
  // checkpoint) into wasted_bytes, keeping the committed ledger exact —
  // and the replay must stay bit-identical.
  const TwoPhaseCpOptions options = FiberOrderOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_fo_chaos_ref",
                         options, &reference);
  const GridPartition grid = TestGrid();

  auto env = OpenEnv("posix://" + scratch.path() + "dist_fo_chaos");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  // Worker 1's first absorb of vi 1: past the vi-0 checkpoint, inside
  // that wave's relay.
  const ExecutionPlan plan = PlanFor(options);
  const int64_t at_frame = FirstAbsorbRecvFrame(
      plan, DistributedPlan(&plan, options.rank, 2), /*worker=*/1, /*vi=*/1);
  ASSERT_GE(at_frame, 0);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.chaos_worker = 1;
  faults.chaos.events.push_back(
      {ChaosEvent::Op::kDisconnect, ChaosEvent::Dir::kRecv, at_frame, 0});
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.accept_timeout_ms = 1500;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status =
      RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(result.respawns, 1);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet"));
  // The severed attempt had relayed bytes (possibly half an image set);
  // they rolled into wasted_bytes, not the committed ledger.
  EXPECT_GT(result.wasted_bytes, 0u);

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, ResumeUnderDifferentOwnershipMapIsRejected) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  // Crash an unsupervised 2-worker run after the vi-0 checkpoint: the
  // manifest now records the 2-worker ownership fingerprint.
  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_own_resume");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);
  {
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    DistributedRunResult result;
    ASSERT_FALSE(
        RunDistributedPhase2(&factors, options, dopts, &result).ok());
    fleet.Join();
  }
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->checkpoint.has_value());
  EXPECT_NE(manifest->checkpoint->ownership_fingerprint, 0u);

  // Resuming with a different fleet size would replay the cursor against
  // a different ownership map: rejected before any worker spawns.
  TwoPhaseCpOptions resume_options = options;
  resume_options.resume_phase2 = true;
  {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = 3;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, resume_options, dopts, &result);
    fleet.Join();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.ToString().find("ownership"), std::string::npos)
        << status.ToString();
  }

  // The original fleet size picks the checkpoint up and finishes
  // bit-identically to an uninterrupted run.
  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_own_resume_ref",
                         options, &reference);
  {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, resume_options, dopts, &result);
    fleet.Join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(result.phase2.start_iteration, 1);
    EXPECT_EQ(result.phase2.surrogate_fit, reference.surrogate_fit);
    EXPECT_EQ(result.phase2.fit_trace, reference.fit_trace);
  }
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

// Both runners load a resume with the one Phase2Progress::Load, so a
// tampered checkpoint is refused by the single-process engine and by the
// dist coordinator with the same Status. The ownership map is checked on
// dist resumes only: the engine finishes any fleet's checkpoint.
TEST(DistPhase2Test, EngineAndFleetRejectTheSameTamperedCheckpoints) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();
  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  // A genuine 2-worker checkpoint: the vi-0 cut of an unsupervised run
  // whose worker 1 crashes in vi 1.
  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + scratch.path() + "dist_tamper");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);
  {
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    DistributedRunResult result;
    ASSERT_FALSE(
        RunDistributedPhase2(&factors, options, dopts, &result).ok());
    fleet.Join();
  }
  auto cut = ReadManifest(env->get(), "f");
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_TRUE(cut->checkpoint.has_value());
  const StoreManifest genuine = *cut;

  TwoPhaseCpOptions resume_options = options;
  resume_options.resume_phase2 = true;
  auto run_engine = [&] {
    Phase2Result result;
    return Phase2Engine(&factors, resume_options).Run(&result);
  };
  auto run_fleet = [&] {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, resume_options, dopts, &result);
    fleet.Join();
    return status;
  };

  struct Case {
    std::string name;
    std::function<void(StoreManifest*)> tamper;
    StatusCode want;
  };
  const int64_t vi_len = plan.virtual_iteration_length();
  const std::vector<Case> cases = {
      {"schedule",
       [](StoreManifest* m) { m->checkpoint->schedule = "zo"; },
       StatusCode::kFailedPrecondition},
      {"options fingerprint",
       [](StoreManifest* m) { m->checkpoint->options_fingerprint ^= 1; },
       StatusCode::kFailedPrecondition},
      {"plan fingerprint",
       [](StoreManifest* m) { m->checkpoint->plan_fingerprint ^= 1; },
       StatusCode::kFailedPrecondition},
      {"cursor/iteration",
       [vi_len](StoreManifest* m) { m->checkpoint->cursor += vi_len; },
       StatusCode::kCorruption},
      {"grid",
       [](StoreManifest* m) {
         auto other = GridPartition::CreateUniform(
             Shape({kDim, kDim, kDim}), kParts / 2);
         ASSERT_TRUE(other.ok());
         m->grid = *other;
       },
       StatusCode::kFailedPrecondition},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StoreManifest tampered = genuine;
    c.tamper(&tampered);
    ASSERT_TRUE(WriteManifest(env->get(), "f", tampered).ok());
    const Status engine = run_engine();
    const Status fleet = run_fleet();
    EXPECT_EQ(engine.code(), c.want) << engine.ToString();
    EXPECT_EQ(fleet.code(), engine.code()) << fleet.ToString();
    EXPECT_EQ(fleet.ToString(), engine.ToString());
  }

  // Ownership: another fleet's map is refused by the coordinator, but the
  // engine — the degrade floor — picks the checkpoint up and finishes.
  StoreManifest other_fleet = genuine;
  other_fleet.checkpoint->ownership_fingerprint ^= 1;
  ASSERT_TRUE(WriteManifest(env->get(), "f", other_fleet).ok());
  const Status fleet = run_fleet();
  EXPECT_EQ(fleet.code(), StatusCode::kFailedPrecondition)
      << fleet.ToString();
  EXPECT_NE(fleet.ToString().find("ownership"), std::string::npos)
      << fleet.ToString();
  const Status engine = run_engine();
  EXPECT_TRUE(engine.ok()) << engine.ToString();
}

TEST(DistPhase2Test, SkewedStoreFleetSizesBitIdentical) {
  const ScratchDir scratch;
  // One giant part: mode 0 is a single unit spanning twice the dim, so
  // part % N would pile its every step *and* every part-0 step onto
  // worker 0. The weighted map spreads the rest; the math must not care
  // either way, for 2 and 4 workers.
  auto skew = GridPartition::Create(Shape({2 * kDim, kDim, kDim}),
                                    {1, kParts, kParts});
  ASSERT_TRUE(skew.ok()) << skew.status().ToString();
  const TwoPhaseCpOptions options = FiberOrderOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference(scratch.path() + "dist_skew_ref",
                         options, &reference, *skew);

  for (const int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto env = OpenEnv("posix://" + scratch.path() + "dist_skew_w" +
                       std::to_string(workers));
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    PreparePhase1Store(env->get(), options, *skew);
    BlockFactorStore factors(env->get(), "f", *skew, options.rank);

    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = workers;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectPhase2Equal(result.phase2, reference);
    ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank,
                              *skew);
    ExpectLedgerExact(result);
  }
}

/// A session over a fresh posix store at `root` holding the test tensor
/// (tensor prefix "t", factor prefix "f", as the in-process workers
/// expect).
std::unique_ptr<Session> OpenGeneratedSession(
    const std::string& root, const TwoPhaseCpOptions& options) {
  SessionOptions session_options;
  session_options.env_uri = "posix://" + root;
  session_options.tensor_prefix = "t";
  session_options.factor_prefix = "f";
  auto session = Session::Open(session_options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  auto store = (*session)->CreateTensorStore(TestGrid());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  LowRankSpec spec;
  spec.shape = TestGrid().tensor_shape();
  spec.rank = options.rank;
  spec.noise_level = 0.05;
  spec.seed = kGenSeed;
  EXPECT_TRUE(GenerateLowRankIntoStore(spec, *store).ok());
  return std::move(*session);
}

/// Every file of the factor store, by name.
std::map<std::string, std::string> FactorFiles(Env* env) {
  std::map<std::string, std::string> files;
  for (const std::string& name : env->ListFiles("f/")) {
    EXPECT_TRUE(env->ReadFile(name, &files[name]).ok()) << name;
  }
  return files;
}

TEST(DistPhase2Test, SessionRunsTheFleetAsASolverByteIdenticalTo2pcp) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();

  std::unique_ptr<Session> engine =
      OpenGeneratedSession(scratch.path() + "dist_session_2pcp", options);
  const Result<SolveResult> reference = engine->Decompose("2pcp", options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::unique_ptr<Session> session =
      OpenGeneratedSession(scratch.path() + "dist_session_fleet", options);
  // Like "2pcp", the fleet takes no solver params: Prepare refuses one
  // before anything is spawned.
  {
    DistributedSolver solver{DistributedRunOptions()};
    const Result<SolveResult> run =
        session->Decompose(&solver, options, {{"x", "1"}});
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.spawn_worker = SpawnInProcess(&fleet, session->env());
    DistributedSolver solver(dopts);
    const Result<SolveResult> run = session->Decompose(&solver, options);
    fleet.Join();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->solver, "dist");
    EXPECT_TRUE(run->factors_persisted);
    EXPECT_EQ(run->blocks_decomposed, reference->blocks_decomposed);
    EXPECT_EQ(run->phase1_mean_block_fit, reference->phase1_mean_block_fit);
    EXPECT_EQ(run->virtual_iterations, reference->virtual_iterations);
    EXPECT_EQ(run->surrogate_fit, reference->surrogate_fit);
    EXPECT_EQ(run->fit_trace, reference->fit_trace);
    for (int mode = 0; mode < TestGrid().num_modes(); ++mode) {
      EXPECT_TRUE(run->decomposition.factor(mode) ==
                  reference->decomposition.factor(mode))
          << "mode " << mode;
    }
    EXPECT_EQ(solver.dist_result().final_workers, 2);
    ExpectLedgerExact(solver.dist_result());
    ASSERT_NE(session->factor_store(), nullptr);
    // The whole factor store, MANIFEST included, is the 2pcp run's.
    const std::map<std::string, std::string> files =
        FactorFiles(session->env());
    EXPECT_EQ(files.count(ManifestFileName("f")), 1u);
    EXPECT_EQ(files, FactorFiles(engine->env()));
  }

  // A fleet that fails (a worker crash, no recovery) fails the Decompose,
  // and the session hands out no store for the half-rewritten blocks.
  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = CrashPosInSecondVi(PlanFor(options), options.rank);
  DistributedRunOptions dopts;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kOff;
  dopts.spawn_worker = SpawnInProcess(&fleet, session->env(), faults);
  DistributedSolver solver(dopts);
  const Result<SolveResult> failed = session->Decompose(&solver, options);
  fleet.Join();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("dist worker"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(session->factor_store(), nullptr);
}


/// Cancels the refinement once it completes iteration `at_vi`, as a
/// JobService cancel would; the engine stops at the next wave boundary.
class CancelAfterIteration : public ProgressObserver {
 public:
  CancelAfterIteration(CancellationToken* token, int at_vi)
      : token_(token), at_vi_(at_vi) {}
  void OnVirtualIteration(int iteration, double fit,
                          uint64_t swap_ins) override {
    (void)fit;
    (void)swap_ins;
    if (iteration >= at_vi_) token_->Cancel();
  }

 private:
  CancellationToken* token_;
  int at_vi_;
};

// The engine and the fleet commit through one Phase2Progress: an engine
// cancelled after vi 0 and a fleet that crashes in vi 1 leave the same
// checkpoint and the same files, told apart only by the ownership map.
TEST(DistPhase2Test, EngineAndFleetCutTheSameCheckpoint) {
  const ScratchDir scratch;
  const TwoPhaseCpOptions options = DistOptions();
  const GridPartition grid = TestGrid();
  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  auto engine_env = OpenEnv("posix://" + scratch.path() +
                            "dist_cut_engine");
  ASSERT_TRUE(engine_env.ok()) << engine_env.status().ToString();
  PreparePhase1Store(engine_env->get(), options);
  {
    CancellationToken token;
    CancelAfterIteration canceller(&token, 1);
    TwoPhaseCpOptions engine_options = options;
    engine_options.cancel = &token;
    engine_options.observer = &canceller;
    BlockFactorStore factors(engine_env->get(), "f", grid, options.rank);
    Phase2Result result;
    const Status status = Phase2Engine(&factors, engine_options).Run(&result);
    ASSERT_TRUE(status.IsCancelled()) << status.ToString();
  }

  auto fleet_env = OpenEnv("posix://" + scratch.path() +
                           "dist_cut_fleet");
  ASSERT_TRUE(fleet_env.ok()) << fleet_env.status().ToString();
  PreparePhase1Store(fleet_env->get(), options);
  {
    BlockFactorStore factors(fleet_env->get(), "f", grid, options.rank);
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, fleet_env->get(), faults);
    DistributedRunResult result;
    ASSERT_FALSE(
        RunDistributedPhase2(&factors, options, dopts, &result).ok());
    fleet.Join();
  }

  auto engine_cut = ReadManifest(engine_env->get(), "f");
  auto fleet_cut = ReadManifest(fleet_env->get(), "f");
  ASSERT_TRUE(engine_cut.ok()) << engine_cut.status().ToString();
  ASSERT_TRUE(fleet_cut.ok()) << fleet_cut.status().ToString();
  EXPECT_TRUE(engine_cut->grid == fleet_cut->grid);
  EXPECT_EQ(engine_cut->rank, fleet_cut->rank);
  ASSERT_TRUE(engine_cut->checkpoint.has_value());
  ASSERT_TRUE(fleet_cut->checkpoint.has_value());
  const Phase2Checkpoint& engine = *engine_cut->checkpoint;
  const Phase2Checkpoint& dist = *fleet_cut->checkpoint;
  EXPECT_EQ(engine.iteration, 1);
  EXPECT_EQ(engine.cursor, plan.virtual_iteration_length());
  EXPECT_EQ(engine.schedule, dist.schedule);
  EXPECT_EQ(engine.iteration, dist.iteration);
  EXPECT_EQ(engine.cursor, dist.cursor);
  EXPECT_EQ(engine.options_fingerprint, dist.options_fingerprint);
  EXPECT_EQ(engine.plan_fingerprint, dist.plan_fingerprint);
  EXPECT_EQ(engine.ownership_fingerprint, 0u);
  EXPECT_NE(dist.ownership_fingerprint, 0u);
  ASSERT_EQ(engine.fit_trace.size(), dist.fit_trace.size());
  for (size_t i = 0; i < engine.fit_trace.size(); ++i) {
    EXPECT_EQ(DoubleBits(engine.fit_trace[i]), DoubleBits(dist.fit_trace[i]))
        << "vi " << i;
  }

  // Every sub-factor (and block-factor) file holds the same bytes.
  std::map<std::string, std::string> engine_files =
      FactorFiles(engine_env->get());
  std::map<std::string, std::string> fleet_files =
      FactorFiles(fleet_env->get());
  EXPECT_EQ(engine_files.erase(ManifestFileName("f")), 1u);
  EXPECT_EQ(fleet_files.erase(ManifestFileName("f")), 1u);
  EXPECT_EQ(engine_files.size(), fleet_files.size());
  EXPECT_TRUE(engine_files == fleet_files);
}

}  // namespace
}  // namespace tpcp
