// Job vocabulary of the asynchronous decomposition front doors.
//
// A *job* is one decomposition — a (storage, solver, options) triple —
// run from submission to a terminal state by a JobService
// (api/job_service.h) or by the tpcpd daemon (server/daemon.h). The
// paper's MapReduce-era baselines inherited the same submit/poll/cancel
// shape from their cluster schedulers; this header defines the request
// (JobSpec), the lifecycle (JobState), the observable snapshot (JobInfo)
// and the one runner both front doors execute a job with (RunJob).
//
// State machine:
//
//   queued ──▶ running ──▶ succeeded
//      │          ├──────▶ failed
//      └──────────┴──────▶ cancelled
//
// Cancellation is cooperative: Cancel on a queued job retires it
// immediately; on a running job it fires the engine's CancellationToken,
// which lands at the next Phase-1 block or Phase-2 schedule-step boundary
// (within one virtual iteration). A cancelled two-phase job leaves its
// factor store resumable — dirty units flushed and a Phase2Checkpoint in
// the store manifest — so resubmitting the same spec continues the
// refinement instead of restarting it.

#ifndef TPCP_API_JOB_H_
#define TPCP_API_JOB_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "api/session.h"
#include "api/solver.h"
#include "core/config.h"
#include "core/progress_observer.h"
#include "util/status.h"

namespace tpcp {

/// Service-scoped job handle, dense from 1 in submission order.
using JobId = int64_t;

/// Lifecycle of a job. kSucceeded / kFailed / kCancelled are terminal.
enum class JobState {
  kQueued = 0,
  kRunning = 1,
  kSucceeded = 2,
  kFailed = 3,
  kCancelled = 4,
};

/// "queued", "running", "succeeded", "failed" or "cancelled".
const char* JobStateName(JobState state);

/// True for the three final states.
inline bool IsTerminal(JobState state) {
  return state == JobState::kSucceeded || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Everything needed to run one decomposition: where the data lives
/// (a SessionOptions the worker opens its own Session from), which solver,
/// and its configuration. Specs are value types — resubmitting a cancelled
/// job is submitting the same spec again.
struct JobSpec {
  /// Storage binding. `session.env`, when set, must outlive the job; so
  /// must `options.observer`. `options.cancel` is owned by whoever runs
  /// the job — any caller-provided token is ignored; use the front
  /// door's Cancel.
  SessionOptions session;
  /// Registry solver name ("2pcp", "naive-oocp", ...).
  std::string solver = "2pcp";
  TwoPhaseCpOptions options;
  /// Solver-specific knobs, forwarded to the solver.
  std::map<std::string, std::string> params;
  /// When the factor store holds a Phase-2 checkpoint that the engine's
  /// resume validator accepts for this spec (same grid, rank, schedule,
  /// math-shaping options and execution plan), engage
  /// options.resume_phase2 automatically so a resubmitted cancelled or
  /// crashed job continues instead of restarting. Set false to force a
  /// fresh run.
  bool auto_resume = true;
};

/// Live progress snapshot, assembled from the engine's ProgressObserver
/// events. All fields are monotone within one run.
struct JobProgress {
  int64_t phase1_blocks_done = 0;
  int64_t phase1_blocks_total = 0;
  bool phase1_done = false;
  /// Last completed virtual iteration (continues from the checkpoint on a
  /// resumed job) and the surrogate fit it reached.
  int virtual_iteration = 0;
  double fit = 0.0;
  uint64_t swap_ins = 0;
};

/// Snapshot of one job, as returned by Poll/Await/List. A copy — it does
/// not change after return.
struct JobInfo {
  JobId id = 0;
  JobState state = JobState::kQueued;
  /// The spec as submitted (minus any caller cancel token).
  JobSpec spec;
  JobProgress progress;
  /// Terminal failure reason: the engine error for kFailed,
  /// Status::Cancelled for kCancelled, OK otherwise.
  Status status;
  /// The solver outcome; meaningful only in kSucceeded.
  SolveResult result;
  /// The runner found a Phase-2 checkpoint for this spec and engaged
  /// resume_phase2 — the run continued instead of restarting. Set when
  /// the run ends.
  bool resumed = false;
  /// Seconds from submission to start, and from start to the terminal
  /// state (0 while not applicable).
  double wait_seconds = 0.0;
  double run_seconds = 0.0;
};

/// Folds a running job's engine events into its JobProgress under the
/// owner's lock, then forwards each event to `next` (when set) with no
/// lock held, so a forwarded callback may call back into the owner
/// (Cancel, Poll) without deadlocking.
class JobProgressReporter : public ProgressObserver {
 public:
  JobProgressReporter(std::mutex* mu, JobProgress* progress,
                      ProgressObserver* next)
      : mu_(mu), progress_(progress), next_(next) {}
  JobProgressReporter(const JobProgressReporter&) = delete;
  JobProgressReporter& operator=(const JobProgressReporter&) = delete;

  void OnPhase1BlockDone(int64_t done, int64_t total,
                         double block_fit) override;
  void OnPhase1Done(double seconds, double mean_block_fit) override;
  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override;
  void OnPhase2Done(int virtual_iterations, bool converged,
                    double surrogate_fit, const BufferStats& stats) override;

 private:
  std::mutex* mu_;
  JobProgress* progress_;
  ProgressObserver* next_;
};

/// What one run of a job ended with.
struct JobOutcome {
  /// OK, Status::Cancelled, or the error that failed the run.
  Status status;
  /// The solver outcome; meaningful only when status is OK.
  SolveResult result;
  /// The run continued from a Phase-2 checkpoint (JobSpec::auto_resume).
  bool resumed = false;
};

/// Runs `spec` on the calling thread, blocking until it ends: opens its
/// Session, engages resume_phase2 when auto_resume finds a checkpoint the
/// engine's validator accepts (one it refuses with FailedPrecondition
/// runs fresh; any other validator error fails the run), and decomposes
/// under `cancel` and `observer`, which replace the spec's own and must
/// outlive the call.
JobOutcome RunJob(JobSpec spec, CancellationToken* cancel,
                  ProgressObserver* observer);

}  // namespace tpcp

#endif  // TPCP_API_JOB_H_
